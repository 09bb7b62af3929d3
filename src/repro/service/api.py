"""Transport-free HTTP API: (method, path, body) -> (status, doc).

The routing and response-shaping logic lives here, decoupled from the
socket layer in :mod:`repro.service.server`, so the full request
surface is unit-testable without binding a port.

Endpoints
---------

``POST /scans``
    JSON body ``{"module_b64": ..., "abi": ..., "config": {...},
    "client": ..., "priority": ...}``.  Responses:

    * ``200`` — dedup hit: an identical module+config was already
      scanned; the cached verdict is returned immediately
      (``outcome: "cached"``);
    * ``202`` — admitted: ``outcome`` is ``"queued"`` (a new job) or
      ``"coalesced"`` (attached single-flight to an in-flight twin);
    * ``400`` — the upload failed sandboxed ingestion
      (``error: "malformed_module"``) or the request itself is bad
      (``error: "bad_request"``: not JSON, a missing field, or a
      ``priority``, ``ttl_s``, ``abi`` or deadline that does not
      parse);
    * ``401`` — a :class:`~repro.service.tenants.TenantBook` is
      installed and the API key (``X-Api-Key`` header or ``api_key``
      body field) is missing where required, or unknown;
    * ``429`` — typed backpressure shed (``error: "queue_full"``,
      with the saturated bound in ``kind``, the admitted jobs and the
      admission bound in ``depth``/``limit``, and a ``retry_after_s``
      hint the HTTP layer mirrors as a ``Retry-After`` header):
      ``kind: "queue"`` is the one admission bound (queued + running
      jobs, at most ``--queue-depth`` + ``--workers``),
      ``"brownout"`` the pressure ladder, ``"disk"`` the store's disk
      budget, ``"draining"`` a daemon shutting down, and ``"quota"``
      a known tenant over its rate limit or absolute quota.

    A tenant is billed only for a submission answered ``200`` or
    ``202``.  Every field is parsed before the tenant is charged, and
    a charge the service then refuses is refunded, so a ``400``,
    ``401`` or ``429`` costs the tenant nothing.

    Optional body field ``ttl_s`` is a relative deadline: admission
    turns it into ``min(caller deadline, now + ttl_s)``, so it ends in
    ``deadline_exceeded`` like any other deadline.

    An ``X-Deadline-Ms`` header (or body field ``deadline_epoch_ms``)
    carries the caller's absolute wall-clock deadline in epoch
    milliseconds.  It propagates end-to-end: checked at admission, at
    dequeue, at claim and once per fuzzing round, so an expired
    request is cut short with the typed terminal state
    ``deadline_exceeded`` instead of burning a full campaign budget.
    An already-expired deadline answers ``200`` with that terminal doc
    immediately (never a 429 — there is nothing to retry).

``GET /scans/{id}``
    Job lifecycle doc (``queued | running | done | failed |
    quarantined | deadline_exceeded``); terminal jobs include the
    verdict / error.  A reduced answer — an open breaker, brownout
    pressure or a fuzzer fallback made it cheaper than its scan key
    promises — names why in ``result.provenance.reduced`` and is
    never cached.

``GET /healthz``
    Readiness + health: ``status`` is ``ok`` (accepting, breakers
    closed), ``degraded`` (serving, but some pipeline-stage breaker is
    open — affected scans run black-box-only) or ``draining`` (not
    accepting: graceful drain or a worker restart storm), plus the
    supervisor's worker counts and the open breaker list.

``GET /stats``
    Queue depth, in-flight, dedup hit rates, shed counts, p50/p95 job
    latency, per-stage breaker snapshots, store rows per table (drain
    checkpoints under ``pending``) and the self-healing counters
    (worker restarts, breaker trips, integrity repairs, log compactions).

``GET /integrity``
    On-demand storage integrity sweep: recomputes every stored row's
    checksum and reports (and by default repairs) corruption.

``POST /reverdict``
    Queue an oracle replay over every stored trace-IR pack (zero
    re-fuzzing).  JSON body ``{"oracle_version": N}`` (optional);
    replies ``202`` with a job whose ``result`` is the sweep report —
    replayed / rewritten / matched / drift / corrupt counts plus the
    itemised ``verdict_drift`` / ``trace_corruption`` incidents, or
    ``400`` when a field does not parse.
"""

from __future__ import annotations

import base64
import binascii
import json

from ..eosio.abi import Abi
from ..resilience import MalformedModule
from .queue import QueueFull
from .scheduler import ScanService
from .tenants import QuotaExceeded, TenantBook, UnknownApiKey

__all__ = ["ServiceApi"]

# Every typed way admission can refuse a request (see _refusal).
_REFUSALS = (MalformedModule, UnknownApiKey, QueueFull)


class ServiceApi:
    """Route one parsed request against a :class:`ScanService`.

    ``tenants`` (optional) gates submissions behind API keys and
    quotas.
    """

    def __init__(self, service: ScanService,
                 tenants: TenantBook | None = None):
        self.service = service
        self.tenants = tenants

    def handle(self, method: str, path: str, body: bytes = b"",
               headers: dict | None = None) -> tuple[int, dict]:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            return 200, self.service.health()
        if method == "GET" and path == "/stats":
            return 200, self.service.stats()
        if method == "GET" and path == "/integrity":
            return 200, self.service.integrity_sweep()
        if method == "POST" and path == "/scans":
            return self._submit(body, headers or {})
        if method == "POST" and path == "/reverdict":
            return self._reverdict(body)
        if method == "GET" and path.startswith("/scans/"):
            return self._status(path[len("/scans/"):])
        return 404, {"error": "not_found", "path": path}

    # -- POST /scans -------------------------------------------------------
    @staticmethod
    def _api_key(doc: dict, headers: dict) -> str | None:
        for name, value in headers.items():
            if name.lower() == "x-api-key":
                return str(value)
        key = doc.get("api_key")
        return str(key) if key is not None else None

    @staticmethod
    def _deadline_epoch_s(doc: dict, headers: dict) -> float | None:
        """The caller's absolute deadline in epoch *seconds*, from the
        ``X-Deadline-Ms`` header (epoch milliseconds on the wire —
        integral, proxy-safe) or the ``deadline_epoch_ms`` body field.
        Raises ValueError when present but unparseable."""
        raw = None
        for name, value in headers.items():
            if name.lower() == "x-deadline-ms":
                raw = value
                break
        if raw is None:
            raw = doc.get("deadline_epoch_ms")
        if raw is None:
            return None
        return float(raw) / 1000.0

    def _submit(self, body: bytes,
                headers: dict) -> tuple[int, dict]:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": "bad_request",
                         "detail": f"body is not JSON: {exc}"}
        if not isinstance(doc, dict) or "module_b64" not in doc \
                or "abi" not in doc:
            return 400, {"error": "bad_request",
                         "detail": "need module_b64 and abi fields"}
        try:
            data = base64.b64decode(doc["module_b64"], validate=True)
        except (binascii.Error, ValueError) as exc:
            return 400, {"error": "bad_request",
                         "detail": f"module_b64 is not base64: {exc}"}
        try:
            deadline_epoch_s = self._deadline_epoch_s(doc, headers)
        except (TypeError, ValueError):
            return 400, {"error": "bad_request",
                         "detail": "X-Deadline-Ms / deadline_epoch_ms "
                                   "must be epoch milliseconds"}
        # Every field parses before the tenant is charged: a request
        # that cannot be admitted as written is a 400, never a bill.
        try:
            priority = int(doc.get("priority", 0))
            ttl_s = doc.get("ttl_s")
            ttl_s = None if ttl_s is None else float(ttl_s)
            abi = doc["abi"]
            abi = Abi.from_json(abi if isinstance(abi, str)
                                else json.dumps(abi))
        except (TypeError, ValueError, KeyError, AttributeError) as exc:
            return 400, {"error": "bad_request",
                         "detail": f"bad submit field: "
                                   f"{type(exc).__name__}: {exc}"}
        api_key = self._api_key(doc, headers)
        tenant = None
        try:
            if self.tenants is not None:
                tenant = self.tenants.admit(api_key)
            submission = self.service.submit_bytes(
                data, abi, config=doc.get("config"),
                client=str(doc.get("client", "anon")),
                priority=priority, ttl_s=ttl_s,
                deadline_epoch_s=deadline_epoch_s)
        except _REFUSALS as exc:
            if tenant is not None:
                # Only admitted work is billed: the charge was a
                # reservation, returned now that the service refused.
                self.tenants.refund(api_key)
            return self._refusal(exc)
        job_doc = self.service.job_doc(submission.job)
        # The job's own outcome says how *it* was admitted; the reply
        # reflects how *this submission* was satisfied (a coalesced
        # duplicate shares a job whose outcome is "queued").
        job_doc["outcome"] = submission.outcome
        if tenant is not None:
            job_doc["tenant"] = tenant
        if submission.outcome in ("cached", "deadline_exceeded"):
            # Terminal at admission: a dedup hit already carries the
            # verdict, an expired deadline its typed terminal doc —
            # nothing is pending either way.
            return 200, job_doc
        return 202, job_doc

    def _refusal(self, exc: Exception) -> tuple[int, dict]:
        """The one mapping from a typed admission refusal to HTTP."""
        if isinstance(exc, MalformedModule):
            # Hostile upload rejected at admission — it never reached
            # a worker; the diagnostic names the offending byte range.
            return 400, {"error": "malformed_module",
                         "detail": str(exc), "stage": "ingest"}
        if isinstance(exc, UnknownApiKey):
            return 401, {"error": "unauthorized", "detail": str(exc)}
        doc = {"error": "queue_full", "detail": str(exc),
               "kind": exc.kind, "depth": exc.depth, "limit": exc.limit,
               "retry_after_s": exc.retry_after_s}
        if isinstance(exc, QuotaExceeded):
            self.service.count("shed.quota")
            doc["tenant"] = exc.tenant
        return 429, doc

    # -- POST /reverdict ---------------------------------------------------
    def _reverdict(self, body: bytes) -> tuple[int, dict]:
        """Queue an oracle replay over the stored traces.

        JSON body (all fields optional): ``{"oracle_version": N,
        "oracles": "token_arith,..." | [...], "client": ...,
        "priority": ...}``.  Replies ``202`` with the job doc; the
        sweep report (replayed / rewritten / drift / corrupt /
        insufficient counts plus itemised incidents) lands in the
        job's ``result`` once it completes.
        """
        try:
            doc = json.loads(body.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": "bad_request",
                         "detail": f"body is not JSON: {exc}"}
        if not isinstance(doc, dict):
            return 400, {"error": "bad_request",
                         "detail": "body must be a JSON object"}
        try:
            oracle_version = doc.get("oracle_version")
            if oracle_version is not None:
                oracle_version = int(oracle_version)
            priority = int(doc.get("priority", 0))
        except (TypeError, ValueError) as exc:
            return 400, {"error": "bad_request",
                         "detail": f"bad reverdict field: "
                                   f"{type(exc).__name__}: {exc}"}
        oracles = doc.get("oracles")
        if oracles is not None:
            from ..semoracle import UnknownOracleFamily, resolve_oracles
            try:
                oracles = list(resolve_oracles(oracles))
            except UnknownOracleFamily as exc:
                return 400, {"error": "unknown_oracle",
                             "detail": str(exc)}
        try:
            submission = self.service.submit_reverdict(
                oracle_version=oracle_version,
                client=str(doc.get("client", "reverdict")),
                priority=priority, oracles=oracles)
        except _REFUSALS as exc:
            return self._refusal(exc)
        job_doc = self.service.job_doc(submission.job)
        job_doc["outcome"] = submission.outcome
        return 202, job_doc

    # -- GET /scans/{id} ---------------------------------------------------
    def _status(self, job_id: str) -> tuple[int, dict]:
        job = self.service.job(job_id)
        if job is None:
            return 404, {"error": "unknown_job", "id": job_id}
        return 200, self.service.job_doc(job)
