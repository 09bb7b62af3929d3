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
      (``error: "malformed_module"``) or the request itself is bad;
    * ``429`` — typed backpressure shed (``error: "queue_full"``,
      with the saturated bound in ``kind``/``limit`` and a
      ``retry_after_s`` hint the HTTP layer mirrors as a
      ``Retry-After`` header).

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
    immediately (never a 429 — there is nothing to retry).  Under
    brownout pressure a submission may also come back ``200`` with
    ``outcome: "replayed"``: the verdict was re-derived from a stored
    trace pack by pure oracle replay, with honest ``source: "replay"``
    provenance.

``GET /scans/{id}``
    Job lifecycle doc (``queued | running | done | failed |
    quarantined | deadline_exceeded | stolen``); terminal jobs include
    the verdict / error.

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
    Queue a fleet-wide oracle replay over the stored trace-IR packs
    (zero re-fuzzing).  JSON body ``{"oracle_version": N}`` (optional);
    replies ``202`` with a job whose ``result`` is the sweep report —
    replayed / rewritten / matched / drift / corrupt counts plus the
    itemised ``verdict_drift`` / ``trace_corruption`` incidents.

Fleet surface
-------------

When the daemon is part of a fleet, four more endpoints carry the
coordinator verbs on the wire — ``POST /fleet/steal`` (donate
unclaimed queue entries as base64 recipes), ``GET
/fleet/journal?cursor=N`` (ship the store's verdict-log lines past a
byte cursor), ``POST /fleet/replicate`` (replay shipped writes and
drops) and ``POST /fleet/partition`` (chaos/topology control).
Submissions gain three admission outcomes: ``401 unauthorized`` (a
required/unknown API key when a :class:`~repro.service.tenants.
TenantBook` is installed), ``429`` with ``kind: "quota"`` (a known
tenant over its rate limit or absolute quota), and ``307
wrong_shard`` with a ``Location`` header when a shard router says a
different node owns this module's hash arc.  A partitioned minority
node answers every write ``503 partitioned`` with ``stale: true``
while reads keep flowing (stale-marked).  A tenant is billed only for
submissions answered ``200`` or ``202``: a refused one is refunded.
"""

from __future__ import annotations

import base64
import binascii
import json
from urllib.parse import parse_qs

from ..resilience import MalformedModule
from .queue import QueueFull
from .scheduler import NodePartitioned, ScanService
from .tenants import QuotaExceeded, TenantBook, UnknownApiKey

__all__ = ["ServiceApi"]

# Every typed way admission can refuse a request (see _refusal).
_REFUSALS = (MalformedModule, UnknownApiKey, NodePartitioned, QueueFull)


class ServiceApi:
    """Route one parsed request against a :class:`ScanService`.

    ``tenants`` (optional) gates submissions behind API keys and
    quotas; ``router`` (optional) is a callable mapping a module
    content hash to the owning node's base URL, or ``None`` when this
    node owns the shard — non-``None`` turns the submission into a
    307 redirect.
    """

    def __init__(self, service: ScanService,
                 tenants: TenantBook | None = None,
                 router=None):
        self.service = service
        self.tenants = tenants
        self.router = router

    def handle(self, method: str, path: str, body: bytes = b"",
               headers: dict | None = None) -> tuple[int, dict]:
        raw_path = path
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
        if method == "POST" and path == "/fleet/steal":
            return self._fleet_steal(body)
        if method == "GET" and path == "/fleet/journal":
            return self._fleet_journal(raw_path)
        if method == "POST" and path == "/fleet/replicate":
            return self._fleet_replicate(body)
        if method == "POST" and path == "/fleet/partition":
            return self._fleet_partition(body)
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
        api_key = self._api_key(doc, headers)
        tenant = None
        try:
            if self.service.partitioned:
                # A minority-side node refuses every write before it
                # costs any parsing; reads keep flowing stale-marked.
                raise NodePartitioned("node is on the minority side of "
                                      "a network partition")
            if self.tenants is not None:
                # Identity gate BEFORE any module parsing: an unknown
                # key costs the node nothing but this lookup.
                self.tenants.validate(api_key)
            if self.router is not None:
                from .backend import module_hash_of
                location = self.router(module_hash_of(data))
                if location is not None:
                    # Wrong shard: this node does not own the module's
                    # hash arc, and the owner is the one that bills.
                    # The server layer mirrors ``location`` into a
                    # Location header for the 307.
                    return 307, {"error": "wrong_shard",
                                 "location": location.rstrip("/")
                                 + "/scans"}
            if self.tenants is not None:
                tenant = self.tenants.admit(api_key)
            ttl_s = doc.get("ttl_s")
            submission = self.service.submit_bytes(
                data, doc["abi"], config=doc.get("config"),
                client=str(doc.get("client", "anon")),
                priority=int(doc.get("priority", 0)),
                ttl_s=float(ttl_s) if ttl_s is not None else None,
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
        if submission.cached or submission.outcome in (
                "replayed", "deadline_exceeded"):
            # Terminal at admission: a dedup hit or brownout replay
            # already carries the verdict; an expired deadline carries
            # its typed terminal doc — nothing is pending either way.
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
        if isinstance(exc, NodePartitioned):
            return 503, {"error": "partitioned", "stale": True,
                         "detail": str(exc),
                         "retry_after_s": exc.retry_after_s}
        doc = {"error": "queue_full", "detail": str(exc),
               "kind": exc.kind, "depth": exc.depth, "limit": exc.limit,
               "retry_after_s": exc.retry_after_s}
        if isinstance(exc, QuotaExceeded):
            self.service.count("shed.quota")
            doc["tenant"] = exc.tenant
        return 429, doc

    # -- POST /reverdict ---------------------------------------------------
    def _reverdict(self, body: bytes) -> tuple[int, dict]:
        """Queue a fleet-wide oracle replay over the stored traces.

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
        oracle_version = doc.get("oracle_version")
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
                oracle_version=(int(oracle_version)
                                if oracle_version is not None else None),
                client=str(doc.get("client", "reverdict")),
                priority=int(doc.get("priority", 0)),
                oracles=oracles)
        except _REFUSALS as exc:
            return self._refusal(exc)
        job_doc = self.service.job_doc(submission.job)
        job_doc["outcome"] = submission.outcome
        return 202, job_doc

    # -- fleet verbs -------------------------------------------------------
    def _fleet_steal(self, body: bytes) -> tuple[int, dict]:
        try:
            doc = json.loads(body.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": "bad_request",
                         "detail": f"body is not JSON: {exc}"}
        recipes = self.service.steal_unclaimed(
            max(0, int(doc.get("max_jobs", 1))),
            thief=str(doc.get("thief", "fleet")))
        wire = []
        for recipe in recipes:
            recipe = dict(recipe)
            module = recipe.pop("module", b"")
            recipe["module_b64"] = base64.b64encode(module) \
                .decode("ascii")
            wire.append(recipe)
        return 200, {"recipes": wire, "stolen": len(wire)}

    def _fleet_journal(self, raw_path: str) -> tuple[int, dict]:
        query = parse_qs(raw_path.partition("?")[2])
        try:
            cursor = int(query.get("cursor", ["0"])[0])
        except ValueError:
            return 400, {"error": "bad_request",
                         "detail": "cursor must be an integer"}
        entries, new_cursor = self.service.store.read_log(cursor)
        return 200, {"entries": entries, "cursor": new_cursor}

    def _fleet_replicate(self, body: bytes) -> tuple[int, dict]:
        try:
            doc = json.loads(body.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": "bad_request",
                         "detail": f"body is not JSON: {exc}"}
        entries = doc.get("entries")
        if not isinstance(entries, list):
            return 400, {"error": "bad_request",
                         "detail": "need an entries list"}
        # Unauthenticated input: fill absent keys, never touch held ones.
        applied = self.service.apply_replica_verdicts(entries,
                                                      insert_only=True)
        return 200, {"applied": applied}

    def _fleet_partition(self, body: bytes) -> tuple[int, dict]:
        try:
            doc = json.loads(body.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": "bad_request",
                         "detail": f"body is not JSON: {exc}"}
        partitioned = bool(doc.get("partitioned", True))
        reason = doc.get("reason")
        self.service.set_partitioned(
            partitioned, str(reason) if reason is not None else None)
        return 200, {"ok": True, "partitioned": partitioned}

    # -- GET /scans/{id} ---------------------------------------------------
    def _status(self, job_id: str) -> tuple[int, dict]:
        job = self.service.job(job_id)
        if job is None:
            return 404, {"error": "unknown_job", "id": job_id}
        return 200, self.service.job_doc(job)
