"""A stdlib HTTP client for the scan daemon (used by ``wasai submit``).

Thin by design: urllib only, JSON in/out, typed errors.  The client
mirrors the daemon's semantics — a 200 on submit is a dedup hit whose
verdict is already in the response, a 202 is an admitted job to poll,
a 429 is an explicit backpressure shed the caller should back off
from, and a 400 ``malformed_module`` means the upload was rejected at
admission and will never produce a verdict.

Transient failures are the client's problem to absorb, not the
caller's: a 429 shed, a connection refused (daemon restarting under
its supervisor) or a reset mid-request (worker storm, drain race) is
retried with capped exponential backoff before anything surfaces.
The delay honors the daemon's ``Retry-After`` header when one is
present; otherwise it is ``backoff_base_s * 2^attempt`` capped at
``backoff_cap_s``, plus a *deterministic* jitter derived from the
request path and attempt number (crc32, not ``random``) so retry
storms from many clients de-synchronize while any single run stays
reproducible.  A raw :class:`urllib.error.URLError` never escapes:
exhausted retries surface as a typed :class:`ServiceError` with
status 503.

An optional ``api_key`` is attached to every request as
``X-Api-Key`` for tenant-quota admission.

Backpressure is honored as measured: every 429 the daemon emits
carries a ``Retry-After`` (how long the backlog actually takes to
drain) which the client sleeps on, capped at ``backoff_cap_s``.
Caller deadlines propagate as the ``X-Deadline-Ms`` header (absolute
epoch milliseconds) via ``submit(deadline_s=...)`` — the daemon then
refuses to spend fresh campaign budget past that instant.
"""

from __future__ import annotations

import json
import base64
import http.client
import time
import urllib.error
import urllib.request
import zlib

from .queue import TERMINAL_STATES

__all__ = ["ServiceClient", "ServiceError"]

# Connection-level failures worth retrying: the daemon is restarting,
# draining, or the socket died mid-flight.  Anything else (DNS, bad
# URL) fails fast.
_TRANSIENT_EXCS = (ConnectionError, ConnectionResetError,
                   ConnectionRefusedError, http.client.RemoteDisconnected,
                   http.client.BadStatusLine)


class ServiceError(Exception):
    """A non-2xx daemon response, carrying the decoded error doc."""

    def __init__(self, status: int, doc: dict):
        detail = doc.get("detail") or doc.get("error") or "error"
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.doc = doc

    @property
    def error(self) -> str:
        return str(self.doc.get("error", ""))


class ServiceClient:
    """Talk to one ``wasai serve`` daemon at ``base_url``."""

    def __init__(self, base_url: str = "http://127.0.0.1:8734",
                 timeout_s: float = 30.0, *,
                 max_retries: int = 3,
                 backoff_base_s: float = 0.1,
                 backoff_cap_s: float = 5.0,
                 api_key: "str | None" = None,
                 sleep=time.sleep):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.api_key = api_key
        self._sleep = sleep

    # -- plumbing ----------------------------------------------------------
    def _retry_delay(self, path: str, attempt: int,
                     retry_after: "str | None" = None) -> float:
        if retry_after is not None:
            try:
                return min(max(0.0, float(retry_after)),
                           self.backoff_cap_s)
            except ValueError:
                pass
        delay = min(self.backoff_base_s * (2 ** attempt),
                    self.backoff_cap_s)
        # Deterministic jitter in [0, delay/2): same request + attempt
        # always waits the same, different clients/paths spread out.
        seed = zlib.crc32(f"{path}:{attempt}".encode("utf-8"))
        return delay + (seed % 1000) / 1000.0 * delay / 2

    def _request_once(self, method: str, path: str,
                      doc: dict | None = None, *,
                      extra_headers: dict | None = None
                      ) -> tuple[int, dict, dict]:
        """One attempt: (status, payload, headers)."""
        body = None
        headers = {"Accept": "application/json"}
        if doc is not None:
            body = json.dumps(doc).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.api_key is not None:
            headers["X-Api-Key"] = self.api_key
        if extra_headers:
            headers.update(extra_headers)
        request = urllib.request.Request(self.base_url + path,
                                         data=body, headers=headers,
                                         method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as resp:
                return (resp.status, json.loads(resp.read() or b"{}"),
                        dict(resp.headers))
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read() or b"{}")
            except ValueError:
                payload = {"error": "bad_response"}
            return exc.code, payload, dict(exc.headers or {})

    def _request(self, method: str, path: str,
                 doc: dict | None = None,
                 extra_headers: dict | None = None) -> tuple[int, dict]:
        last_connect_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            retry_after = None
            try:
                status, payload, headers = self._request_once(
                    method, path, doc, extra_headers=extra_headers)
            except urllib.error.URLError as exc:
                reason = getattr(exc, "reason", None)
                if not isinstance(reason, _TRANSIENT_EXCS):
                    raise ServiceError(503, {
                        "error": "unavailable",
                        "detail": f"{type(exc).__name__}: {exc}",
                    }) from exc
                last_connect_error = exc
            except _TRANSIENT_EXCS as exc:
                # A reset can also surface bare (mid-body, keep-alive).
                last_connect_error = exc
            else:
                if status != 429 or attempt >= self.max_retries:
                    return status, payload
                retry_after = headers.get("Retry-After")
            if attempt < self.max_retries:
                self._sleep(self._retry_delay(path, attempt, retry_after))
        raise ServiceError(503, {
            "error": "unavailable",
            "detail": (f"daemon unreachable after "
                       f"{self.max_retries + 1} attempts: "
                       f"{last_connect_error}"),
        }) from last_connect_error

    def _checked(self, method: str, path: str,
                 doc: dict | None = None,
                 extra_headers: dict | None = None) -> dict:
        status, payload = self._request(method, path, doc,
                                        extra_headers)
        if status >= 400:
            raise ServiceError(status, payload)
        return payload

    # -- API ---------------------------------------------------------------
    def health(self) -> dict:
        return self._checked("GET", "/healthz")

    def stats(self) -> dict:
        return self._checked("GET", "/stats")

    def integrity(self) -> dict:
        """Trigger (and fetch) an on-demand store integrity sweep."""
        return self._checked("GET", "/integrity")

    def submit(self, wasm_bytes: bytes, abi_json: "str | dict",
               config: dict | None = None, client: str = "cli",
               priority: int = 0,
               deadline_s: float | None = None,
               deadline_epoch_s: float | None = None) -> dict:
        """Submit one module; returns the job doc (``outcome`` is
        ``cached`` / ``coalesced`` / ``queued`` / ``replayed`` /
        ``deadline_exceeded``).

        ``deadline_s`` is a relative wall-clock budget ("answer within
        N seconds"), resolved against this host's clock;
        ``deadline_epoch_s`` is the absolute instant directly.  Either
        way the deadline rides the ``X-Deadline-Ms`` header and
        propagates through every daemon hand-off.
        """
        doc = {
            "module_b64": base64.b64encode(wasm_bytes).decode("ascii"),
            "abi": abi_json,
            "client": client,
            "priority": priority,
        }
        if config:
            doc["config"] = config
        if deadline_epoch_s is None and deadline_s is not None:
            deadline_epoch_s = time.time() + float(deadline_s)
        extra_headers = None
        if deadline_epoch_s is not None:
            extra_headers = {
                "X-Deadline-Ms": str(int(deadline_epoch_s * 1000.0))}
        return self._checked("POST", "/scans", doc,
                             extra_headers=extra_headers)

    def status(self, job_id: str) -> dict:
        return self._checked("GET", f"/scans/{job_id}")

    def reverdict(self, oracle_version: int | None = None,
                  wait: bool = False,
                  timeout_s: float = 300.0,
                  oracles=None) -> dict:
        """Queue an oracle replay over every stored trace-IR pack;
        returns the job doc.  With ``wait`` the call polls
        until the sweep is terminal, so the returned doc carries the
        sweep report (replayed / drift / corrupt counts).  ``oracles``
        selects the enabled families (names, aliases, or a
        comma-separated string; default: the daemon's configured
        set)."""
        doc: dict = {"client": "cli"}
        if oracle_version is not None:
            doc["oracle_version"] = int(oracle_version)
        if oracles is not None:
            doc["oracles"] = (oracles if isinstance(oracles, str)
                              else list(oracles))
        job_doc = self._checked("POST", "/reverdict", doc)
        if wait and job_doc.get("state") not in TERMINAL_STATES:
            return self.wait(job_doc["id"], timeout_s)
        return job_doc

    def wait(self, job_id: str, timeout_s: float = 120.0,
             poll_s: float = 0.2) -> dict:
        """Poll until the job is terminal; raises TimeoutError."""
        deadline = time.monotonic() + timeout_s
        while True:
            doc = self.status(job_id)
            if doc.get("state") in TERMINAL_STATES:
                return doc
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {doc.get('state')} after "
                    f"{timeout_s:g}s")
            time.sleep(poll_s)
