"""The HTTP daemon: stdlib ``ThreadingHTTPServer`` over the API.

No web framework — ``http.server`` is enough for a JSON API and keeps
the dependency surface at zero.  Each request thread delegates to
:class:`~repro.service.api.ServiceApi`; the scan workers are separate
threads owned by the :class:`~repro.service.scheduler.ScanService`,
so slow fuzzing campaigns never block health checks or status polls.

``SIGTERM``/``SIGINT`` trigger a graceful drain: the daemon stops
accepting, lets running campaigns finish, checkpoints still-queued
jobs into the artifact store, and exits — the next daemon on the same
``--store`` resubmits each checkpoint exactly once when it starts.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .api import ServiceApi
from .scheduler import ScanService

__all__ = ["ScanServer", "make_server", "serve_forever"]

# Uploads larger than this are rejected before buffering the body
# (the ingest budget would reject them anyway, but only after a read).
MAX_BODY_BYTES = 32 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """One request; all logic lives in the shared ServiceApi."""

    server_version = "wasai-scand/1.0"
    protocol_version = "HTTP/1.1"

    def _dispatch(self, method: str) -> None:
        api: ServiceApi = self.server.api  # type: ignore[attr-defined]
        body = b""
        if method == "POST":
            length = int(self.headers.get("Content-Length") or 0)
            if length > MAX_BODY_BYTES:
                self._reply(413, {"error": "body_too_large",
                                  "limit": MAX_BODY_BYTES})
                return
            body = self.rfile.read(length)
        try:
            status, doc = api.handle(method, self.path, body,
                                     headers=dict(self.headers))
        except Exception as exc:  # noqa: BLE001 - keep the daemon up
            status, doc = 500, {"error": "internal",
                                "detail": f"{type(exc).__name__}: {exc}"}
        self._reply(status, doc)

    def _reply(self, status: int, doc: dict) -> None:
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if status == 429 and doc.get("retry_after_s") is not None:
            # The shed hint clients honor before retrying (RFC 9110
            # allows a delay in seconds; round up so 0.5s isn't "0").
            self.send_header(
                "Retry-After",
                str(max(1, int(-(-float(doc["retry_after_s"]) // 1)))))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def log_message(self, fmt: str, *args) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)


class ScanServer(ThreadingHTTPServer):
    """ThreadingHTTPServer wired to one ScanService."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: ScanService,
                 verbose: bool = False, tenants=None):
        super().__init__(address, _Handler)
        self.service = service
        self.api = ServiceApi(service, tenants=tenants)
        self.verbose = verbose


def make_server(service: ScanService, host: str = "127.0.0.1",
                port: int = 0, verbose: bool = False,
                tenants=None) -> ScanServer:
    """Bind (port 0 = ephemeral) and start the scan workers.

    ``tenants`` installs API-key/quota admission (see
    :class:`~repro.service.api.ServiceApi`).
    """
    server = ScanServer((host, port), service, verbose=verbose,
                        tenants=tenants)
    service.start()
    return server


def serve_forever(server: ScanServer, drain_wait_s: float = 60.0,
                  install_signals: bool = True) -> int:
    """Serve until SIGTERM/SIGINT, then drain gracefully.

    Returns the number of jobs checkpointed to the store on the way
    down (the count the next start on that store resubmits).
    """
    stop = threading.Event()

    def _request_shutdown(signum=None, frame=None):
        stop.set()
        # shutdown() must not be called from the serve_forever thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    if install_signals:
        signal.signal(signal.SIGTERM, _request_shutdown)
        signal.signal(signal.SIGINT, _request_shutdown)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        checkpointed = server.service.stop(wait_s=drain_wait_s)
        server.server_close()
    return checkpointed
