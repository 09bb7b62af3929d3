"""Offline trace files (§3.3.1).

The paper redirects traces to offline files once an EOSVM thread
finishes executing (``apply_context::finalize_trace``), so parallel
contract executions never interleave.  :class:`TraceStore` reproduces
that: per-execution buffers of :class:`~repro.instrument.hooks.HookEvent`
(the chain's hook sink records them already decoded) keyed by a
thread/action token, flushed to per-token files on finalize, which
Symback reads back with :func:`read_trace_ir`.

The on-disk format is the compact, CRC-guarded columnar trace IR of
:mod:`repro.traceir` (``.tir``).  Files are written atomically — the
bytes land in a temp file in the same directory and are published
with ``os.replace`` — so a crash mid-flush can never leave a
half-written trace that a later read parses as a short-but-valid
stream.  The loader lifts every defect to a typed
:class:`~repro.resilience.errors.TraceCorruption` carrying the path.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from ..resilience.errors import TraceCorruption
from .hooks import HookEvent

__all__ = ["TraceStore", "write_trace_ir", "read_trace_ir"]


def _atomic_write(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` via temp-file + ``os.replace``."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_trace_ir(path: "str | Path", events: list[HookEvent]) -> None:
    """Persist one execution's trace as a columnar ``.tir`` blob."""
    from ..traceir.codec import encode_events
    _atomic_write(Path(path), encode_events(events))


def read_trace_ir(path: "str | Path") -> list[HookEvent]:
    from ..traceir.codec import decode_events
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise TraceCorruption(f"unreadable trace file: {exc}",
                              path=str(path)) from exc
    try:
        return decode_events(blob)
    except TraceCorruption as exc:
        if exc.path is None:
            exc.path = str(path)
        raise


class TraceStore:
    """Per-thread trace buffers with offline redirect on finalize:
    each token's buffer becomes its own CRC-guarded ``.tir`` file."""

    def __init__(self, directory: "str | Path"):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._buffers: dict[str, list[HookEvent]] = {}
        self._sequence = 0

    def append(self, token: str, event: HookEvent) -> None:
        self._buffers.setdefault(token, []).append(event)

    def finalize(self, token: str) -> Path:
        """Flush one thread's buffer to its own offline file."""
        events = self._buffers.pop(token, [])
        self._sequence += 1
        path = self.directory / f"trace-{self._sequence:06d}-{token}.tir"
        write_trace_ir(path, events)
        return path

    def pending_tokens(self) -> list[str]:
        return sorted(self._buffers)
