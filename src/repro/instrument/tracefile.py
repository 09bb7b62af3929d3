"""Offline trace files (§3.3.1).

The paper redirects traces to offline files once an EOSVM thread
finishes executing (``apply_context::finalize_trace``), so parallel
contract executions never interleave.  :class:`TraceStore` reproduces
that: per-execution buffers keyed by a thread/action token, flushed to
per-token files on finalize, which Symback reads back with
:func:`read_trace_ir`.

The on-disk format is the compact, CRC-guarded columnar trace IR of
:mod:`repro.traceir` (``.tir``).  The paper's JSONL layout (one
``[hook_name, args]`` line per event) remains as a human-readable
debug rendering (:func:`write_trace_file` / :func:`read_trace_file`).
Both are written atomically — the bytes land in a temp file in the
same directory and are published with ``os.replace`` — so a crash
mid-flush can never leave a half-written trace that a later read
parses as a short-but-valid stream.  Both loaders lift every defect to
a typed :class:`~repro.resilience.errors.TraceCorruption` carrying the
path (and, for JSONL, the 1-based line number).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from ..resilience.errors import TraceCorruption
from .hooks import HookEvent

__all__ = ["TraceStore", "decode_raw_trace", "write_trace_file",
           "read_trace_file", "write_trace_ir", "read_trace_ir"]


def decode_raw_trace(raw: list[tuple]) -> list[HookEvent]:
    """Decode the chain's raw ``(hook_name, args)`` buffer into events."""
    return [HookEvent.decode(name, args) for name, args in raw]


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


def write_trace_file(path: "str | Path", raw: list[tuple]) -> None:
    """Render one execution's trace as JSONL (one line per event), the
    human-readable debug form of a ``.tir`` file.

    Atomic: a reader either sees the previous complete file or the new
    complete file, never a prefix.
    """
    path = Path(path)
    lines = [json.dumps([name, list(args)]) for name, args in raw]
    data = ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
    _atomic_write(path, data)


def read_trace_file(path: "str | Path") -> list[HookEvent]:
    events = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                name, args = json.loads(line)
                events.append(HookEvent.decode(name, tuple(args)))
            except (ValueError, TypeError, KeyError, IndexError) as exc:
                # json.JSONDecodeError is a ValueError; the rest cover
                # well-formed JSON that is not a [hook_name, args]
                # pair or names an unknown hook.
                raise TraceCorruption(
                    f"malformed trace line: {exc}",
                    path=str(path), line=lineno) from exc
    return events


def write_trace_ir(path: "str | Path", raw: list[tuple]) -> None:
    """Persist one execution's trace as a columnar ``.tir`` blob."""
    from ..traceir.codec import EventStreamEncoder
    encoder = EventStreamEncoder()
    for name, args in raw:
        encoder.add_raw(name, args)
    _atomic_write(Path(path), encoder.finish())


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
        self._buffers: dict[str, list[tuple]] = {}
        self._sequence = 0

    def append(self, token: str, hook_name: str, args: tuple) -> None:
        self._buffers.setdefault(token, []).append((hook_name, args))

    def finalize(self, token: str) -> Path:
        """Flush one thread's buffer to its own offline file."""
        raw = self._buffers.pop(token, [])
        self._sequence += 1
        path = self.directory / f"trace-{self._sequence:06d}-{token}.tir"
        write_trace_ir(path, raw)
        return path

    def pending_tokens(self) -> list[str]:
        return sorted(self._buffers)
