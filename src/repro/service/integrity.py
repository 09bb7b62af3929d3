"""Storage-integrity primitives for the artifact store.

SQLite promises page-level durability, not end-to-end honesty: a
bit-flipped disk block, a partial restore, or an operator editing the
database under a live daemon all produce rows that *parse* fine and
are silently wrong.  The store therefore carries its own end-to-end
per-row content checksum (sha256 over the row's identity + payload)
written at insert time and verified on every read; the two failure
signals —

* :class:`StoreCorruption` — a checksum mismatch or an
  ``sqlite3.DatabaseError`` escaping the driver (malformed database
  image), and
* :class:`StoreBudgetExceeded` — the disk budget guard turning a
  would-be ``disk full`` crash into typed backpressure the admission
  layer can shed with a 429 —

are the scheduler's cue to quarantine the damaged database file and
rebuild the store from its verdict log instead of crashing or, worse,
serving a wrong verdict.
"""

from __future__ import annotations

import hashlib

__all__ = ["StoreCorruption", "StoreBudgetExceeded", "content_checksum"]


class StoreCorruption(Exception):
    """The artifact store returned bytes it cannot vouch for: a row
    checksum mismatch or SQLite reporting a malformed database."""

    def __init__(self, message: str, *, table: str | None = None,
                 key: str | None = None):
        super().__init__(message)
        self.table = table
        self.key = key


class StoreBudgetExceeded(Exception):
    """Typed backpressure: a store write was refused because it would
    exceed the configured disk budget (or the disk itself is full).
    The write did not happen; the caller should shed or retry later."""

    def __init__(self, message: str, *, used_bytes: int = 0,
                 budget_bytes: int = 0):
        super().__init__(message)
        self.used_bytes = used_bytes
        self.budget_bytes = budget_bytes


def content_checksum(*parts: "bytes | str") -> str:
    """sha256 over the concatenated parts (strings are UTF-8), with a
    length prefix per part so ("ab","c") != ("a","bc")."""
    digest = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8") if isinstance(part, str) else part
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()
