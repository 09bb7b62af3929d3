"""The per-contract key-value database (EOSIO multi-index substrate).

Rows live under ``(code, scope, table)`` keyed by a u64 primary key,
exactly the shape the ``db_*_i64`` intrinsics expose.  Every access is
journalled so the Engine can build its database dependency graph
(DBG, §3.3.2) and the chain can roll a failed transaction back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Database", "DbOperation", "TableKey"]

TableKey = tuple[int, int, int]  # (code, scope, table)


@dataclass(frozen=True)
class DbOperation:
    """One journalled database access: the ⟨op, tb⟩ pairs of §3.3.2.

    Writes additionally carry the primary key and the before/after
    row images — the semantic oracle families
    (:mod:`repro.semoracle`) reason about *values*, not just which
    tables were touched.  Reads leave all three at None.
    """

    kind: str  # "read" or "write"
    code: int
    scope: int
    table: int
    pkey: int | None = None
    before: bytes | None = None   # row image prior to the write
    after: bytes | None = None    # row image after the write

    @property
    def table_key(self) -> TableKey:
        return (self.code, self.scope, self.table)


@dataclass
class _Row:
    key: int
    payer: int
    data: bytes


class Database:
    """All tables of a local chain, with snapshot/rollback support."""

    def __init__(self) -> None:
        self._tables: dict[TableKey, dict[int, _Row]] = {}
        self.journal: list[DbOperation] = []
        self._iterators: list[tuple[TableKey, int] | None] = []

    # -- iterator handles (EOSIO returns integer iterators) ----------------
    def _new_iterator(self, table_key: TableKey, key: int) -> int:
        self._iterators.append((table_key, key))
        return len(self._iterators) - 1

    def _resolve(self, iterator: int) -> tuple[TableKey, int]:
        if not 0 <= iterator < len(self._iterators):
            raise KeyError(f"bad database iterator {iterator}")
        entry = self._iterators[iterator]
        if entry is None:
            raise KeyError(f"database iterator {iterator} was erased")
        return entry

    # -- intrinsic-level API --------------------------------------------------
    def store(self, code: int, scope: int, table: int, payer: int,
              key: int, data: bytes) -> int:
        table_key = (code, scope, table)
        rows = self._tables.setdefault(table_key, {})
        if key in rows:
            raise ValueError(f"duplicate primary key {key}")
        rows[key] = _Row(key, payer, bytes(data))
        self.journal.append(DbOperation("write", *table_key, pkey=key,
                                        before=None, after=bytes(data)))
        return self._new_iterator(table_key, key)

    def find(self, code: int, scope: int, table: int, key: int) -> int:
        """Returns an iterator, or -1 when the key is absent."""
        table_key = (code, scope, table)
        self.journal.append(DbOperation("read", *table_key))
        rows = self._tables.get(table_key)
        if rows is None or key not in rows:
            return -1
        return self._new_iterator(table_key, key)

    def get(self, iterator: int) -> bytes:
        table_key, key = self._resolve(iterator)
        self.journal.append(DbOperation("read", *table_key))
        return self._tables[table_key][key].data

    def update(self, iterator: int, payer: int, data: bytes) -> None:
        table_key, key = self._resolve(iterator)
        row = self._tables[table_key][key]
        before = row.data
        row.data = bytes(data)
        if payer:
            row.payer = payer
        self.journal.append(DbOperation("write", *table_key, pkey=key,
                                        before=before,
                                        after=bytes(data)))

    def remove(self, iterator: int) -> None:
        table_key, key = self._resolve(iterator)
        before = self._tables[table_key][key].data
        del self._tables[table_key][key]
        self._iterators[iterator] = None
        self.journal.append(DbOperation("write", *table_key, pkey=key,
                                        before=before, after=None))

    def next(self, iterator: int) -> tuple[int, int]:
        """(next iterator, next key); (-1, 0) at the end of the table."""
        table_key, key = self._resolve(iterator)
        self.journal.append(DbOperation("read", *table_key))
        keys = sorted(self._tables[table_key])
        position = keys.index(key)
        if position + 1 >= len(keys):
            return -1, 0
        next_key = keys[position + 1]
        return self._new_iterator(table_key, next_key), next_key

    def lowerbound(self, code: int, scope: int, table: int,
                   key: int) -> tuple[int, int]:
        """First row with primary key >= ``key``; (-1, 0) if none."""
        table_key = (code, scope, table)
        self.journal.append(DbOperation("read", *table_key))
        rows = self._tables.get(table_key, {})
        candidates = sorted(k for k in rows if k >= key)
        if not candidates:
            return -1, 0
        return self._new_iterator(table_key, candidates[0]), candidates[0]

    # -- direct helpers (used by native contracts and tests) -------------------
    def get_row(self, code: int, scope: int, table: int,
                key: int) -> bytes | None:
        table_key = (code, scope, table)
        self.journal.append(DbOperation("read", *table_key))
        rows = self._tables.get(table_key)
        if rows is None or key not in rows:
            return None
        return rows[key].data

    def set_row(self, code: int, scope: int, table: int, payer: int,
                key: int, data: bytes) -> None:
        table_key = (code, scope, table)
        rows = self._tables.setdefault(table_key, {})
        previous = rows.get(key)
        rows[key] = _Row(key, payer, bytes(data))
        self.journal.append(DbOperation(
            "write", *table_key, pkey=key,
            before=None if previous is None else previous.data,
            after=bytes(data)))

    def export_state(self) -> dict[TableKey, dict[int, bytes]]:
        """A plain-bytes snapshot of every table, for invariant checks.

        Unlike :meth:`snapshot` this drops payer/iterator bookkeeping:
        it is the read surface of the ``data_consistency`` oracle
        family, not a restore point.
        """
        return {
            table_key: {k: row.data for k, row in rows.items()}
            for table_key, rows in self._tables.items()
        }

    # -- snapshot / rollback --------------------------------------------------
    def snapshot(self) -> dict:
        return {
            table_key: {k: _Row(r.key, r.payer, r.data)
                        for k, r in rows.items()}
            for table_key, rows in self._tables.items()
        }

    def restore(self, snapshot: dict) -> None:
        self._tables = {
            table_key: {k: _Row(r.key, r.payer, r.data)
                        for k, r in rows.items()}
            for table_key, rows in snapshot.items()
        }

    # -- journal management -----------------------------------------------------
    def drain_journal(self) -> list[DbOperation]:
        ops, self.journal = self.journal, []
        return ops
