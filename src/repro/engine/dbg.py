"""The database dependency graph (DBG, §3.3.2).

Records which action functions read and write which database tables;
the Engine uses it to resolve transaction dependency: when a seed's
action read a table it found empty (or asserted on), schedule a writer
of that table first.

The paper notes (§5) that the table-level granularity is deliberately
coarse; the FN mechanism that follows from it (multi-table actions) is
reproduced by the benchmark generator.
"""

from __future__ import annotations

from ..eosio.database import DbOperation

__all__ = ["DatabaseDependencyGraph"]


class DatabaseDependencyGraph:
    """A bipartite graph between action names and table keys.

    Only predecessors are ever asked for, so the graph is two maps: the
    actions that write each table, and the tables each action reads."""

    def __init__(self) -> None:
        self._writers: dict[tuple, set[str]] = {}
        self._reads: dict[str, set[tuple]] = {}

    def record(self, action_name: str, ops: list[DbOperation]) -> None:
        """Update the graph with one execution's database journal."""
        reads = self._reads.setdefault(action_name, set())
        for op in ops:
            if op.kind == "write":
                # action -> table: the action can populate the table.
                self._writers.setdefault(op.table_key, set()).add(
                    action_name)
            else:
                # table -> action: the action depends on the table.
                reads.add(op.table_key)

    def writers_of(self, table_key: tuple) -> list[str]:
        return sorted(self._writers.get(table_key, ()))

    def tables_read_by(self, action_name: str) -> list[tuple]:
        return sorted(self._reads.get(action_name, ()))

    def dependency_writers(self, action_name: str) -> list[str]:
        """Actions that write any table ``action_name`` reads — the
        φ2 candidates of §3.3.2."""
        writers: set[str] = set()
        for table_key in self.tables_read_by(action_name):
            writers.update(self.writers_of(table_key))
        writers.discard(action_name)
        return sorted(writers)
