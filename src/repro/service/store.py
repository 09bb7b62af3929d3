"""SQLite-backed, content-addressed artifact store for the scan service.

The store is the service's memory across requests *and* across process
restarts, and the only durable interface the scheduler uses: uploaded
modules, scan verdicts, coverage timelines, trace-IR packs, quarantine
records and drain checkpoints all live in one SQLite file, keyed by the
same identities the rest of the pipeline already uses —

* modules by :func:`~repro.engine.module_content_hash` (the canonical
  ``sha256(encode_module(...))`` digest shared with the checkpoint
  journal), and
* verdicts by :func:`~repro.resilience.campaign_task_key` (module hash
  + tool + virtual budget + RNG seed + flags — everything that
  determines a campaign's result).

Because campaigns are deterministic in that key, a stored verdict can
be served for a resubmitted identical module+config without re-fuzzing
and is guaranteed byte-identical to what a fresh campaign would
produce.  Verdicts are stored as the journal's ``CampaignResult`` JSON
docs, so the store and the batch checkpoint journal can never drift
apart in what a "result" means.

A file store also appends every verdict write, rewrite and drop to a
sibling ``<store>.jsonl`` verdict log (a
:class:`~repro.resilience.CampaignJournal`): the one history that
:meth:`ArtifactStore.replay` rebuilds a quarantined database from.
The ``pending`` table holds graceful-drain checkpoints.

Integrity: every row carries an end-to-end sha256 content checksum
(:func:`~repro.service.integrity.content_checksum` over the row's key
+ payload), written at insert and verified on every read — a silently
bit-flipped page or a hand-edited row surfaces as a typed
:class:`~repro.service.integrity.StoreCorruption` instead of a wrong
verdict, and :meth:`ArtifactStore.verify_integrity` sweeps the whole
database on demand.  ``sqlite3.DatabaseError`` (malformed database
image) is lifted into the same type.  Writes pass a disk-budget guard
(``max_bytes``) that raises typed
:class:`~repro.service.integrity.StoreBudgetExceeded` backpressure
instead of crashing into a full disk; the guard doubles as the
``disk`` fault-injection chokepoint for chaos drills.

SQLite specifics: one connection (``check_same_thread=False``) behind
an ``RLock`` — the daemon serves concurrent HTTP threads; WAL mode so
readers never block the writer; the lock also orders log appends
against compaction.  ``path=":memory:"`` gives the tests a throwaway
store with no log.  Older files without row checksums are migrated in
place: the ``checksum`` column is added and backfilled on open.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path

from ..resilience.errors import CampaignError
from ..resilience.faultinject import inject, should_corrupt
from ..resilience.journal import CampaignJournal
from .integrity import (StoreBudgetExceeded, StoreCorruption,
                        content_checksum)

__all__ = ["ArtifactStore"]


def _oracle_version(doc: dict) -> int:
    """The oracle version in a verdict doc's (or drop line's)
    provenance; 0 when unstamped."""
    provenance = doc.get("provenance")
    version = provenance.get("oracle_version") \
        if isinstance(provenance, dict) else None
    return version if isinstance(version, int) else 0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS modules (
    content_hash TEXT PRIMARY KEY,
    size         INTEGER NOT NULL,
    data         BLOB NOT NULL,
    created_s    REAL NOT NULL,
    checksum     TEXT
);
CREATE TABLE IF NOT EXISTS verdicts (
    scan_key     TEXT PRIMARY KEY,
    module_hash  TEXT NOT NULL,
    config       TEXT NOT NULL,
    result       TEXT NOT NULL,
    created_s    REAL NOT NULL,
    checksum     TEXT
);
CREATE TABLE IF NOT EXISTS coverage (
    scan_key     TEXT PRIMARY KEY,
    timeline     TEXT NOT NULL,
    created_s    REAL NOT NULL,
    checksum     TEXT
);
CREATE TABLE IF NOT EXISTS quarantine (
    scan_key     TEXT PRIMARY KEY,
    module_hash  TEXT NOT NULL,
    reasons      TEXT NOT NULL,
    created_s    REAL NOT NULL,
    checksum     TEXT
);
CREATE TABLE IF NOT EXISTS traces (
    scan_key        TEXT PRIMARY KEY,
    module_hash     TEXT NOT NULL,
    tool            TEXT NOT NULL,
    traceir_version INTEGER NOT NULL,
    size            INTEGER NOT NULL,
    blob            BLOB NOT NULL,
    created_s       REAL NOT NULL,
    checksum        TEXT
);
CREATE TABLE IF NOT EXISTS pending (
    scan_key     TEXT PRIMARY KEY,
    recipe       TEXT NOT NULL,
    created_s    REAL NOT NULL,
    checksum     TEXT
);
"""

_TABLES = ("modules", "verdicts", "coverage", "quarantine", "traces",
           "pending")


class ArtifactStore:
    """Persistent artifacts of every scan the service has ever run."""

    def __init__(self, path: "str | Path" = ":memory:",
                 max_bytes: int | None = None):
        self.path = str(path)
        self.max_bytes = max_bytes
        self.log: CampaignJournal | None = None
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
            self.log = CampaignJournal(self.path + ".jsonl")
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self.path,
                                     check_same_thread=False)
        try:
            with self._lock, self._conn:
                if self.path != ":memory:":
                    self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.executescript(_SCHEMA)
                self._migrate()
        except sqlite3.DatabaseError as exc:
            # A mangled database image fails at open time, before any
            # row read; the typed error routes it into the service's
            # quarantine-and-rebuild path like row corruption would.
            raise StoreCorruption(
                f"cannot open store {self.path!r}: {exc}") from exc

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- integrity plumbing ------------------------------------------------
    def _migrate(self) -> None:
        """Add + backfill the checksum column on pre-checksum stores
        (the CREATE above only covers fresh databases)."""
        for table in _TABLES:
            columns = [row[1] for row in self._conn.execute(
                f"PRAGMA table_info({table})")]
            if "checksum" not in columns:
                self._conn.execute(
                    f"ALTER TABLE {table} ADD COLUMN checksum TEXT")
        for hash_, data in self._conn.execute(
                "SELECT content_hash, data FROM modules "
                "WHERE checksum IS NULL").fetchall():
            self._conn.execute(
                "UPDATE modules SET checksum = ? WHERE content_hash = ?",
                (content_checksum(hash_, bytes(data)), hash_))
        for key, blob in self._conn.execute(
                "SELECT scan_key, blob FROM traces "
                "WHERE checksum IS NULL").fetchall():
            self._conn.execute(
                "UPDATE traces SET checksum = ? WHERE scan_key = ?",
                (content_checksum(key, bytes(blob)), key))
        for table, key_col, payload_col in (
                ("verdicts", "scan_key", "result"),
                ("coverage", "scan_key", "timeline"),
                ("quarantine", "scan_key", "reasons")):
            for key, payload in self._conn.execute(
                    f"SELECT {key_col}, {payload_col} FROM {table} "
                    "WHERE checksum IS NULL").fetchall():
                self._conn.execute(
                    f"UPDATE {table} SET checksum = ? "
                    f"WHERE {key_col} = ?",
                    (content_checksum(key, payload), key))

    def _write_checksum(self, *parts: "bytes | str") -> str:
        """The checksum to store for a new row — deliberately wrong
        when a ``store``-scope corruption fault is armed, so chaos
        tests can seed a detectable defect through the real path."""
        checksum = content_checksum(*parts)
        if should_corrupt("store"):
            return "corrupt:" + checksum
        return checksum

    def _verify(self, table: str, key: str, stored: "str | None",
                *parts: "bytes | str") -> None:
        if stored is not None and stored != content_checksum(*parts):
            raise StoreCorruption(
                f"checksum mismatch in {table} row {key!r}",
                table=table, key=key)

    def _guard_write(self, incoming: int) -> None:
        """Disk-budget guard (and the ``disk`` chaos chokepoint)."""
        try:
            inject("disk")
        except CampaignError as exc:
            raise StoreBudgetExceeded(
                f"store write refused: {exc}",
                used_bytes=self.size_bytes(),
                budget_bytes=self.max_bytes or 0) from exc
        if self.max_bytes is not None \
                and self.size_bytes() + incoming > self.max_bytes:
            raise StoreBudgetExceeded(
                f"store at {self.size_bytes()} bytes; writing "
                f"{incoming} more would exceed the {self.max_bytes}"
                f"-byte budget",
                used_bytes=self.size_bytes(),
                budget_bytes=self.max_bytes)

    def size_bytes(self) -> int:
        with self._lock:
            pages = self._conn.execute(
                "PRAGMA page_count").fetchone()[0]
            page_size = self._conn.execute(
                "PRAGMA page_size").fetchone()[0]
        return int(pages) * int(page_size)

    def _execute(self, sql: str, params: tuple = ()):
        """Run one statement, lifting driver-level corruption into the
        typed :class:`StoreCorruption` the scheduler heals from."""
        try:
            return self._conn.execute(sql, params)
        except sqlite3.DatabaseError as exc:
            raise StoreCorruption(f"sqlite failure: {exc}") from exc

    # -- modules -----------------------------------------------------------
    def put_module(self, content_hash: str, data: bytes) -> None:
        """Store the raw uploaded bytes under the module's canonical
        content hash (idempotent; first write wins)."""
        self._guard_write(len(data))
        with self._lock, self._conn:
            self._execute(
                "INSERT OR IGNORE INTO modules "
                "(content_hash, size, data, created_s, checksum) "
                "VALUES (?, ?, ?, ?, ?)",
                (content_hash, len(data), data, time.time(),
                 self._write_checksum(content_hash, data)))

    def get_module(self, content_hash: str) -> bytes | None:
        with self._lock:
            row = self._execute(
                "SELECT data, checksum FROM modules "
                "WHERE content_hash = ?", (content_hash,)).fetchone()
        if not row:
            return None
        data = bytes(row[0])
        self._verify("modules", content_hash, row[1], content_hash,
                     data)
        return data

    # -- verdicts ----------------------------------------------------------
    def put_verdict(self, scan_key: str, module_hash: str,
                    config: dict, result_doc: dict) -> None:
        """Record one completed campaign's result doc (last wins: a
        re-verdict sweep rewrites it with replay provenance)."""
        verdict = {"module_hash": module_hash, "config": dict(config),
                   "result": result_doc}
        self._set_verdict(scan_key, verdict, {"verdict": verdict})

    def delete_verdict(self, scan_key: str) -> None:
        """Drop one verdict (marks the module re-scannable after its
        backing trace was quarantined).  The log line keeps the dropped
        row's provenance, so a replay drops only a row no newer."""
        held = self.get_verdict(scan_key) or {}
        self._set_verdict(scan_key, None, {
            "verdict": None, "provenance": held.get("provenance")})

    def _set_verdict(self, scan_key: str, verdict: "dict | None",
                     entry: "dict | None" = None) -> None:
        """Write, or for ``None`` drop, one verdict row; with a log
        ``entry`` also append it to the verdict log, so a rebuild
        cannot bring back an older state."""
        with self._lock:
            if verdict is None:
                with self._conn:
                    self._execute(
                        "DELETE FROM verdicts WHERE scan_key = ?",
                        (scan_key,))
            else:
                result_json = json.dumps(verdict["result"],
                                         sort_keys=True)
                self._guard_write(len(result_json))
                with self._conn:
                    self._execute(
                        "INSERT OR REPLACE INTO verdicts "
                        "(scan_key, module_hash, config, result, "
                        "created_s, checksum) VALUES (?, ?, ?, ?, ?, ?)",
                        (scan_key, verdict["module_hash"],
                         json.dumps(verdict["config"], sort_keys=True),
                         result_json, time.time(),
                         self._write_checksum(scan_key, result_json)))
            if entry is not None and self.log is not None:
                try:
                    self.log.record(scan_key, entry)
                except OSError:
                    pass  # the row stands; a rebuild would miss it

    def verdict_record(self, scan_key: str) -> dict | None:
        """The full verdict row (module hash + config + result doc),
        checksum-verified — what a re-verdict sweep rewrites."""
        with self._lock:
            row = self._execute(
                "SELECT module_hash, config, result, checksum "
                "FROM verdicts WHERE scan_key = ?",
                (scan_key,)).fetchone()
        if not row:
            return None
        self._verify("verdicts", scan_key, row[3], scan_key, row[2])
        return {"scan_key": scan_key, "module_hash": row[0],
                "config": json.loads(row[1]),
                "result": json.loads(row[2])}

    def get_verdict(self, scan_key: str) -> dict | None:
        """The stored ``CampaignResult`` doc, or None on a miss."""
        with self._lock:
            row = self._execute(
                "SELECT result, checksum FROM verdicts "
                "WHERE scan_key = ?", (scan_key,)).fetchone()
        if not row:
            return None
        self._verify("verdicts", scan_key, row[1], scan_key, row[0])
        return json.loads(row[0])

    # -- coverage timelines ------------------------------------------------
    def put_coverage(self, scan_key: str, coverage: dict) -> None:
        timeline = json.dumps(coverage, sort_keys=True)
        self._guard_write(len(timeline))
        with self._lock, self._conn:
            self._execute(
                "INSERT OR REPLACE INTO coverage "
                "(scan_key, timeline, created_s, checksum) "
                "VALUES (?, ?, ?, ?)",
                (scan_key, timeline, time.time(),
                 self._write_checksum(scan_key, timeline)))

    def get_coverage(self, scan_key: str) -> dict | None:
        with self._lock:
            row = self._execute(
                "SELECT timeline, checksum FROM coverage "
                "WHERE scan_key = ?", (scan_key,)).fetchone()
        if not row:
            return None
        self._verify("coverage", scan_key, row[1], scan_key, row[0])
        return json.loads(row[0])

    # -- trace IR blobs ----------------------------------------------------
    def put_trace(self, scan_key: str, module_hash: str, tool: str,
                  blob: bytes, traceir_version: int | None = None) -> None:
        """Store one campaign's encoded trace-IR pack alongside its
        verdict (same key).  Checksummed like every other row and
        counted against the disk budget; last write wins."""
        if traceir_version is None:
            from ..traceir.codec import TRACEIR_VERSION
            traceir_version = TRACEIR_VERSION
        blob = bytes(blob)
        self._guard_write(len(blob))
        with self._lock, self._conn:
            self._execute(
                "INSERT OR REPLACE INTO traces "
                "(scan_key, module_hash, tool, traceir_version, size, "
                "blob, created_s, checksum) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (scan_key, module_hash, tool, traceir_version,
                 len(blob), blob, time.time(),
                 self._write_checksum(scan_key, blob)))

    def get_trace(self, scan_key: str) -> dict | None:
        """The stored trace row, or None.  Row-level corruption (a
        flipped page) surfaces as :class:`StoreCorruption`; blob-level
        damage is the trace IR decoder's to judge."""
        with self._lock:
            row = self._execute(
                "SELECT module_hash, tool, traceir_version, blob, "
                "checksum FROM traces WHERE scan_key = ?",
                (scan_key,)).fetchone()
        if not row:
            return None
        blob = bytes(row[3])
        self._verify("traces", scan_key, row[4], scan_key, blob)
        return {"scan_key": scan_key, "module_hash": row[0],
                "tool": row[1], "traceir_version": row[2],
                "blob": blob}

    def trace_keys(self) -> list[str]:
        with self._lock:
            rows = self._execute(
                "SELECT scan_key FROM traces ORDER BY scan_key")
            return [row[0] for row in rows.fetchall()]

    def delete_trace(self, scan_key: str) -> None:
        with self._lock, self._conn:
            self._execute("DELETE FROM traces WHERE scan_key = ?",
                          (scan_key,))

    # -- quarantine records ------------------------------------------------
    def put_quarantine(self, scan_key: str, module_hash: str,
                       reasons: list[str]) -> None:
        reasons_json = json.dumps(list(reasons))
        self._guard_write(len(reasons_json))
        with self._lock, self._conn:
            self._execute(
                "INSERT OR REPLACE INTO quarantine "
                "(scan_key, module_hash, reasons, created_s, checksum) "
                "VALUES (?, ?, ?, ?, ?)",
                (scan_key, module_hash, reasons_json, time.time(),
                 self._write_checksum(scan_key, reasons_json)))

    def get_quarantine(self, scan_key: str) -> list[str] | None:
        with self._lock:
            row = self._execute(
                "SELECT reasons, checksum FROM quarantine "
                "WHERE scan_key = ?", (scan_key,)).fetchone()
        if not row:
            return None
        self._verify("quarantine", scan_key, row[1], scan_key, row[0])
        return json.loads(row[0])

    def quarantined_keys(self) -> list[str]:
        with self._lock:
            rows = self._execute(
                "SELECT scan_key FROM quarantine ORDER BY scan_key")
            return [row[0] for row in rows.fetchall()]

    # -- drain checkpoints -------------------------------------------------
    def put_pending(self, scan_key: str, recipe: dict) -> None:
        """Checkpoint one still-queued job's resubmission recipe.  Not
        held to the disk budget: refusing it at shutdown would lose
        the queued job, which costs more than a small row over budget."""
        recipe_json = json.dumps(recipe, sort_keys=True)
        with self._lock, self._conn:
            self._execute(
                "INSERT OR REPLACE INTO pending "
                "(scan_key, recipe, created_s, checksum) "
                "VALUES (?, ?, ?, ?)",
                (scan_key, recipe_json, time.time(),
                 self._write_checksum(scan_key, recipe_json)))

    def pending(self) -> list[tuple[str, dict]]:
        """Every drain checkpoint as ``(scan_key, recipe)``, oldest
        first, checksum-verified."""
        with self._lock:
            rows = self._execute(
                "SELECT scan_key, recipe, checksum FROM pending "
                "ORDER BY created_s, scan_key").fetchall()
        out = []
        for key, recipe_json, stored in rows:
            self._verify("pending", key, stored, key, recipe_json)
            out.append((key, json.loads(recipe_json)))
        return out

    def delete_pending(self, scan_key: str) -> None:
        with self._lock, self._conn:
            self._execute("DELETE FROM pending WHERE scan_key = ?",
                          (scan_key,))

    # -- verdict log: replay, compaction ------------------------------------
    def replay(self, entries=None) -> int:
        """Bring every scan key in ``entries`` (verdict-log lines in
        log order; default: this store's own log, which is how a
        rebuilt store restores itself) to its last logged state.

        A logged write lands on an absent key, or on a held row it
        re-verdicts (``source: "replay"`` at a higher oracle version);
        a logged drop removes a held row no newer than the one dropped.
        So no older line reverts a re-verdict, and a second replay of a
        history applies nothing.  Never writes the log; returns how
        many keys changed."""
        if entries is None:
            entries = self.log.load().values() if self.log else ()
        last: dict[str, dict] = {}
        for doc in entries:
            inner = doc.get("result") if isinstance(doc, dict) else None
            if isinstance(inner, dict) and "verdict" in inner \
                    and isinstance(doc.get("key"), str):
                last[doc["key"]] = inner
        applied = 0
        for key, inner in last.items():
            held, verdict = self.get_verdict(key), inner["verdict"]
            if isinstance(verdict, dict) \
                    and isinstance(verdict.get("result"), dict):
                result = verdict["result"]
                # (a version above the held one implies a provenance dict)
                if held is not None and (
                        _oracle_version(result) <= _oracle_version(held)
                        or result["provenance"].get("source") != "replay"):
                    continue
                verdict = {"module_hash": str(verdict.get("module_hash",
                                                          "")),
                           "config": verdict.get("config") or {},
                           "result": result}
            elif verdict is not None or held is None \
                    or _oracle_version(held) > _oracle_version(inner):
                continue
            try:
                self._set_verdict(key, verdict)
            except StoreBudgetExceeded:
                break
            applied += 1
        return applied

    def compact_log(self) -> int:
        """Drop superseded verdict-log lines; returns how many."""
        if self.log is None:
            return 0
        with self._lock:
            return self.log.compact()

    # -- integrity sweep ---------------------------------------------------
    def verify_integrity(self) -> dict[str, dict]:
        """Recompute every row's checksum; returns a per-table report
        ``{"rows": n, "corrupt": [keys...]}``.  Raises
        :class:`StoreCorruption` if SQLite itself cannot read the
        database (malformed image)."""
        specs = (
            ("modules", "content_hash", "data",
             lambda key, payload: (key, bytes(payload))),
            ("verdicts", "scan_key", "result",
             lambda key, payload: (key, payload)),
            ("coverage", "scan_key", "timeline",
             lambda key, payload: (key, payload)),
            ("quarantine", "scan_key", "reasons",
             lambda key, payload: (key, payload)),
            ("traces", "scan_key", "blob",
             lambda key, payload: (key, bytes(payload))),
            ("pending", "scan_key", "recipe",
             lambda key, payload: (key, payload)),
        )
        report: dict[str, dict] = {}
        with self._lock:
            for table, key_col, payload_col, parts in specs:
                rows = self._execute(
                    f"SELECT {key_col}, {payload_col}, checksum "
                    f"FROM {table}").fetchall()
                corrupt = [
                    key for key, payload, stored in rows
                    if stored is not None
                    and stored != content_checksum(*parts(key, payload))
                ]
                report[table] = {"rows": len(rows), "corrupt": corrupt}
        return report

    # -- accounting --------------------------------------------------------
    def counts(self) -> dict[str, int]:
        out = {}
        with self._lock:
            for table in _TABLES:
                row = self._execute(
                    f"SELECT COUNT(*) FROM {table}").fetchone()
                out[table] = row[0]
        return out
