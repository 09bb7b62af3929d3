"""Re-verdicting: replay scanner oracles over stored traces.

Fixing or adding an oracle used to mean re-fuzzing every module the
service ever scanned.  With trace-IR packs stored alongside verdicts
(:mod:`repro.traceir`), the sweep implemented here replaces that with
pure replay: for every stored trace, decode the pack, run the
registered detectors over it, and rewrite the verdict's scan doc with
``source: "replay"`` provenance — **zero** fuzzing, instrumentation or
solving.  Because campaigns are deterministic and the pack is the
detectors' exact read surface, an unchanged oracle set reproduces the
stored verdict byte-for-byte (modulo the provenance stamp); a changed
one shows up as counted, per-key **drift**.

The same machinery powers the background drift auditor
(:func:`audit_traces`): sample stored (trace, verdict) pairs on a
cadence, re-scan, and compare *without* rewriting — a mismatch under
an unchanged oracle version means a verdict or trace has rotted, and
is surfaced as a typed ``verdict_drift`` incident.

Corrupt trace blobs are never crashed on and never skipped silently:
the typed :class:`~repro.resilience.errors.TraceCorruption` is caught
per key, the blob is deleted, the key lands in the store's quarantine
table with the decoder's diagnosis, and the verdict is dropped so the
module is re-scannable from the module blob that is still stored.

Intact packs that simply *predate* the surface an enabled semantic
oracle family requires are a third outcome, distinct from both match
and drift: they are counted ``insufficient``, the trace and verdict
are dropped so a resubmission fuzzes fresh (with the richer capture),
and no drift incident is raised — the stored verdict never disagreed,
it just cannot be re-derived from what was stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..resilience.errors import TraceCorruption
from ..resilience.journal import _scan_to_doc
from ..scanner.oracles import ORACLE_VERSION
from ..semoracle.registry import InsufficientSurface, resolve_oracles
from ..traceir.codec import TRACEIR_VERSION
from ..traceir.pack import decode_pack, replay_scan

__all__ = ["ReverdictReport", "reverdict_store", "audit_traces"]


@dataclass
class ReverdictReport:
    """Outcome of one sweep (re-verdict or audit) over stored traces."""

    oracle_version: int
    traceir_version: int = TRACEIR_VERSION
    oracles: tuple = ()         # enabled family names, resolved
    replayed: int = 0           # traces decoded and re-scanned
    rewritten: int = 0          # verdicts rewritten with replay provenance
    matched: int = 0            # replay verdict == stored verdict
    drift: int = 0              # replay verdict != stored verdict
    corrupt: int = 0            # traces quarantined as TraceCorruption
    insufficient: int = 0       # intact packs lacking required surface
    orphaned: int = 0           # traces with no stored verdict to compare
    incidents: list = field(default_factory=list)

    def to_doc(self) -> dict:
        return {
            "oracle_version": self.oracle_version,
            "traceir_version": self.traceir_version,
            "oracles": list(self.oracles),
            "replayed": self.replayed,
            "rewritten": self.rewritten,
            "matched": self.matched,
            "drift": self.drift,
            "corrupt": self.corrupt,
            "insufficient": self.insufficient,
            "orphaned": self.orphaned,
            "incidents": list(self.incidents),
        }


def _quarantine_corrupt(store, key: str, module_hash: str,
                        exc: TraceCorruption,
                        report: ReverdictReport) -> None:
    """Handle one undecodable trace: quarantine, drop, re-scannable."""
    store.put_quarantine(key, module_hash, [f"trace corruption: {exc}"])
    store.delete_trace(key)
    # Dropping the verdict is what makes the module *re-scannable*: a
    # resubmission misses the dedup cache and fuzzes fresh, instead of
    # serving a verdict whose evidence can no longer be audited.
    store.delete_verdict(key)
    report.corrupt += 1
    report.incidents.append({
        "kind": "trace_corruption",
        "scan_key": key,
        "module_hash": module_hash,
        "detail": str(exc),
    })


def _requeue_insufficient(store, key: str, module_hash: str,
                          exc: InsufficientSurface,
                          report: ReverdictReport) -> None:
    """Handle one intact-but-too-old pack: drop, count, re-queue.

    Deliberately *not* quarantined: nothing is wrong with the module
    or the blob.  Dropping the trace and the verdict makes the module
    re-scannable — a resubmission misses the dedup cache and fuzzes
    fresh, capturing the richer surface the enabled families need.
    """
    store.delete_trace(key)
    store.delete_verdict(key)
    report.insufficient += 1
    report.incidents.append({
        "kind": "insufficient_surface",
        "scan_key": key,
        "module_hash": module_hash,
        "detail": str(exc),
        "missing": sorted(exc.missing),
    })


def _examine(store, key: str, report: ReverdictReport,
             extra_detectors=(),
             oracles=None) -> "tuple[dict, dict, dict] | None":
    """Replay one stored trace and compare it with the stored verdict.

    Counts the outcome on ``report`` (matched, or drift with its
    incident) and returns ``(trace_row, replay_scan_doc,
    verdict_record)``; None when the key was consumed (corrupt and
    quarantined, insufficient and re-queued, or already gone) or has
    no verdict to compare (orphaned).
    """
    row = store.get_trace(key)
    if row is None:
        return None
    try:
        scan_doc = _scan_to_doc(replay_scan(decode_pack(row["blob"]),
                                            extra_detectors,
                                            oracles=oracles))
    except TraceCorruption as exc:
        _quarantine_corrupt(store, key, row["module_hash"], exc, report)
        return None
    except InsufficientSurface as exc:
        _requeue_insufficient(store, key, row["module_hash"], exc,
                              report)
        return None
    report.replayed += 1
    record = store.verdict_record(key)
    if record is None:
        report.orphaned += 1
        return None
    old_scan = record["result"].get("scans", {}).get(row["tool"])
    if old_scan == scan_doc:
        report.matched += 1
    else:
        report.drift += 1
        report.incidents.append({
            "kind": "verdict_drift",
            "scan_key": key,
            "module_hash": row["module_hash"],
            "tool": row["tool"],
            "before": old_scan,
            "after": scan_doc,
        })
    return row, scan_doc, record


def reverdict_store(store, oracle_version: int | None = None,
                    extra_detectors=(), oracles=None) -> ReverdictReport:
    """Replay the oracles over every stored trace; rewrite verdicts.

    ``oracle_version`` is what the rewritten provenance records
    (default: the registered :data:`ORACLE_VERSION`).  ``oracles``
    selects the enabled families (None = the paper's five — the one
    set every stored pack can satisfy).  Each rewritten verdict keeps
    everything the fresh campaign reported except its scan doc, which
    is replaced by the replay's, and its provenance::

        {"oracle_version": N, "traceir_version": V,
         "oracles": [...], "source": "replay"}

    Drift (the replay disagreeing with the stored scan doc) is
    expected when the oracle set changed and alarming when it did not;
    either way it is counted and itemised, never silently absorbed.
    A pack that cannot satisfy an enabled family's required surface
    is counted ``insufficient`` and re-queued for a fresh scan — it
    is never compared, so it can never masquerade as drift.
    """
    version = ORACLE_VERSION if oracle_version is None else oracle_version
    report = ReverdictReport(oracle_version=version,
                             oracles=resolve_oracles(oracles))
    for key in store.trace_keys():
        examined = _examine(store, key, report, extra_detectors,
                            oracles=oracles)
        if examined is None:
            continue
        row, scan_doc, record = examined
        result_doc = dict(record["result"])
        result_doc["scans"] = dict(result_doc.get("scans", {}))
        result_doc["scans"][row["tool"]] = scan_doc
        result_doc["provenance"] = {
            "oracle_version": version,
            "traceir_version": row["traceir_version"],
            "oracles": list(report.oracles), "source": "replay"}
        store.put_verdict(key, record["module_hash"],
                          record["config"], result_doc)
        report.rewritten += 1
    return report


def audit_traces(store, sample: int = 4, cursor: int = 0,
                 extra_detectors=(),
                 oracles=None) -> tuple[ReverdictReport, int]:
    """One drift-audit round: replay up to ``sample`` stored traces
    and compare against their verdicts without rewriting anything.

    ``cursor`` rotates deterministically through the key space across
    rounds so every stored pair is eventually audited; returns
    ``(report, next_cursor)``.  Corrupt traces get the full quarantine
    treatment even in audit mode — an undecodable blob must never
    survive to the next round.
    """
    report = ReverdictReport(oracle_version=ORACLE_VERSION,
                             oracles=resolve_oracles(oracles))
    keys = store.trace_keys()
    if not keys:
        return report, 0
    cursor %= len(keys)
    for key in (keys[(cursor + i) % len(keys)]
                for i in range(min(sample, len(keys)))):
        _examine(store, key, report, extra_detectors, oracles=oracles)
    return report, (cursor + min(sample, len(keys))) % len(keys)
