"""Checkpoint/resume journal for corpus-scale evaluations.

An append-only JSONL file: one line per *completed* campaign task,
keyed by a hash of everything that determines the task's result (the
module's content fingerprint, the tool set, the virtual budget, the
RNG seed, the address-pool flag).  Because campaigns are deterministic
in that key, a journaled result can be reused verbatim: a resumed run
skips the journaled samples and still produces tables byte-identical
to an uninterrupted run.

The format is crash-tolerant by construction — a run killed mid-write
leaves at most one truncated final line, which :meth:`load` skips.
Unknown versions and malformed lines are ignored rather than fatal, so
a journal can survive format evolution across PRs.

This module deliberately imports nothing from the rest of the package
at import time (the campaign layer imports :mod:`repro.resilience`).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from pathlib import Path

__all__ = ["CampaignJournal", "campaign_task_key",
           "campaign_result_to_doc", "campaign_result_from_doc"]

_VERSION = 1


class CampaignJournal:
    """Append-only JSONL of completed campaign results."""

    def __init__(self, path: "str | Path"):
        self.path = Path(path)

    def load(self) -> dict[str, dict]:
        """All readable entries, last-wins per key.  Only complete
        lines count (a torn tail is skipped), and so do malformed
        lines, foreign versions and lines without a key."""
        try:
            blob = self.path.read_bytes()
        except OSError:
            return {}
        entries = {}
        for line in blob[:blob.rfind(b"\n") + 1].splitlines():
            try:
                doc = json.loads(line)
            except ValueError:  # incl. UnicodeDecodeError
                continue
            if isinstance(doc, dict) and doc.get("v") == _VERSION \
                    and isinstance(doc.get("key"), str):
                entries[doc["key"]] = doc
        return entries

    def record(self, key: str, result_doc: dict) -> None:
        """Append one completed result (flushed line-atomically).

        The write passes the ``journal`` fault-injection chokepoint so
        chaos schedules can simulate a full disk / failing fsync; a
        real ``OSError`` propagates typed to the caller the same way.
        """
        from .faultinject import inject
        inject("journal")
        doc = {"v": _VERSION, "key": key, "result": result_doc}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, sort_keys=True) + "\n")
            handle.flush()

    def compact(self) -> int:
        """Rewrite the journal keeping only the last-wins line per key.

        An append-only journal under a long-lived service grows without
        bound (every rewrite or drop of a key appends a line, even when
        it supersedes an earlier one).
        Compaction is crash-safe: the survivors are written to a
        sibling temp file which atomically replaces the journal, so a
        kill mid-compaction leaves either the old file or the new one,
        never a mix.  Returns how many lines were dropped.
        """
        if not self.path.exists():
            return 0
        entries = self.load()
        before = sum(1 for line in self.path.read_bytes().splitlines()
                     if line.strip())
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        with open(tmp, "w", encoding="utf-8") as handle:
            for doc in entries.values():
                handle.write(json.dumps(doc, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        return max(0, before - len(entries))


def campaign_task_key(task) -> str:
    """The resume key of one :class:`~repro.parallel.CampaignTask`.

    The enabled oracle-family set is key material only when it differs
    from the default paper-five — a task that never asked for semantic
    families hashes byte-identically to a pre-semantic build, so
    existing journals and artifact stores keep deduplicating.
    """
    from ..engine.deploy import module_content_hash
    parts = [
        module_content_hash(task.module),
        ",".join(task.tools),
        f"{task.timeout_ms:g}",
        str(task.rng_seed),
        str(bool(task.address_pool)),
        str(bool(getattr(task, "divergence_check", True))),
    ]
    oracles = getattr(task, "oracles", None)
    if oracles is not None:
        from ..semoracle.registry import PAPER5, resolve_oracles
        resolved = resolve_oracles(oracles)
        if resolved != PAPER5:
            parts.append("oracles=" + ",".join(resolved))
    material = "|".join(parts)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


# -- CampaignResult <-> JSON -------------------------------------------------

def _scan_to_doc(scan) -> dict:
    doc = {
        "account": scan.target_account,
        "findings": {
            vuln_type: {"detected": finding.detected,
                        "evidence": finding.evidence}
            for vuln_type, finding in scan.findings.items()
        },
    }
    if scan.divergences:
        doc["divergences"] = list(scan.divergences)
    return doc


def _scan_from_doc(doc: dict):
    from ..scanner.detectors import ScanResult, VulnerabilityFinding
    scan = ScanResult(target_account=doc["account"])
    scan.divergences = list(doc.get("divergences", ()))
    for vuln_type, finding in doc.get("findings", {}).items():
        scan.findings[vuln_type] = VulnerabilityFinding(
            vuln_type, bool(finding.get("detected")),
            finding.get("evidence", ""))
    return scan


def campaign_result_to_doc(result) -> dict:
    return {
        "scans": {tool: _scan_to_doc(scan)
                  for tool, scan in result.scans.items()},
        "stage_seconds": dict(result.stage_seconds),
        "errors": dict(result.errors),
        "degraded": list(result.degraded),
        "retries": result.retries,
        "coverage": {tool: dict(summary)
                     for tool, summary in result.coverage.items()},
    } | ({"traces": {tool: base64.b64encode(blob).decode("ascii")
                     for tool, blob in result.traces.items()}}
         if getattr(result, "traces", None) else {}) \
      | ({"provenance": dict(result.provenance)}
         if getattr(result, "provenance", None) else {})


def campaign_result_from_doc(doc: dict):
    from ..parallel.campaigns import CampaignResult
    return CampaignResult(
        scans={tool: _scan_from_doc(scan)
               for tool, scan in doc.get("scans", {}).items()},
        stage_seconds=dict(doc.get("stage_seconds", {})),
        errors=dict(doc.get("errors", {})),
        degraded=tuple(doc.get("degraded", ())),
        retries=doc.get("retries", 0),
        coverage=dict(doc.get("coverage", {})),
        traces={tool: base64.b64decode(text)
                for tool, text in doc.get("traces", {}).items()},
        provenance=(dict(doc["provenance"])
                    if doc.get("provenance") else None),
    )
