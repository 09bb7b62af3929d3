"""The RQ4 in-the-wild study as a reusable pipeline (§4.4).

Runs WASAI over a corpus of deployed-contract stand-ins, aggregates
the per-class counts and the maintenance statistics (still operating /
patched / exposed) the paper reports, and formats the summary.  Used
by ``benchmarks/test_rq4_wild.py`` and ``examples/wild_study.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .benchgen.corpus import WildContract, build_wild_corpus
from .metrics import ThroughputStats
from .parallel import CampaignTask, run_campaign_task
from .resilience import ResiliencePolicy, run_resilient_tasks
from .scanner import ScanResult, VULN_TITLES

__all__ = ["WildStudyResult", "run_wild_study", "format_wild_study"]


@dataclass
class WildStudyResult:
    """Aggregated outcome of one wild-corpus scan."""

    total: int
    scans: list[tuple[WildContract, ScanResult]]
    # Contracts with no usable scan (crash/timeout/quarantine), as
    # (sample key, reason) — reported, never silently dropped.
    skipped: list[tuple[str, str]] = field(default_factory=list)
    # Contracts whose campaign tripped the divergence sentinel, as
    # (sample key, first alarm) — their findings are not counted.
    divergent: list[tuple[str, str]] = field(default_factory=list)

    # -- aggregates --------------------------------------------------------
    @property
    def flagged(self) -> list[tuple[WildContract, ScanResult]]:
        return [(entry, scan) for entry, scan in self.scans
                if scan.is_vulnerable()]

    @property
    def flagged_fraction(self) -> float:
        return len(self.flagged) / max(self.total, 1)

    def per_type_counts(self) -> dict[str, int]:
        return {vuln_type: sum(1 for _, scan in self.scans
                               if scan.detected(vuln_type))
                for vuln_type in VULN_TITLES}

    @property
    def still_operating(self) -> list[WildContract]:
        return [entry for entry, _ in self.flagged
                if entry.still_operating]

    @property
    def patched(self) -> list[WildContract]:
        return [entry for entry in self.still_operating
                if entry.patched_later]

    @property
    def exposed_count(self) -> int:
        return len(self.still_operating) - len(self.patched)

    def ground_truth_agreement(self) -> float:
        agree = total = 0
        for entry, scan in self.scans:
            for vuln_type, truth in entry.ground_truth.items():
                agree += int(scan.detected(vuln_type) == truth)
                total += 1
        return agree / max(total, 1)


def run_wild_study(scale: float = 0.05, timeout_ms: float = 20_000.0,
                   seed: int = 991, rng_base: int = 3000,
                   address_pool: bool = False, jobs: int = 1,
                   task_timeout_s: float | None = None,
                   perf: ThroughputStats | None = None,
                   policy: ResiliencePolicy | None = None,
                   journal: "str | None" = None,
                   resume: bool = False) -> WildStudyResult:
    """Scan the wild corpus with WASAI and aggregate the findings.

    ``jobs`` > 1 runs the independent campaigns on a worker pool (see
    :mod:`repro.parallel`); each contract keeps its deterministic
    ``rng_base + index`` seed, so the aggregate is identical to a
    serial run.  A crashed or timed-out campaign is retried and, if it
    keeps failing, quarantined under ``policy`` and reported in
    ``WildStudyResult.skipped`` (it contributes an empty scan so the
    aggregate fractions stay conservative).  ``journal``/``resume``
    checkpoint completed campaigns exactly as in
    :func:`repro.harness.evaluate_corpus`.
    """
    policy = policy or ResiliencePolicy()
    corpus = build_wild_corpus(scale=scale, seed=seed)
    tasks = [CampaignTask(entry.contract.module, entry.contract.abi,
                          ("wasai",), timeout_ms, rng_base + index,
                          address_pool=address_pool, policy=policy,
                          sample_key=f"wild[{index}]")
             for index, entry in enumerate(corpus)]
    wall_started = time.perf_counter()
    run = run_resilient_tasks(run_campaign_task, tasks, jobs=jobs,
                              timeout_s=task_timeout_s, policy=policy,
                              journal=journal, resume=resume)
    wall_s = time.perf_counter() - wall_started
    scans = []
    skipped: list[tuple[str, str]] = []
    divergent: list[tuple[str, str]] = []
    for index, (entry, result) in enumerate(zip(corpus, run.results)):
        reason = run.skip_reason(index)
        if reason is None and result.value.scans.get("wasai") is None:
            error = result.value.errors.get("wasai", {})
            reason = error.get("message", "campaign failed")
        if reason is not None:
            skipped.append((tasks[index].sample_key, reason))
            scans.append((entry, ScanResult(target_account=0)))
            continue
        scan = result.value.scans["wasai"]
        if scan.divergences:
            # Untrustworthy trace: contribute an empty scan so the
            # aggregate fractions stay conservative, and report it.
            divergent.append((tasks[index].sample_key,
                              scan.divergences[0]))
            scans.append((entry, ScanResult(target_account=0)))
            continue
        scans.append((entry, scan))
    if perf is not None:
        perf.add_run(run, jobs, wall_s)
    return WildStudyResult(len(corpus), scans, skipped=skipped,
                           divergent=divergent)


def format_wild_study(result: WildStudyResult) -> str:
    lines = [
        f"WASAI wild study: {result.total} profitable contracts",
        f"  flagged vulnerable: {len(result.flagged)} "
        f"({result.flagged_fraction:.1%}; paper: 71.3%)",
    ]
    for vuln_type, count in result.per_type_counts().items():
        lines.append(f"    {vuln_type:<13} {count:4d}")
    operating = result.still_operating
    lines.append(f"  flagged & still operating: {len(operating)} "
                 f"({len(operating) / max(len(result.flagged), 1):.1%}; "
                 "paper: 58.4%)")
    lines.append(f"  patched in a later version: {len(result.patched)}")
    lines.append(f"  still exposed to attackers: {result.exposed_count} "
                 "(paper: 341)")
    lines.append(f"  agreement with ground truth: "
                 f"{result.ground_truth_agreement():.1%}")
    if result.skipped:
        lines.append(f"  skipped (failed campaigns): "
                     f"{len(result.skipped)}")
        for key, reason in result.skipped:
            lines.append(f"    {key}: {reason}")
    if result.divergent:
        lines.append(f"  divergent (sentinel tripped): "
                     f"{len(result.divergent)}")
        for key, reason in result.divergent:
            lines.append(f"    {key}: {reason}")
    return "\n".join(lines)
