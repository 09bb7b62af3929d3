"""Detection metrics: confusion counts, precision / recall / F1.

Used by the Table 4-6 benches to print the same rows the paper
reports.  Also home to :class:`ThroughputStats`, the timing ledger
the corpus-scale evaluation fills in so the perf trajectory
(campaigns/sec, per-stage wall-clock, latency percentiles) is tracked
in ``BENCH_throughput.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Confusion", "MetricsTable", "ThroughputStats", "percentile"]


def percentile(samples: "list[float]", q: float) -> float:
    """The ``q``-th percentile (0-100) of ``samples`` by linear
    interpolation between closest ranks; 0.0 for an empty list."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


@dataclass
class Confusion:
    """A binary confusion matrix with the paper's P/R/F1 definitions."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def record(self, label: bool, predicted: bool) -> None:
        if label and predicted:
            self.tp += 1
        elif label and not predicted:
            self.fn += 1
        elif not label and predicted:
            self.fp += 1
        else:
            self.tn += 1

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def precision(self) -> float:
        denominator = self.tp + self.fp
        return self.tp / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.tp + self.fn
        return self.tp / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def merged(self, other: "Confusion") -> "Confusion":
        return Confusion(self.tp + other.tp, self.fp + other.fp,
                         self.tn + other.tn, self.fn + other.fn)

    def row(self) -> str:
        return (f"P={self.precision:6.1%} R={self.recall:6.1%} "
                f"F1={self.f1:6.1%}")

    def counts_row(self) -> str:
        return f"TP={self.tp:<4} FP={self.fp:<4} FN={self.fn:<4}"


@dataclass
class ThroughputStats:
    """Wall-clock accounting for one corpus-scale evaluation.

    ``campaigns`` counts completed tool runs (one fuzzing campaign or
    static scan per sample per tool); ``failures`` counts tasks whose
    worker crashed or timed out.  ``stage_seconds`` sums the per-stage
    wall-clock reported by the campaign workers ("setup" = chain +
    instrumented deploy, "fuzz", "scan").  The scan service keeps its
    event counts itself (``GET /stats``) and reads only the latency
    percentiles of its ledger.
    """

    jobs: int = 1
    campaigns: int = 0
    failures: int = 0
    retries: int = 0
    quarantined: int = 0
    wall_s: float = 0.0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    # Per-task wall-clock samples, keyed by stage ("task" = whole
    # campaign task; "setup"/"fuzz"/"scan" = pipeline stages; the scan
    # service adds "job" for end-to-end job latency).  Samples feed the
    # p50/p95/max percentiles in ``wasai bench`` output and the
    # daemon's ``GET /stats``.
    latency_samples: dict[str, list[float]] = field(default_factory=dict)

    @property
    def campaigns_per_sec(self) -> float:
        return self.campaigns / self.wall_s if self.wall_s > 0 else 0.0

    # -- aggregation (driven by the harness) ------------------------------
    def add_run(self, run, jobs: int, wall_s: float) -> None:
        """Fold one :func:`~repro.resilience.run_resilient_tasks` run:
        its attempts, retries, quarantine and every fresh result."""
        self.jobs = jobs
        self.wall_s += wall_s
        self.failures += run.failed_attempts
        self.retries += run.retries
        self.quarantined += len(run.quarantine.quarantined())
        for index, result in enumerate(run.results):
            if result.ok and index not in run.reused_indices:
                self.add_result(result.value, result.elapsed_s)

    def add_result(self, result, elapsed_s: float = 0.0) -> None:
        """Fold one freshly run :class:`~repro.parallel.CampaignResult`:
        its completed scans, retries, stage seconds and per-stage
        latencies, and (when given) the task's wall-clock ``elapsed_s``
        as a ``task`` latency sample."""
        self.campaigns += len(result.scans)
        self.retries += result.retries
        if elapsed_s > 0:
            self.record_latency("task", elapsed_s)
        for stage, seconds in result.stage_seconds.items():
            self.stage_seconds[stage] = \
                self.stage_seconds.get(stage, 0.0) + seconds
            self.record_latency(stage, seconds)

    def record_latency(self, stage: str, seconds: float) -> None:
        """Add one per-task wall-clock sample for ``stage``."""
        self.latency_samples.setdefault(stage, []).append(seconds)

    def latency_percentiles(self) -> dict[str, dict[str, float]]:
        """p50/p95/max (plus sample count) per recorded stage."""
        out: dict[str, dict[str, float]] = {}
        for stage, samples in self.latency_samples.items():
            if not samples:
                continue
            out[stage] = {
                "n": len(samples),
                "p50_s": percentile(samples, 50),
                "p95_s": percentile(samples, 95),
                "max_s": max(samples),
            }
        return out

    def as_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "campaigns": self.campaigns,
            "failures": self.failures,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "wall_s": self.wall_s,
            "campaigns_per_sec": self.campaigns_per_sec,
            "stage_seconds": dict(self.stage_seconds),
            "latency": self.latency_percentiles(),
        }

    def format(self) -> str:
        extras = "".join(
            f", {count} {label}" for count, label in
            ((self.failures, "failed"), (self.retries, "retried"),
             (self.quarantined, "quarantined")) if count)
        lines = [
            f"--- throughput (jobs={self.jobs}) ---",
            f"  campaigns     {self.campaigns} "
            f"({self.campaigns_per_sec:.2f}/s over {self.wall_s:.2f}s"
            f"{extras})",
        ]
        for stage in sorted(self.stage_seconds):
            lines.append(f"  stage {stage:<8} "
                         f"{self.stage_seconds[stage]:8.2f}s")
        for stage, stats in sorted(self.latency_percentiles().items()):
            lines.append(
                f"  latency {stage:<8} p50={stats['p50_s']:.3f}s "
                f"p95={stats['p95_s']:.3f}s max={stats['max_s']:.3f}s "
                f"(n={stats['n']})")
        return "\n".join(lines)


class MetricsTable:
    """Per-type confusion matrices for one tool, Table 4 style.

    Samples with no usable result (worker crash, timeout, quarantine)
    are *skipped*: excluded from the confusion counts — folding them
    in as "nothing detected" would silently skew recall — but listed
    in the formatted table with their failure reason, so a lossy run
    is visibly lossy.

    Samples whose campaign tripped the concolic divergence sentinel
    are *divergent*: also excluded from the confusion counts (the
    observation log is untrustworthy, so neither the positive nor the
    negative verdict can be credited), but reported as their own row
    class because the failure mode — trace/replay disagreement — is
    a different kind of loss than a crashed worker.
    """

    def __init__(self, tool: str, vuln_types: tuple[str, ...]):
        self.tool = tool
        self.per_type: dict[str, Confusion] = {t: Confusion()
                                               for t in vuln_types}
        self.skipped: dict[str, list[str]] = {}
        self.divergent: dict[str, list[str]] = {}

    def record(self, vuln_type: str, label: bool, predicted: bool) -> None:
        self.per_type[vuln_type].record(label, predicted)

    def skip(self, vuln_type: str, reason: str) -> None:
        """Report one sample excluded from the confusion counts."""
        self.skipped.setdefault(vuln_type, []).append(reason)

    def skipped_count(self) -> int:
        return sum(len(reasons) for reasons in self.skipped.values())

    def mark_divergent(self, vuln_type: str, reason: str) -> None:
        """Report one sample whose campaign tripped the sentinel."""
        self.divergent.setdefault(vuln_type, []).append(reason)

    def divergent_count(self) -> int:
        return sum(len(reasons) for reasons in self.divergent.values())

    def total(self) -> Confusion:
        out = Confusion()
        for confusion in self.per_type.values():
            out = out.merged(confusion)
        return out

    def false_positives(self, vuln_types=None) -> dict[str, int]:
        """Per-type false-positive counts, non-zero entries only.

        ``vuln_types`` restricts the query (e.g. to the enabled
        semantic oracle families); None means every recorded type.
        Backs the ``--fail-on-family-fp`` bench gate: any non-empty
        result is a family flagging a clean variant.
        """
        if vuln_types is None:
            selected = self.per_type.items()
        else:
            wanted = set(vuln_types)
            selected = ((t, c) for t, c in self.per_type.items()
                        if t in wanted)
        return {t: c.fp for t, c in selected if c.fp}

    def format(self) -> str:
        lines = [f"--- {self.tool} ---"]
        for vuln_type, confusion in self.per_type.items():
            lines.append(f"  {vuln_type:<13} n={confusion.total:<5} "
                         f"{confusion.counts_row()} {confusion.row()}")
        total = self.total()
        lines.append(f"  {'Total':<13} n={total.total:<5} "
                     f"{total.counts_row()} {total.row()}")
        if self.skipped:
            lines.append(f"  skipped       {self.skipped_count()} "
                         "(excluded from the counts above)")
            for vuln_type in sorted(self.skipped):
                for reason in self.skipped[vuln_type]:
                    lines.append(f"    {reason}")
        if self.divergent:
            lines.append(f"  divergent     {self.divergent_count()} "
                         "(sentinel tripped; excluded from the counts "
                         "above)")
            for vuln_type in sorted(self.divergent):
                for reason in self.divergent[vuln_type]:
                    lines.append(f"    {reason}")
        return "\n".join(lines)
