"""The evaluation harness: run WASAI and the baselines on contracts.

Shared by the example scripts, the test suite and the benchmark
drivers for Tables 4-6, Figure 3 and RQ4.

Corpus evaluation fans out over :mod:`repro.parallel`: every sample
becomes one self-contained :class:`~repro.parallel.CampaignTask` with a
deterministic per-sample RNG seed, so ``jobs=1`` (in-process) and
``jobs=N`` (worker pool) produce byte-identical metrics tables.

Fault tolerance sits on :mod:`repro.resilience`: stage failures are
raised as typed :class:`~repro.resilience.CampaignError`\\ s, samples
whose workers crash or time out are retried / quarantined under a
:class:`~repro.resilience.ResiliencePolicy` and reported as *skipped*
in the tables (never silently folded into the confusion counts), and
``journal``/``resume`` checkpoint completed campaigns to an
append-only JSONL so interrupted runs continue instead of restarting.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .baselines.eosafe import EosafeAnalyzer
from .baselines.eosfuzzer import EosfuzzerCampaign, eosfuzzer_scan
from .benchgen.corpus import BenchmarkSample
from .engine import (FuzzReport, FuzzTarget, Instrumentation, WasaiFuzzer,
                     deploy_target, setup_chain)
from .eosio.abi import Abi
from .metrics import MetricsTable, ThroughputStats
from .parallel import CampaignTask, run_campaign_task
from .resilience import (CampaignError, DeployError, FuzzError,
                         ResiliencePolicy, ScanError, faultinject,
                         run_resilient_tasks)
from .scanner import ScanResult, scan_report
from .wasm.module import Module

__all__ = ["run_wasai", "run_eosfuzzer", "run_eosafe", "evaluate_corpus",
            "WasaiRun", "DEFAULT_TIMEOUT_MS"]

# Virtual five minutes would be over-generous for the small generated
# contracts; 30 virtual seconds saturates coverage on them while
# keeping the full corpus runnable in CI.  Benches can raise it.
DEFAULT_TIMEOUT_MS = 30_000.0


@dataclass
class WasaiRun:
    """A completed WASAI campaign and its scan."""

    report: FuzzReport
    scan: ScanResult
    target: FuzzTarget


def _charge_stage(timings: "dict[str, float] | None", stage: str,
                  started: float) -> float:
    """Accumulate a stage's wall-clock; returns a fresh timestamp."""
    now = time.perf_counter()
    if timings is not None:
        timings[stage] = timings.get(stage, 0.0) + now - started
    return now


def _stage(error_cls: type[CampaignError], fn, *args, **kwargs):
    """Call ``fn``; an exception outside the taxonomy becomes
    ``error_cls`` (a :class:`CampaignError` passes through as is)."""
    try:
        return fn(*args, **kwargs)
    except CampaignError:
        raise
    except Exception as exc:
        raise error_cls.wrap(exc)


def _campaign(module: Module, abi: Abi, account: str, limits,
              timings: "dict[str, float] | None", fuzz, scan,
              instrumentation: Instrumentation | None) -> WasaiRun:
    """Deploy -> fuzz -> scan, the stages every fuzzing tool runs.

    ``fuzz(chain, target)`` returns the campaign's report and
    ``scan(report, target)`` its scan.  The deploy reuses
    ``instrumentation``, the module's rewrite from an earlier deploy,
    when given (see :func:`~repro.engine.deploy_target`).  Each
    stage's wall-clock is charged to ``timings`` ("setup", "fuzz",
    "scan") and its failures are typed (:class:`DeployError`,
    :class:`FuzzError`, :class:`ScanError`).  However the campaign
    ends, its chain's contracts are unbound, so the chain is freed by
    reference counting once the caller drops it.
    """
    started = time.perf_counter()
    chain = _stage(DeployError, setup_chain, limits=limits)
    try:
        target = _stage(DeployError, deploy_target, chain, account, module,
                        abi, instrumentation)
        started = _charge_stage(timings, "setup", started)
        faultinject.inject("fuzz")
        report = _stage(FuzzError, fuzz, chain, target)
        started = _charge_stage(timings, "fuzz", started)
        faultinject.inject("scan")
        result = _stage(ScanError, scan, report, target)
        _charge_stage(timings, "scan", started)
        return WasaiRun(report, result, target)
    finally:
        chain.unbind_contracts()


def run_wasai(module: Module, abi: Abi, account: str = "victim",
              timeout_ms: float = DEFAULT_TIMEOUT_MS, rng_seed: int = 1,
              smt_max_conflicts: int = 20_000,
              address_pool: bool = False,
              feedback: bool = True,
              divergence_check: bool = True,
              limits=None,
              trace_dir: "str | None" = None,
              timings: "dict[str, float] | None" = None,
              oracles=None,
              deadline_epoch_s: float | None = None,
              instrumentation: Instrumentation | None = None) -> WasaiRun:
    """Fuzz one contract with WASAI and scan the observations.

    ``timings``, when given, accumulates real per-stage wall-clock
    seconds under the keys "setup", "fuzz" and "scan".  ``feedback``
    toggles the symbolic feedback loop — ``False`` runs the black-box
    mutation loop from the start, as the scan service does while a
    breaker on a degradable stage is open.  With feedback on, the
    fuzzer itself falls back to that loop when symbolic replay or the
    solver keeps failing, and marks ``report.degraded``.
    ``divergence_check`` toggles the concolic divergence sentinel
    (cross-checking the symbolic replay's concrete shadow state
    against the recorded trace); ``limits`` is an optional
    :class:`~repro.wasm.ExecutionLimits` for the chain's Wasm
    interpreter.  ``trace_dir`` redirects every observation's trace to
    its own offline ``.tir`` file (§3.3.1) in the given directory.
    ``oracles`` selects the enabled oracle families (any spec
    :func:`repro.semoracle.resolve_oracles` accepts; None = the
    paper's five).  ``deadline_epoch_s`` is the caller's absolute
    wall-clock deadline: the fuzzing loop checks it once per round and
    raises :class:`~repro.resilience.DeadlineExceeded` the moment it
    passes, cutting the campaign short instead of finishing its
    virtual budget for a caller that already gave up.
    ``instrumentation`` is the module's rewrite from an earlier
    campaign (``run.target.instrumentation``); without it the module
    is instrumented afresh, once for this campaign.
    """
    def fuzz(chain, target):
        return WasaiFuzzer(chain, target, rng=random.Random(rng_seed),
                           timeout_ms=timeout_ms,
                           smt_max_conflicts=smt_max_conflicts,
                           address_pool=address_pool,
                           feedback=feedback,
                           trace_dir=trace_dir,
                           divergence_check=divergence_check,
                           deadline_epoch_s=deadline_epoch_s).run()

    def scan(report, target):
        return scan_report(report, target, oracles=oracles)
    return _campaign(module, abi, account, limits, timings, fuzz, scan,
                     instrumentation)


def run_eosfuzzer(module: Module, abi: Abi, account: str = "victim",
                  timeout_ms: float = DEFAULT_TIMEOUT_MS,
                  rng_seed: int = 1,
                  timings: "dict[str, float] | None" = None,
                  instrumentation: Instrumentation | None = None
                  ) -> WasaiRun:
    """Run the EOSFuzzer baseline on one contract (``instrumentation``
    as for :func:`run_wasai`)."""
    def fuzz(chain, target):
        return EosfuzzerCampaign(chain, target,
                                 rng=random.Random(rng_seed),
                                 timeout_ms=timeout_ms).run()
    return _campaign(module, abi, account, None, timings, fuzz,
                     eosfuzzer_scan, instrumentation)


def run_eosafe(module: Module, account: int = 0) -> ScanResult:
    """Run the EOSAFE baseline (static, no chain needed)."""
    faultinject.inject("scan")
    return EosafeAnalyzer().analyze(module).to_scan_result(account)


def evaluate_corpus(samples: list[BenchmarkSample],
                    tools: tuple[str, ...] = ("wasai", "eosfuzzer",
                                              "eosafe"),
                    timeout_ms: float = DEFAULT_TIMEOUT_MS,
                    rng_seed: int = 7,
                    jobs: int = 1,
                    task_timeout_s: float | None = None,
                    perf: ThroughputStats | None = None,
                    policy: ResiliencePolicy | None = None,
                    journal: "str | None" = None,
                    resume: bool = False,
                    divergence_check: bool = True,
                    capture_traces: bool = False,
                    oracles=None,
                    ) -> dict[str, MetricsTable]:
    """Run the selected tools over a labelled corpus; returns one
    metrics table per tool (the Table 4/5/6 rows).

    ``jobs`` > 1 fans the per-sample campaigns out over a worker pool
    (``jobs=0`` means one worker per CPU); results are folded back in
    sample order, so the tables are identical to a serial run with the
    same ``rng_seed``.  ``task_timeout_s`` bounds one sample's real
    wall-clock in the parallel path.

    Failures never skew the tables: a sample whose task crashed or
    timed out is retried under ``policy`` (default
    :class:`~repro.resilience.ResiliencePolicy`), quarantined after
    ``policy.quarantine_after`` failures, and recorded as *skipped* —
    listed in the table, excluded from the confusion counts.  With
    ``journal`` set, completed campaigns are checkpointed as they
    finish; ``resume=True`` reuses journaled results verbatim instead
    of recomputing them.  ``perf``, when given, is filled with
    throughput, failure/retry and cache-hit accounting for the freshly
    computed (non-journaled) campaigns.

    A sample whose campaign tripped the concolic divergence sentinel
    (``divergence_check``, on by default) is reported as *divergent* —
    its verdict is excluded from the confusion counts (the trace the
    detectors scanned is untrustworthy) and the sample is recorded in
    the quarantine ledger.

    ``capture_traces`` distills each finished WASAI campaign into a
    durable trace-IR pack (:mod:`repro.traceir`) carried on the result
    and journaled alongside the verdict, so scanner oracles can later
    be replayed with zero re-fuzzing.
    """
    policy = policy or ResiliencePolicy()
    vuln_types = tuple(sorted({s.vuln_type for s in samples}))
    tables = {tool: MetricsTable(tool, vuln_types) for tool in tools}
    tasks = [CampaignTask(sample.module, sample.contract.abi, tuple(tools),
                          timeout_ms, rng_seed + index, policy=policy,
                          sample_key=f"{sample.vuln_type}[{index}]",
                          divergence_check=divergence_check,
                          capture_traces=capture_traces,
                          oracles=oracles)
             for index, sample in enumerate(samples)]
    wall_started = time.perf_counter()
    run = run_resilient_tasks(run_campaign_task, tasks, jobs=jobs,
                              timeout_s=task_timeout_s, policy=policy,
                              journal=journal, resume=resume)
    wall_s = time.perf_counter() - wall_started
    for index, (sample, result) in enumerate(zip(samples, run.results)):
        skip_reason = run.skip_reason(index)
        if skip_reason is not None:
            for tool in tools:
                tables[tool].skip(sample.vuln_type,
                                  f"{tasks[index].sample_key}: "
                                  f"{skip_reason}")
            continue
        outcome = result.value
        for tool in tools:
            scan = outcome.scans.get(tool)
            if scan is None:
                error = outcome.errors.get(tool, {})
                tables[tool].skip(sample.vuln_type,
                                  f"{tasks[index].sample_key}: "
                                  f"{error.get('message', 'failed')}")
                continue
            if scan.divergences:
                # The sentinel tripped: the recorded trace and the
                # symbolic replay disagree, so neither a positive nor
                # a negative verdict can be credited to this campaign.
                sample_key = tasks[index].sample_key
                reason = f"{sample_key}: {scan.divergences[0]}"
                tables[tool].mark_divergent(sample.vuln_type, reason)
                run.quarantine.record_failure(
                    sample_key, f"divergence: {scan.divergences[0]}")
                continue
            tables[tool].record(sample.vuln_type, sample.label,
                                scan.detected(sample.vuln_type))
    if perf is not None:
        perf.add_run(run, jobs, wall_s)
    return tables
