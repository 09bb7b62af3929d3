"""Campaign task payloads for the parallel executor.

One :class:`CampaignTask` bundles everything a worker needs to run the
selected tools against one contract: the module, its ABI, the virtual
fuzzing budget and — crucially for determinism — the campaign's own RNG
seed.  Serial and parallel evaluation build the *same* task list with
the same per-sample seeds, so scheduling order can never leak into the
results; the harness folds worker outputs back in task order.

A task instruments its contract at most once, on its first deploy,
and every later deploy of the task (a retry, the second dynamic tool)
reuses that :class:`~repro.engine.Instrumentation`; nothing outlives
the task.  Workers report per-stage wall-clock, the task's own
instrumentation counts, and its solver-cache counter deltas.  Deltas,
not absolute counters: each worker process owns a private solver
cache, so only differences can be summed meaningfully in the parent.

Containment happens here, inside the worker: every tool run executes
under the task's :class:`~repro.resilience.ResiliencePolicy` — typed
:class:`~repro.resilience.CampaignError` failures are retried when
transient, and whatever still fails is carried in
``CampaignResult.errors`` (with the child traceback) rather than
aborting the whole task.  A WASAI campaign that lost its
symbolic/solver stage is not re-run: the fuzzer already fell back to
black-box mutation, and the task reports that fallback as a degraded
verdict with the failing stage in its error doc.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial

from ..engine.deploy import Instrumentation
from ..eosio.abi import Abi
from ..resilience import faultinject
from ..resilience.errors import (CampaignError, DeadlineExceeded,
                                 ScanError)
from ..resilience.policy import ResiliencePolicy, run_with_retry
from ..scanner import ScanResult
from ..wasm.module import Module

__all__ = ["CampaignTask", "CampaignResult", "run_campaign_task"]


@dataclass
class CampaignTask:
    """One sample's worth of tool runs, self-contained and picklable."""

    module: Module
    abi: Abi
    tools: tuple[str, ...]
    timeout_ms: float
    rng_seed: int
    address_pool: bool = False
    policy: ResiliencePolicy | None = None
    sample_key: str = ""      # human-readable sample id (fault scope)
    divergence_check: bool = True  # concolic divergence sentinel
    # Forced black-box mode: skip the symbolic/solver side entirely
    # and run WASAI as a pure mutation campaign.  Set by the scan
    # service while a circuit breaker on a degradable stage is open —
    # the stage is known-bad, so don't even attempt it.
    blackbox: bool = False
    # Opt-in trace capture: distill the finished campaign into a
    # durable trace-IR pack (repro.traceir) shipped alongside the
    # verdict, so scanner oracles can be replayed later with zero
    # re-fuzzing.  Does not alter the verdict or the task key.
    capture_traces: bool = False
    # Enabled oracle families (any spec repro.semoracle.resolve_oracles
    # accepts).  None — the default — means exactly the paper's five,
    # and keeps the task key byte-compatible with pre-semantic
    # journals and stores.
    oracles: "tuple | str | None" = None
    # Caller wall-clock deadline (absolute epoch seconds), propagated
    # end-to-end from the ``X-Deadline-Ms`` header.  Checked before
    # each tool run and once per fuzzing round, so an expired campaign
    # is cut short with a typed DeadlineExceeded instead of burning
    # the rest of its budget into the void.  Execution policy only —
    # never task-key material (campaign_task_key ignores it).
    deadline_epoch_s: float | None = None


@dataclass
class CampaignResult:
    """What a worker sends back: scans plus perf accounting.

    A tool that failed irrecoverably has no entry in ``scans`` and a
    serialized :class:`CampaignError` doc in ``errors`` instead; tools
    listed in ``degraded`` completed through the black-box fallback.
    """

    scans: dict[str, ScanResult]
    stage_seconds: dict[str, float] = field(default_factory=dict)
    # Cache counters under the verdict-doc keys (CACHE_COUNTERS).
    # instr_cache_misses counts the instrumentations this task ran and
    # instr_cache_hits its deploys that reused one.  The solver pair is
    # a delta of the process-wide solver cache: the daemon's scan
    # threads share it, so when campaigns overlap a delta also counts
    # its neighbours' work.
    cache: dict[str, int] = field(default_factory=dict)
    # The worker process that ran the task; lets the harness attribute
    # cache efficiency per worker (a cold worker shows up immediately).
    worker_id: int = 0
    errors: dict[str, dict] = field(default_factory=dict)
    degraded: tuple[str, ...] = ()
    retries: int = 0
    # tool -> coverage summary: the campaign's (virtual-time, covered
    # branch count) timeline plus totals, persisted by the scan
    # service's artifact store alongside the verdict.
    coverage: dict[str, dict] = field(default_factory=dict)
    # tool -> encoded trace-IR pack (only when the task opted in).
    traces: dict[str, bytes] = field(default_factory=dict)
    # How the verdict came to be: oracle + trace-IR versions and
    # whether it was produced fresh or replayed from a stored trace.
    provenance: "dict | None" = None


def _solver_counters() -> tuple[int, int]:
    """(hits, misses) of the process-wide solver cache so far."""
    from ..smt.solver import solver_cache
    cache = solver_cache()
    return (0, 0) if cache is None else (cache.hits, cache.misses)


def _coverage_summary(report) -> dict:
    return {
        "iterations": report.iterations,
        "covered": len(report.covered),
        "timeline": [[t, n] for t, n in report.coverage_timeline],
    }


def _fresh_provenance(oracles=None) -> dict:
    """Provenance stamp for a verdict produced by actually fuzzing."""
    from ..scanner.oracles import ORACLE_VERSION
    from ..semoracle.registry import resolve_oracles
    from ..traceir.codec import TRACEIR_VERSION
    return {"oracle_version": ORACLE_VERSION,
            "traceir_version": TRACEIR_VERSION,
            "oracles": list(resolve_oracles(oracles)),
            "source": "fresh"}


def _degraded_doc(report, sample_key: str) -> dict:
    """The breaker-visible error doc of a campaign the fuzzer degraded
    to black-box mid-run: containment keeps the sample alive, but the
    failing stage must still be visible at the campaign level — the
    scan service's circuit breakers key off it."""
    stages = report.feedback_failure_stages
    stage = max(stages, key=stages.get) if stages else "symback"
    return {
        "type": "SolverError" if stage == "solve" else "SymbackError",
        "stage": stage,
        "message": ("campaign degraded to black-box after "
                    f"{sum(stages.values())} contained {stage} failures"),
        "sample_id": sample_key or None,
        "retryable": False,
        "degraded": True,
    }


def _run_tool(tool: str, task: CampaignTask,
              stage_seconds: dict[str, float], harness,
              instrumentation: Instrumentation):
    """Run one tool once: a ``WasaiRun`` for the two fuzzers, a bare
    ``ScanResult`` for the static EOSAFE baseline.  The fuzzers deploy
    the task's ``instrumentation``."""
    if tool == "wasai":
        return harness.run_wasai(
            task.module, task.abi,
            timeout_ms=task.timeout_ms,
            rng_seed=task.rng_seed,
            address_pool=task.address_pool,
            timings=stage_seconds,
            feedback=not task.blackbox,
            divergence_check=task.divergence_check,
            oracles=task.oracles,
            deadline_epoch_s=task.deadline_epoch_s,
            instrumentation=instrumentation)
    if tool == "eosfuzzer":
        return harness.run_eosfuzzer(task.module, task.abi,
                                     timeout_ms=task.timeout_ms,
                                     rng_seed=task.rng_seed,
                                     timings=stage_seconds,
                                     instrumentation=instrumentation)
    if tool != "eosafe":
        raise ValueError(f"unknown tool {tool!r}")
    started = time.perf_counter()
    try:
        return harness.run_eosafe(task.module)
    except CampaignError:
        raise
    except Exception as exc:
        raise ScanError.wrap(exc, sample_id=task.sample_key or None)
    finally:
        stage_seconds["scan"] = stage_seconds.get("scan", 0.0) \
            + time.perf_counter() - started


def run_campaign_task(task: CampaignTask) -> CampaignResult:
    """Run every requested tool on the task's contract, contained.

    Module-level so it is importable under any multiprocessing start
    method.  The harness import is deferred to break the
    harness -> parallel -> harness cycle, and the tools are looked up
    on the harness module at call time.
    """
    from .. import harness

    policy = task.policy or ResiliencePolicy()
    faultinject.set_fault_scope(task.sample_key)
    try:
        solver_hits, solver_misses = _solver_counters()
        instrumentation = Instrumentation(task.module)
        stage_seconds: dict[str, float] = {}
        scans: dict[str, ScanResult] = {}
        errors: dict[str, dict] = {}
        coverage: dict[str, dict] = {}
        degraded: list[str] = []
        retries = 0
        traces: dict[str, bytes] = {}
        for tool in task.tools:
            if task.deadline_epoch_s is not None \
                    and time.time() >= task.deadline_epoch_s:
                # The caller's deadline passed between tools (or the
                # job was dispatched already-expired): record the
                # typed cut-off instead of spending a fresh budget on
                # an answer nobody is waiting for.
                errors[tool] = DeadlineExceeded(
                    "caller deadline passed before the tool ran",
                    sample_id=task.sample_key or None,
                    deadline_epoch_s=task.deadline_epoch_s).to_doc()
                continue
            outcome, error, attempts = run_with_retry(
                partial(_run_tool, tool, task, stage_seconds, harness,
                        instrumentation),
                policy)
            retries += attempts - 1
            if error is not None:
                errors[tool] = error.to_doc()
                continue
            if tool == "eosafe":
                scans[tool] = outcome
                continue
            coverage[tool] = _coverage_summary(outcome.report)
            scans[tool] = outcome.scan
            if tool != "wasai":
                continue
            if task.blackbox:
                degraded.append(tool)
            elif outcome.report.degraded:
                degraded.append(tool)
                errors[tool] = _degraded_doc(outcome.report,
                                             task.sample_key)
            elif task.capture_traces:
                # Degraded campaigns are excluded on purpose: their
                # verdicts are never cached, so a replay pack for
                # them would only ever disagree with a fresh scan.
                from ..traceir import build_trace_pack, encode_pack
                traces[tool] = encode_pack(build_trace_pack(
                    outcome.report, outcome.target))
        hits, misses = _solver_counters()
        return CampaignResult(
            scans=scans,
            stage_seconds=stage_seconds,
            cache={"instr_cache_hits": instrumentation.reuses,
                   "instr_cache_misses": instrumentation.runs,
                   "solver_cache_hits": hits - solver_hits,
                   "solver_cache_misses": misses - solver_misses},
            worker_id=os.getpid(),
            errors=errors,
            degraded=tuple(degraded),
            retries=retries,
            coverage=coverage,
            traces=traces,
            provenance=_fresh_provenance(task.oracles),
        )
    finally:
        faultinject.set_fault_scope("")
