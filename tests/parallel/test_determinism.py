"""Determinism guarantees of the parallel evaluation subsystem.

Serial and parallel runs must produce byte-identical metrics tables,
the solver cache may not change any scan verdict (it is pure
memoisation of a deterministic computation), and each campaign task
instruments its contract once.
"""

import pytest

import repro.engine.deploy as deploy
from repro import (Fault, ThroughputStats, build_table4_corpus,
                   clear_fault_plan, evaluate_corpus, install_fault_plan)
from repro.engine import module_content_hash
from repro.parallel import CampaignTask, run_campaign_task
from repro.smt import configure_solver_cache, solver_cache

SCALE = 0.004
TIMEOUT_MS = 6_000


@pytest.fixture(autouse=True)
def fresh_caches():
    """Give every test a pristine process-wide solver cache and restore
    the default afterwards."""
    configure_solver_cache(enabled=True)
    yield
    configure_solver_cache(enabled=True)


@pytest.fixture(scope="module")
def samples():
    return build_table4_corpus(scale=SCALE)


def _formatted(tables):
    return {tool: table.format() for tool, table in tables.items()}


def test_serial_and_parallel_tables_identical(samples):
    serial = evaluate_corpus(samples, timeout_ms=TIMEOUT_MS, rng_seed=7,
                             jobs=1)
    parallel = evaluate_corpus(samples, timeout_ms=TIMEOUT_MS, rng_seed=7,
                               jobs=4)
    assert _formatted(serial) == _formatted(parallel)


def test_caches_never_change_verdicts(samples):
    subset = samples[:6]
    cached = evaluate_corpus(subset, timeout_ms=TIMEOUT_MS, rng_seed=7)
    configure_solver_cache(enabled=False)
    uncached = evaluate_corpus(subset, timeout_ms=TIMEOUT_MS, rng_seed=7)
    assert _formatted(cached) == _formatted(uncached)


def test_instrumentation_cache_eliminates_repeat_instrumentation(
        samples, monkeypatch):
    """Each task instruments its module once, on its first deploy; the
    second dynamic tool and a retried tool reuse that rewrite.  Nothing
    is shared between tasks, so two samples with the same binary are
    instrumented once each.  ``instrument_module`` is counted where the
    benchmark tracer patches it."""
    calls = []
    original = deploy.instrument_module

    def counting(module):
        calls.append(module_content_hash(module))
        return original(module)
    monkeypatch.setattr(deploy, "instrument_module", counting)
    subset = samples[:4] + samples[:1]      # the last shares a binary
    assert len({module_content_hash(s.module) for s in subset}) == 4
    perf = ThroughputStats()
    evaluate_corpus(subset, tools=("wasai", "eosfuzzer"),
                    timeout_ms=TIMEOUT_MS, rng_seed=7, perf=perf)
    assert len(calls) == len(subset)
    assert perf.cache["instr_cache_misses"] == len(subset)
    assert perf.cache["instr_cache_hits"] == len(subset)

    calls.clear()
    install_fault_plan(Fault(stage="scan", kind="transient", times=1))
    try:
        perf = ThroughputStats()
        evaluate_corpus(subset, tools=("wasai", "eosfuzzer"),
                        timeout_ms=TIMEOUT_MS, rng_seed=7, perf=perf)
    finally:
        clear_fault_plan()
    assert perf.retries == 1
    assert len(calls) == len(subset)
    assert perf.cache["instr_cache_misses"] == len(subset)
    assert perf.cache["instr_cache_hits"] == len(subset) + 1

    # A failed instrumentation is not kept: the task's next deploy
    # (here the second tool) instruments again.
    failures = [ValueError("rewrite failed")]

    def failing_once(module):
        if failures:
            raise failures.pop()
        return counting(module)
    calls.clear()
    monkeypatch.setattr(deploy, "instrument_module", failing_once)
    result = run_campaign_task(CampaignTask(
        subset[0].module, subset[0].contract.abi, ("wasai", "eosfuzzer"),
        TIMEOUT_MS, 7))
    assert result.errors["wasai"]["type"] == "InstrumentError"
    assert set(result.scans) == {"eosfuzzer"}
    assert len(calls) == 1
    assert (result.cache["instr_cache_misses"],
            result.cache["instr_cache_hits"]) == (2, 0)


def test_module_fingerprint_is_stable_and_distinct(samples):
    a, b = samples[0].module, samples[1].module
    assert module_content_hash(a) == module_content_hash(a)
    assert module_content_hash(a) != module_content_hash(b)


def test_solver_cache_hits_during_fuzzing(samples):
    cache = configure_solver_cache(enabled=True)
    evaluate_corpus(samples[:4], tools=("wasai",),
                    timeout_ms=TIMEOUT_MS, rng_seed=7)
    assert cache.hits + cache.misses > 0
    assert solver_cache() is cache


def test_perf_stats_populated(samples):
    perf = ThroughputStats()
    evaluate_corpus(samples[:4], timeout_ms=TIMEOUT_MS, rng_seed=7,
                    jobs=2, perf=perf)
    assert perf.jobs == 2
    assert perf.campaigns == 4 * 3  # three tools per sample
    assert perf.failures == 0
    assert perf.wall_s > 0
    assert perf.campaigns_per_sec > 0
    assert set(perf.stage_seconds) == {"setup", "fuzz", "scan"}
    doc = perf.as_dict()
    assert doc["instr_cache"]["hits"] + doc["instr_cache"]["misses"] > 0
    assert "throughput" in perf.format()
