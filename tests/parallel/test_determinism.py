"""Determinism guarantees of the parallel evaluation subsystem.

Serial and parallel runs must produce byte-identical metrics tables, a
campaign run twice in one process must do the same work both times
(nothing it leaves behind answers for the next), and each campaign task
instruments its contract once.
"""

import pytest

import repro.engine.deploy as deploy
from repro import (Fault, ThroughputStats, build_table4_corpus,
                   clear_fault_plan, evaluate_corpus, install_fault_plan)
from repro.engine import module_content_hash
from repro.harness import run_wasai
from repro.parallel import CampaignTask, run_campaign_task

SCALE = 0.004
TIMEOUT_MS = 6_000


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


def _work(report) -> tuple:
    return (report.solver_stats.as_dict(), report.iterations,
            len(report.observations), report.adaptive_seeds,
            sorted(report.covered))


def test_repeated_campaign_does_the_same_work(samples):
    """No campaign's solver work depends on what ran before it in the
    process: the same campaign, run twice, poses and solves the same
    queries through the same layers."""
    sample = samples[0]
    first, second = (run_wasai(sample.module, sample.contract.abi,
                               timeout_ms=TIMEOUT_MS, rng_seed=7).report
                     for _ in range(2))
    assert first.solver_stats.checks > 0
    assert _work(first) == _work(second)


def test_instrumentation_cache_eliminates_repeat_instrumentation(
        samples, monkeypatch):
    """Each task instruments its module once, on its first deploy; the
    second dynamic tool and a retried tool reuse that rewrite.  Nothing
    is shared between tasks, so two samples with the same binary are
    instrumented once each.  ``instrument_module`` is counted where the
    benchmark tracer patches it, failed attempts included."""
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
    assert perf.campaigns == 2 * len(subset)
    assert sorted(calls) == sorted(module_content_hash(s.module)
                                   for s in subset)

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

    # A failed instrumentation is not kept: the task's next deploy
    # (here the second tool) instruments again.
    failures = [ValueError("rewrite failed")]

    def failing_once(module):
        calls.append(module_content_hash(module))
        if failures:
            raise failures.pop()
        return original(module)
    calls.clear()
    monkeypatch.setattr(deploy, "instrument_module", failing_once)
    result = run_campaign_task(CampaignTask(
        subset[0].module, subset[0].contract.abi, ("wasai", "eosfuzzer"),
        TIMEOUT_MS, 7))
    assert result.errors["wasai"]["type"] == "InstrumentError"
    assert set(result.scans) == {"eosfuzzer"}
    assert len(calls) == 2


def test_module_fingerprint_is_stable_and_distinct(samples):
    a, b = samples[0].module, samples[1].module
    assert module_content_hash(a) == module_content_hash(a)
    assert module_content_hash(a) != module_content_hash(b)


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
    assert set(perf.as_dict()["latency"]) == {"task", "setup", "fuzz",
                                              "scan"}
    assert "throughput" in perf.format()
