"""Determinism guarantees of the parallel evaluation subsystem.

Serial and parallel runs must produce byte-identical metrics tables,
and neither cache (instrumentation, solver) may change any scan
verdict — they are pure memoisation of deterministic computations.
"""

import pytest

from repro import build_table4_corpus, evaluate_corpus, ThroughputStats
from repro.engine import (configure_instrumentation_cache, deploy_target,
                          instrumentation_cache, module_content_hash,
                          setup_chain)
from repro.smt import configure_solver_cache, solver_cache

SCALE = 0.004
TIMEOUT_MS = 6_000


@pytest.fixture(autouse=True)
def fresh_caches():
    """Give every test pristine process-wide caches and restore the
    defaults afterwards."""
    configure_instrumentation_cache(enabled=True)
    configure_solver_cache(enabled=True)
    yield
    configure_instrumentation_cache(enabled=True)
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
    configure_instrumentation_cache(enabled=False)
    configure_solver_cache(enabled=False)
    uncached = evaluate_corpus(subset, timeout_ms=TIMEOUT_MS, rng_seed=7)
    assert _formatted(cached) == _formatted(uncached)


def test_instrumentation_cache_eliminates_repeat_instrumentation(samples):
    """cache.misses counts actual ``instrument_module`` runs: each
    distinct module is instrumented exactly once even though every
    sample is deployed once per dynamic tool."""
    subset = samples[:5]
    distinct = len({module_content_hash(s.module) for s in subset})
    cache = configure_instrumentation_cache(enabled=True)
    evaluate_corpus(subset, tools=("wasai", "eosfuzzer"),
                    timeout_ms=TIMEOUT_MS, rng_seed=7)
    assert cache.misses == distinct
    # wasai + eosfuzzer each deploy every sample exactly once.
    assert cache.hits == 2 * len(subset) - distinct


def test_instrumentation_cache_shares_entries_across_deploys(samples):
    module = samples[0].module
    abi = samples[0].contract.abi
    cache = configure_instrumentation_cache(enabled=True)
    first = deploy_target(setup_chain(), "victim", module, abi)
    second = deploy_target(setup_chain(), "victim", module, abi)
    assert cache.misses == 1 and cache.hits == 1
    assert first.site_table is second.site_table


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
