"""Throughput benchmark: the parallel campaign executor + caches.

Runs the Table 4 corpus through ``evaluate_corpus`` serially and with a
4-worker pool, checks the tables are byte-identical, and records the
perf trajectory (campaigns/sec, cache hit rates, per-stage wall-clock,
speedup) in ``BENCH_throughput.json`` at the repo root so successive
PRs can track it.

Scale knobs: REPRO_BENCH_SCALE / REPRO_BENCH_TIMEOUT_MS (see
conftest.py) and REPRO_THROUGHPUT_OUT for the report path.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro import build_table4_corpus, evaluate_corpus, ThroughputStats
from repro.engine import configure_instrumentation_cache
from repro.sharedcache import configure_shared_cache, shared_cache_dir
from repro.smt import configure_solver_cache
from repro.wasm import translation_enabled

PARALLEL_JOBS = 4


@pytest.fixture(scope="module")
def corpus(bench_scale):
    return build_table4_corpus(scale=bench_scale)


@pytest.fixture(scope="module")
def runs(corpus, bench_timeout_ms, tmp_path_factory):
    """Serial and 4-worker evaluations of the same corpus.

    Each run gets its own fresh shared-cache directory: within the
    parallel run the forked workers share one disk tier (the thing
    being measured), while serial and parallel stay independent of
    each other and of anything a previous invocation left behind.
    """
    previous_dir = shared_cache_dir()
    outcome = {}
    try:
        for label, jobs in (("serial", 1), ("parallel", PARALLEL_JOBS)):
            configure_shared_cache(tmp_path_factory.mktemp(f"cache_{label}"))
            configure_instrumentation_cache(enabled=True)
            configure_solver_cache(enabled=True)
            perf = ThroughputStats()
            started = time.perf_counter()
            tables = evaluate_corpus(corpus, timeout_ms=bench_timeout_ms,
                                     jobs=jobs, perf=perf)
            wall = time.perf_counter() - started
            outcome[label] = (tables, perf, wall)
    finally:
        configure_shared_cache(previous_dir)
        configure_instrumentation_cache(enabled=True)
        configure_solver_cache(enabled=True)
    return outcome


def test_parallel_tables_match_serial(runs):
    serial, parallel = runs["serial"][0], runs["parallel"][0]
    assert {t: m.format() for t, m in serial.items()} \
        == {t: m.format() for t, m in parallel.items()}


def test_instrumentation_cache_eliminates_repeat_work(runs, corpus):
    """Each distinct module is instrumented once (cache misses), and
    every redeployment beyond that — the second dynamic tool plus any
    duplicate binaries in the corpus — hits the cache."""
    from repro.engine import module_fingerprint
    distinct = len({module_fingerprint(s.module) for s in corpus})
    _, perf, _ = runs["serial"]
    assert perf.cache["instr_cache_misses"] == distinct
    # wasai + eosfuzzer each deploy every sample exactly once.
    assert perf.cache["instr_cache_hits"] == 2 * len(corpus) - distinct


def test_campaign_throughput_positive(runs):
    for label in ("serial", "parallel"):
        _, perf, _ = runs[label]
        assert perf.campaigns > 0
        assert perf.campaigns_per_sec > 0
        assert perf.failures == 0


def test_parallel_speedup(runs):
    """>= 2x with 4 workers — only meaningful with >= 4 cores."""
    serial_wall = runs["serial"][2]
    parallel_wall = runs["parallel"][2]
    speedup = serial_wall / max(parallel_wall, 1e-9)
    print(f"\nthroughput: serial {serial_wall:.2f}s, "
          f"parallel({PARALLEL_JOBS}) {parallel_wall:.2f}s, "
          f"speedup {speedup:.2f}x on {os.cpu_count()} CPUs")
    if (os.cpu_count() or 1) < PARALLEL_JOBS:
        pytest.skip(f"needs >= {PARALLEL_JOBS} CPUs for the 2x bar "
                    f"(host has {os.cpu_count()})")
    assert speedup >= 2.0


def test_parallel_never_slower(runs):
    """Perf-smoke floor: warm workers + shared caches must keep the
    4-worker run at least as fast as serial whenever there is any
    parallelism to exploit.  CI fails the build on a regression here."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip(f"needs >= 2 CPUs (host has {os.cpu_count()})")
    serial_wall = runs["serial"][2]
    parallel_wall = runs["parallel"][2]
    speedup = serial_wall / max(parallel_wall, 1e-9)
    assert speedup >= 1.0, \
        f"parallel run slower than serial ({speedup:.2f}x)"


def test_write_throughput_report(runs, bench_scale, bench_timeout_ms):
    serial_tables, serial_perf, serial_wall = runs["serial"]
    _, parallel_perf, parallel_wall = runs["parallel"]
    out = Path(os.environ.get(
        "REPRO_THROUGHPUT_OUT",
        Path(__file__).resolve().parents[1] / "BENCH_throughput.json"))
    doc = {
        "benchmark": "table4_corpus_throughput",
        "scale": bench_scale,
        "timeout_ms": bench_timeout_ms,
        "cpu_count": os.cpu_count(),
        "parallel_jobs": PARALLEL_JOBS,
        "serial": serial_perf.as_dict(),
        "parallel": parallel_perf.as_dict(),
        "speedup": serial_wall / max(parallel_wall, 1e-9),
        "translation_enabled": translation_enabled(),
        "shared_cache": True,
        "wasai_total_f1": serial_tables["wasai"].total().f1,
    }
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for label, perf in (("serial", serial_perf),
                        ("parallel", parallel_perf)):
        print(f"\n[{label}]")
        print(perf.format())
    assert out.exists()
