"""The names the repo benchmark reads from the package.

``benchmarks/perf`` (the harness ``BENCHMARK.json`` runs) stays as it
is between benchmark changes, so every name it imports, patches or
reads must keep resolving, even where the package itself no longer
needs it: ``configure_solver_cache``, ``solver_cache`` and
``SolverStats.cache_hits`` from the solver, ``configure_instrumentation_cache``
from the engine, the fuzzer's ``decode_raw_trace`` patch point and
``repro.wasm.translation_enabled``.  This test drives those reads the
way the harness does: the tracer and the report tally installed around
one solver check and one short campaign, then the workloads' cache
reset and ``run.py``'s environment import.
"""

from pathlib import Path

import pytest

import repro.harness as harness
from repro import build_rq1_contracts
from repro.smt import SAT, BitVec, BitVecVal, Eq, Solver

PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


@pytest.fixture
def perf(monkeypatch):
    """The harness's ``tracer`` and ``workloads`` modules, imported as
    ``run.py`` imports them."""
    monkeypatch.syspath_prepend(str(PERF))
    import tracer
    import workloads
    return tracer, workloads


def test_benchmark_reads_resolve(perf):
    tracer, workloads = perf
    traced = tracer.Tracer()
    tally = tracer.ReportTally()
    traced.install()
    undo = tally.observe_run_wasai()
    try:
        solver = Solver()
        solver.add(Eq(BitVec("bench_contract", 8), BitVecVal(3, 8)))
        assert solver.check() == SAT
        contract = build_rq1_contracts(count=1)[0]
        harness.run_wasai(contract.module, contract.abi, timeout_ms=1_000,
                          rng_seed=1)
    finally:
        undo()
        traced.uninstall()
    layers = traced.layers()
    assert layers["smt.check.fast"]["calls"] >= 1
    assert layers["harness.run_wasai"]["calls"] == 1
    assert tally.counts["campaigns"] == 1

    workloads._reset_caches()
    from repro.wasm import translation_enabled
    assert isinstance(translation_enabled(), bool)
