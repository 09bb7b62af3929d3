"""Shared-prefix flip solving against fresh solves, query by query.

:func:`~repro.symbolic.solve_flips` bit-blasts each batch's path once,
through one :class:`~repro.smt.BlastedPrefix`, instead of once per
query.  That may change no answer and no model: every query that
reaches the SAT layer through the shared prefix must get the status and
model a fresh :class:`~repro.smt.Solver` gives it.  Below the solver,
the shared prefix must number the query's variables as a fresh blast
does, and the two CNFs must search identically.

The corpus is every flip batch the fuzzer poses on four RQ1 maze
contracts and on the Table 5 (obfuscated) slice at scale 0.004.
"""

import pytest

from repro import build_rq1_contracts, build_table4_corpus, obfuscated_variant
from repro.engine import fuzzer
from repro.harness import run_wasai
from repro.smt import (SAT, TRUE, BlastedPrefix, Solver, SolverStats,
                       configure_solver_cache, free_variables)

TIMEOUT_MS = 6_000


@pytest.fixture(scope="module")
def batches():
    """The queries of every ``solve_flips`` call over the corpus."""
    targets = [(c.module, c.abi) for c in build_rq1_contracts(count=4)]
    targets += [(s.module, s.contract.abi) for s in
                map(obfuscated_variant, build_table4_corpus(scale=0.004))]
    recorded = []
    solve_flips = fuzzer.solve_flips

    def record(queries, *args, **kwargs):
        recorded.append(list(queries))
        return solve_flips(queries, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fuzzer, "solve_flips", record)
        for index, (module, abi) in enumerate(targets):
            run_wasai(module, abi, timeout_ms=TIMEOUT_MS, rng_seed=7 + index)
    return recorded


@pytest.fixture
def uncached():
    """Both sides really solve: no answer comes from the result cache."""
    configure_solver_cache(enabled=False)
    yield
    configure_solver_cache(enabled=True)


def _variables(constraints):
    return set().union(*map(free_variables, constraints))


def test_shared_prefix_matches_fresh_solves(batches, uncached):
    sat_layer = 0
    new_variable_rebuilds = 0   # started over for a variable the prefix lacks
    for queries in batches:
        prefix = BlastedPrefix()
        for query in queries:
            stats = SolverStats()
            shared = Solver(stats=stats, prefix=prefix)
            shared.add(*query.constraints)
            builds = prefix.builds
            status = shared.check()
            if not stats.sat_calls:
                continue    # decided by the fast path
            sat_layer += 1
            fresh = Solver()
            fresh.add(*query.constraints)
            assert status == fresh.check(), query.branch_id
            if status == SAT:
                assert shared.model().as_dict() == fresh.model().as_dict(), \
                    query.branch_id
            *path, flipped = query.constraints
            if builds and prefix.builds > builds \
                    and free_variables(flipped) - _variables(path):
                new_variable_rebuilds += 1
    assert sat_layer >= 50
    assert new_variable_rebuilds >= 1


def _blast_and_solve(prefix, constraints):
    try:
        sat_solver, blaster = prefix.blast(constraints)
    except ValueError:
        return "not blastable"
    result = sat_solver.solve(max_conflicts=20_000)
    return (sat_solver.num_vars, blaster.var_bits, result.status,
            result.conflicts, result.model)


def test_shared_prefix_blasts_what_a_fresh_blast_does(batches):
    for queries in batches:
        prefix = BlastedPrefix()
        for query in queries:
            constraints = [c for c in query.constraints if c is not TRUE]
            assert _blast_and_solve(prefix, constraints) \
                == _blast_and_solve(BlastedPrefix(), constraints), \
                query.branch_id
