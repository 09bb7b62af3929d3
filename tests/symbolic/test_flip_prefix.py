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

The models themselves are pinned too: one sha256 of (branch id, status,
sorted model) per SAT-layer query, in ``flip_prefix_pinned.json``.  A
query the interval layer refutes while it holds an atom outside that
layer's witness shape counts as a SAT-layer query too: a fresh blast
must also find it unsat, and its digest is the one a blast gives.  The
symbolic engine turns every model into a seed, so a change to the
blaster's encodings must leave this file passing unless it means to
move seeds.  An intended change regenerates it::

    PYTHONPATH=src python tests/symbolic/test_flip_prefix.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import build_rq1_contracts, build_table4_corpus, obfuscated_variant
from repro.engine import fuzzer
from repro.harness import run_wasai
from repro.smt import (SAT, TRUE, UNSAT, BlastedPrefix, Solver, SolverStats,
                       configure_solver_cache, evaluate, free_variables)

TIMEOUT_MS = 6_000
PINNED = Path(__file__).with_name("flip_prefix_pinned.json")


def _record_batches():
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


@pytest.fixture(scope="module")
def batches():
    return _record_batches()


@pytest.fixture
def uncached():
    """Both sides really solve: no answer comes from the result cache."""
    configure_solver_cache(enabled=False)
    yield
    configure_solver_cache(enabled=True)


def _variables(constraints):
    return set().union(*map(free_variables, constraints))


def _witness_shaped(constraint):
    """``var <op> const`` or its negation (or ``TRUE``, which the solver
    drops): the only atoms the interval layer gives a witness for."""
    atom = constraint.args[0] if constraint.op == "not" else constraint
    return constraint is TRUE \
        or sorted(arg.op for arg in atom.args) == ["bvconst", "bvvar"]


def _sat_layer_query(stats, constraints):
    """Whether a checked query counts as a SAT-layer one: it reached the
    SAT layer, or the interval layer refuted it while it held an atom
    outside the witness shape."""
    return stats.sat_calls or (
        stats.fast_path_hits
        and not all(map(_witness_shaped, constraints)))


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
            if not _sat_layer_query(stats, query.constraints):
                continue    # decided by the fast path alone
            sat_layer += 1
            if not stats.sat_calls:
                # Refuted by the interval layer: a fresh blast agrees.
                constraints = [c for c in query.constraints if c is not TRUE]
                sat_solver, _ = BlastedPrefix().blast(constraints)
                assert status == UNSAT, query.branch_id
                assert sat_solver.solve().status == UNSAT, query.branch_id
                continue
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


def test_fast_path_agrees_with_the_sat_layer(batches, uncached):
    """The other half of the differential pair: every query the
    interval fast path decides gets the same status from a blast, and
    each side's model satisfies every constraint (the two models may
    differ)."""
    decided = {SAT: 0, UNSAT: 0}
    for queries in batches:
        for query in queries:
            stats = SolverStats()
            fast = Solver(stats=stats)
            fast.add(*query.constraints)
            status = fast.check()
            if not stats.fast_path_hits:
                continue
            decided[status] += 1
            constraints = [c for c in query.constraints if c is not TRUE]
            sat_solver, blaster = BlastedPrefix().blast(constraints)
            result = sat_solver.solve(max_conflicts=fast.max_conflicts)
            assert result.status == status, query.branch_id
            if status == SAT:
                for model in (fast.model().as_dict(),
                              blaster.decode(result.model)):
                    assert all(evaluate(c, model) is True
                               for c in constraints), query.branch_id
    assert decided[SAT] >= 40 and decided[UNSAT] >= 19, decided


def _model_digests(batches):
    """One sha256 of (branch id, status, sorted model) per SAT-layer
    query (see :func:`_sat_layer_query`), each batch sharing one prefix
    as ``solve_flips`` does.  The result cache must be off."""
    digests = []
    for queries in batches:
        prefix = BlastedPrefix()
        for query in queries:
            stats = SolverStats()
            solver = Solver(stats=stats, prefix=prefix)
            solver.add(*query.constraints)
            status = solver.check()
            if not _sat_layer_query(stats, query.constraints):
                continue
            model = (sorted(solver.model().as_dict().items())
                     if status == SAT else None)
            body = json.dumps([query.branch_id, status, model])
            digests.append(hashlib.sha256(body.encode("utf-8")).hexdigest())
    return digests


def test_sat_layer_models_match_pinned_digests(batches, uncached):
    pinned = json.loads(PINNED.read_text())["digests"]
    digests = _model_digests(batches)
    assert len(digests) == len(pinned)
    moved = [i for i, (digest, pin) in enumerate(zip(digests, pinned))
             if digest != pin]
    assert not moved, f"queries whose model changed: {moved}"


if __name__ == "__main__":
    configure_solver_cache(enabled=False)
    digests = _model_digests(_record_batches())
    PINNED.write_text(json.dumps({"digests": digests}, indent=0) + "\n")
    print(f"wrote {len(digests)} digests to {PINNED}")
