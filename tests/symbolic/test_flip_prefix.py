"""Flip-query answers and models, query by query.

:func:`~repro.symbolic.solve_flips` solves each flip query on its own.
The interval layer answers most of them before anything is blasted;
the rest are blasted afresh (:func:`~repro.smt.solver.blast_query`).
Each query the interval layer decides is checked against a fresh
blast: the same status, and a model that satisfies every constraint
and names every free variable.

The corpus is every flip batch the fuzzer poses on four RQ1 maze
contracts and on the Table 5 (obfuscated) slice at scale 0.004.

The models themselves are pinned too: one sha256 of (branch id, status,
sorted model) per flip query, whichever layer answers it, in
``flip_prefix_pinned.json``.  The symbolic engine turns every model
into a seed, so a change to the interval layer or the blaster's
encodings must leave this file passing unless it means to move seeds.
An intended change regenerates it::

    PYTHONPATH=src python tests/symbolic/test_flip_prefix.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import build_rq1_contracts, build_table4_corpus, obfuscated_variant
from repro.engine import fuzzer
from repro.harness import run_wasai
from repro.smt import (SAT, TRUE, UNSAT, Solver, SolverStats,
                       configure_solver_cache, evaluate, free_variables)
from repro.smt.solver import blast_query

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


def test_fast_path_agrees_with_the_sat_layer(batches, uncached):
    """The fast path vs full solver pair: every query the interval fast
    path decides gets the same status from a fresh blast, and each
    side's model satisfies every constraint (the two models may
    differ).  An interval model names every free variable of the query,
    as the blast's model does."""
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
            sat_solver, blaster = blast_query(constraints)
            result = sat_solver.solve(max_conflicts=fast.max_conflicts)
            assert result.status == status, query.branch_id
            if status == SAT:
                witness = fast.model().as_dict()
                assert set(witness) == {var.payload[0] for var in
                                        _variables(constraints)}, \
                    query.branch_id
                for model in (witness, blaster.decode(result.model)):
                    assert all(evaluate(c, model) is True
                               for c in constraints), query.branch_id
    assert decided[SAT] >= 82 and decided[UNSAT] >= 19, decided


def _model_digests(batches):
    """One sha256 of (branch id, status, sorted model) per flip query,
    whichever layer answers it.  The result cache must be off."""
    digests = []
    for queries in batches:
        for query in queries:
            solver = Solver()
            solver.add(*query.constraints)
            status = solver.check()
            model = (sorted(solver.model().as_dict().items())
                     if status == SAT else None)
            body = json.dumps([query.branch_id, status, model])
            digests.append(hashlib.sha256(body.encode("utf-8")).hexdigest())
    return digests


def test_sat_layer_models_match_pinned_digests(batches, uncached):
    """Every flip query's status and model, whichever layer answers
    it, matches its pin."""
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
