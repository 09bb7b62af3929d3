"""Pinned CDCL search: exact status, conflict count and model.

``test_sat.py`` checks that :class:`SatSolver` answers correctly; this
module checks that it answers *identically*.  The symbolic engine turns
every SAT model into a seed, so a change to propagation order, conflict
analysis, activity bumping or the decision rule moves seeds, coverage
and trace packs even when every answer stays correct.

Each instance is a seeded hard random 3-SAT formula near the phase
transition, solved once under 0-2 assumption literals and then again
on the same solver, which carries over learnt clauses, level-0 units
and variable activity.  One sha256 per instance covers both results
and is compared with ``sat_pinned.json``.  An intended change to the
search regenerates that file, and the diff shows which instances
moved::

    PYTHONPATH=src python tests/smt/test_sat_pinned.py
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.smt.sat import SAT, UNKNOWN, UNSAT, SatSolver

PINNED = Path(__file__).with_name("sat_pinned.json")
INSTANCES = 400
BUDGETS = (None, 20, 200)


def _instance(seed: int) -> tuple[int, list[list[int]], list[int], int | None]:
    rng = random.Random(seed)
    num_vars = rng.randint(10, 45)
    num_clauses = round(num_vars * rng.uniform(3.8, 4.6))
    clauses = [[v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), 3)]
               for _ in range(num_clauses)]
    assumptions = [v if rng.random() < 0.5 else -v
                   for v in rng.sample(range(1, num_vars + 1),
                                       rng.randint(0, 2))]
    return num_vars, clauses, assumptions, rng.choice(BUDGETS)


def _outcome(result, num_vars: int) -> list:
    bits = "".join("1" if result.model[v] else "0"
                   for v in range(1, num_vars + 1)) if result.model else ""
    return [result.status, result.conflicts, bits]


def _solve(seed: int) -> tuple[str, int, set[str]]:
    """(sha256 of both solves' outcomes, conflicts across both, the
    statuses seen)."""
    num_vars, clauses, assumptions, budget = _instance(seed)
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    first = solver.solve(assumptions, max_conflicts=budget)
    second = solver.solve(max_conflicts=budget)
    body = json.dumps([_outcome(first, num_vars),
                       _outcome(second, num_vars)])
    return (hashlib.sha256(body.encode("utf-8")).hexdigest(),
            first.conflicts + second.conflicts,
            {first.status, second.status})


@pytest.fixture(scope="module")
def solved() -> list[tuple[str, int, set[str]]]:
    return [_solve(seed) for seed in range(INSTANCES)]


def test_search_matches_pinned_digests(solved):
    pinned = json.loads(PINNED.read_text())["digests"]
    assert len(pinned) == INSTANCES
    moved = [seed for seed, (digest, _, _) in enumerate(solved)
             if digest != pinned[seed]]
    assert not moved, f"instances whose search changed: {moved}"


def test_instances_exercise_the_whole_search(solved):
    """The pin is only as strong as the search it drives: most
    instances must reach conflict analysis, and every outcome,
    budget-exhausted included, must occur."""
    conflicts = [c for _, c, _ in solved]
    assert sum(1 for c in conflicts if c) >= INSTANCES * 3 // 4
    assert sum(conflicts) >= 5_000
    assert set().union(*(s for _, _, s in solved)) == {SAT, UNSAT, UNKNOWN}


if __name__ == "__main__":
    digests = [_solve(seed)[0] for seed in range(INSTANCES)]
    PINNED.write_text(json.dumps({"digests": digests}, indent=0) + "\n")
    print(f"wrote {len(digests)} digests to {PINNED}")
