"""Unit tests for the CDCL SAT solver."""

import gc
import itertools
import random

import pytest

from repro.smt.sat import SAT, UNKNOWN, UNSAT, SatSolver


def make_solver(num_vars):
    solver = SatSolver()
    variables = [solver.new_var() for _ in range(num_vars)]
    return solver, variables


def test_empty_is_sat():
    solver = SatSolver()
    assert solver.solve().status == SAT


def test_single_unit_clause():
    solver, (a,) = make_solver(1)
    solver.add_clause([a])
    result = solver.solve()
    assert result.status == SAT
    assert result.model[a] is True


def test_contradicting_units_unsat():
    solver, (a,) = make_solver(1)
    solver.add_clause([a])
    solver.add_clause([-a])
    assert solver.solve().status == UNSAT


def test_empty_clause_unsat():
    solver, _ = make_solver(1)
    solver.add_clause([])
    assert solver.solve().status == UNSAT


def test_tautology_dropped():
    solver, (a,) = make_solver(1)
    solver.add_clause([a, -a])
    assert solver.solve().status == SAT


def test_simple_implication_chain():
    solver, v = make_solver(5)
    solver.add_clause([v[0]])
    for i in range(4):
        solver.add_clause([-v[i], v[i + 1]])
    result = solver.solve()
    assert result.status == SAT
    assert all(result.model[x] for x in v)


def test_pigeonhole_2_into_1_unsat():
    # Two pigeons, one hole.
    solver, (p1, p2) = make_solver(2)
    solver.add_clause([p1])
    solver.add_clause([p2])
    solver.add_clause([-p1, -p2])
    assert solver.solve().status == UNSAT


def test_pigeonhole_3_into_2_unsat():
    solver = SatSolver()
    # x[i][j]: pigeon i in hole j.
    x = [[solver.new_var() for _ in range(2)] for _ in range(3)]
    for i in range(3):
        solver.add_clause([x[i][0], x[i][1]])
    for j in range(2):
        for i1 in range(3):
            for i2 in range(i1 + 1, 3):
                solver.add_clause([-x[i1][j], -x[i2][j]])
    assert solver.solve().status == UNSAT


def test_xor_chain_sat():
    # Encode a xor b = 1 via CNF, check model validity.
    solver, (a, b) = make_solver(2)
    solver.add_clause([a, b])
    solver.add_clause([-a, -b])
    result = solver.solve()
    assert result.status == SAT
    assert result.model[a] != result.model[b]


def test_assumptions_sat_and_unsat():
    solver, (a, b) = make_solver(2)
    solver.add_clause([-a, b])
    assert solver.solve(assumptions=[a]).status == SAT
    assert solver.solve(assumptions=[a, -b]).status == UNSAT
    # Solver state must be reusable after assumption failure.
    assert solver.solve().status == SAT


def test_conflict_budget_reports_unknown():
    # A hard random 3-SAT-ish instance with a tiny budget.
    rng = random.Random(7)
    solver = SatSolver()
    variables = [solver.new_var() for _ in range(60)]
    for _ in range(260):
        clause = rng.sample(variables, 3)
        solver.add_clause([v if rng.random() < 0.5 else -v for v in clause])
    result = solver.solve(max_conflicts=1)
    assert result.status in (SAT, UNSAT, UNKNOWN)


def _check_brute_force(num_vars, clauses):
    """Reference truth for small formulas."""
    for bits in itertools.product([False, True], repeat=num_vars):
        ok = True
        for clause in clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


@pytest.mark.parametrize("seed", range(12))
def test_random_instances_agree_with_brute_force(seed):
    rng = random.Random(seed)
    num_vars = rng.randint(3, 8)
    num_clauses = rng.randint(2, 24)
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, 3)
        lits = rng.sample(range(1, num_vars + 1), min(size, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in lits])
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve()
    expected = _check_brute_force(num_vars, clauses)
    assert (result.status == SAT) == expected
    if result.status == SAT:
        for clause in clauses:
            assert any(result.model[abs(l)] == (l > 0) for l in clause)


def test_literal_out_of_range_rejected():
    solver, _ = make_solver(1)
    with pytest.raises(ValueError):
        solver.add_clause([5])
    with pytest.raises(ValueError):
        solver.add_clause([0])


def _random_3sat(num_vars, num_clauses, seed):
    rng = random.Random(seed)
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    for _ in range(num_clauses):
        solver.add_clause([v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, num_vars + 1), 3)])
    return solver


def _tracked_objects(root):
    """GC-tracked objects reachable from ``root``, classes excluded."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if (id(ref) not in seen and gc.is_tracked(ref)
                    and not isinstance(ref, type)):
                seen.add(id(ref))
                stack.append(ref)
    return len(seen) - 1


def test_solver_owns_a_constant_number_of_gc_objects():
    """Clauses, watches and reasons live in flat int lists: a solver
    holding 10,000 clauses costs the collector a handful of objects,
    learnt clauses included."""
    solver = _random_3sat(4_000, 10_000, seed=3)
    assert _tracked_objects(solver) <= 16
    assert solver.solve().status == SAT
    hard = _random_3sat(60, 255, seed=11)
    assert hard.solve().conflicts > 0
    assert _tracked_objects(hard) <= 16


def _outcome(result):
    return result.status, result.conflicts, sorted(result.model.items())


def test_solving_a_copy_leaves_the_original_unchanged():
    reference = _random_3sat(45, 190, seed=5)
    original = _random_3sat(45, 190, seed=5)
    twin = original.copy()
    # The copy searches exactly as the original would...
    assert _outcome(twin.solve([1, -2])) == _outcome(reference.solve([1, -2]))
    assert twin.solve().conflicts > 0
    # ...and its learnt clauses, reordered watches and bumped activities
    # stay its own.
    fresh = _random_3sat(45, 190, seed=5)
    assert _outcome(original.solve()) == _outcome(fresh.solve())
