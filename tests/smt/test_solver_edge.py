"""Edge cases of the layered solver: budgets, stats, model completion."""

import pytest

from repro.smt import (And, BitVec, BitVecVal, Eq, Ne, Or, SAT, Solver,
                       SolverStats, UGE, ULT, UNKNOWN, UNSAT, evaluate)


def test_empty_check_is_sat_with_empty_model():
    solver = Solver()
    assert solver.check() == SAT
    assert solver.model().as_dict() == {}


def test_model_defaults_unmentioned_vars_to_zero():
    x = BitVec("only", 8)
    solver = Solver()
    solver.add(Eq(x, BitVecVal(5, 8)))
    assert solver.check() == SAT
    model = solver.model()
    assert model["never_mentioned"] == 0
    assert "never_mentioned" not in model


def test_model_before_check_raises():
    with pytest.raises(RuntimeError):
        Solver().model()


def test_trivially_false_constraint():
    from repro.smt import FALSE
    solver = Solver()
    solver.add(FALSE)
    assert solver.check() == UNSAT


def test_non_boolean_constraint_rejected():
    solver = Solver()
    with pytest.raises(TypeError):
        solver.add(BitVecVal(1, 8))


def test_stats_accumulate_across_checks():
    stats = SolverStats()
    x = BitVec("sx", 8)
    for value in range(4):
        solver = Solver(stats=stats)
        solver.add(Eq(x, BitVecVal(value, 8)))
        solver.check()
    assert stats.checks == 4
    assert stats.fast_path_hits == 4
    assert stats.as_dict()["sat_calls"] == 0


def test_fast_path_declines_multi_var_atoms():
    x = BitVec("mx", 8)
    y = BitVec("my", 8)
    solver = Solver()
    solver.add(Eq(x, y))
    assert solver.check() == SAT
    assert solver.stats.sat_calls == 1  # fell through to SAT


def test_fast_path_handles_ne_chains():
    x = BitVec("nx", 4)  # 16 possible values
    solver = Solver()
    for value in range(15):
        solver.add(Ne(x, BitVecVal(value, 4)))
    assert solver.check() == SAT
    assert solver.model()["nx"] == 15
    solver.add(Ne(x, BitVecVal(15, 4)))
    assert solver.check() == UNSAT


def test_disjunction_of_ranges():
    x = BitVec("dx", 8)
    constraint = Or(ULT(x, BitVecVal(10, 8)),
                    UGE(x, BitVecVal(250, 8)))
    solver = Solver()
    solver.add(constraint)
    solver.add(UGE(x, BitVecVal(10, 8)))
    assert solver.check() == SAT
    assert solver.model()["dx"] >= 250


def test_all_values_model_validation():
    """Any SAT model must actually satisfy every constraint."""
    x = BitVec("vx", 8)
    y = BitVec("vy", 8)
    constraints = [Eq(x + y, BitVecVal(100, 8)),
                   ULT(x, BitVecVal(50, 8)),
                   UGE(y, BitVecVal(60, 8))]
    solver = Solver()
    for c in constraints:
        solver.add(c)
    assert solver.check() == SAT
    model = solver.model().as_dict()
    for c in constraints:
        assert evaluate(c, model) is True


def test_push_pop_nesting():
    x = BitVec("px", 8)
    solver = Solver()
    solver.add(ULT(x, BitVecVal(100, 8)))
    solver.push()
    solver.add(UGE(x, BitVecVal(50, 8)))
    solver.push()
    solver.add(UGE(x, BitVecVal(100, 8)))
    assert solver.check() == UNSAT
    solver.pop()
    assert solver.check() == SAT
    assert 50 <= solver.model()["px"] < 100
    solver.pop()
    assert len(solver.assertions()) == 1


def test_wide_bitvector():
    x = BitVec("wide", 128)
    big = (1 << 100) + 12345
    solver = Solver()
    solver.add(Eq(x, BitVecVal(big, 128)))
    assert solver.check() == SAT
    assert solver.model()["wide"] == big


def test_pop_without_push_raises_runtime_error():
    solver = Solver()
    with pytest.raises(RuntimeError, match="no matching push"):
        solver.pop()
    # Balanced push/pop still works afterwards.
    solver.push()
    solver.pop()
    with pytest.raises(RuntimeError):
        solver.pop()
