"""Integration and property-based tests for the layered Solver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (And, BitVec, BitVecVal, Concat, Eq, Extract, Ne, Not,
                       Or, Popcnt, SAT, SGT, SLT, Solver, SolverStats, UGE,
                       ULT, UNSAT, ZeroExt, evaluate)


def check_sat_model(solver, *constraints):
    for c in constraints:
        solver.add(c)
    assert solver.check() == SAT
    model = solver.model()
    for c in constraints:
        assert evaluate(c, model.as_dict()) is True
    return model


def test_equality_constraint():
    x = BitVec("x", 32)
    model = check_sat_model(Solver(), Eq(x, BitVecVal(12345, 32)))
    assert model[x] == 12345


def test_conflicting_equalities_unsat():
    x = BitVec("x", 32)
    solver = Solver()
    solver.add(Eq(x, BitVecVal(1, 32)))
    solver.add(Eq(x, BitVecVal(2, 32)))
    assert solver.check() == UNSAT


def test_range_constraints_fast_path():
    x = BitVec("x", 16)
    solver = Solver()
    model = check_sat_model(solver, UGE(x, BitVecVal(100, 16)),
                            ULT(x, BitVecVal(105, 16)),
                            Ne(x, BitVecVal(100, 16)))
    assert 101 <= model[x] < 105
    assert solver.stats.fast_path_hits == 1
    assert solver.stats.sat_calls == 0


def test_empty_range_unsat_fast_path():
    x = BitVec("x", 16)
    solver = Solver()
    solver.add(ULT(x, BitVecVal(5, 16)))
    solver.add(UGE(x, BitVecVal(5, 16)))
    assert solver.check() == UNSAT
    assert solver.stats.sat_calls == 0


def test_arithmetic_needs_sat_layer():
    x = BitVec("x", 16)
    y = BitVec("y", 16)
    solver = Solver()
    model = check_sat_model(solver, Eq(x + y, BitVecVal(10, 16)),
                            Eq(x, BitVecVal(3, 16)))
    assert model[y] == 7
    assert solver.stats.sat_calls == 1


def test_multiplication():
    x = BitVec("x", 12)
    model = check_sat_model(Solver(), Eq(x * BitVecVal(3, 12), BitVecVal(21, 12)),
                            ULT(x, BitVecVal(100, 12)))
    assert model[x] == 7


def test_signed_comparison():
    x = BitVec("x", 8)
    model = check_sat_model(Solver(), SLT(x, BitVecVal(0, 8)),
                            SGT(x, BitVecVal(-3, 8)))
    # x in {-2, -1} i.e. {0xFE, 0xFF}
    assert model[x] in (0xFE, 0xFF)


def test_popcnt_constraint():
    # The paper's popcount obfuscation: find x with popcnt(x) == 3.
    x = BitVec("x", 16)
    model = check_sat_model(Solver(), Eq(Popcnt(x), BitVecVal(3, 16)))
    assert bin(model[x]).count("1") == 3


def test_concat_extract_constraint():
    x = BitVec("x", 8)
    y = BitVec("y", 8)
    joined = Concat(x, y)
    model = check_sat_model(Solver(), Eq(joined, BitVecVal(0xBEEF, 16)))
    assert model[x] == 0xBE
    assert model[y] == 0xEF


def test_extract_constraint():
    x = BitVec("x", 32)
    model = check_sat_model(Solver(), Eq(Extract(15, 8, x), BitVecVal(0x5A, 8)),
                            Eq(Extract(7, 0, x), BitVecVal(0x01, 8)))
    assert (model[x] >> 8) & 0xFF == 0x5A
    assert model[x] & 0xFF == 0x01


def test_boolean_structure():
    x = BitVec("x", 8)
    y = BitVec("y", 8)
    c = Or(Eq(x, BitVecVal(1, 8)), Eq(y, BitVecVal(2, 8)))
    model = check_sat_model(Solver(), c, Ne(x, BitVecVal(1, 8)))
    assert model[y] == 2


def test_push_pop():
    x = BitVec("x", 8)
    solver = Solver()
    solver.add(ULT(x, BitVecVal(10, 8)))
    solver.push()
    solver.add(UGE(x, BitVecVal(10, 8)))
    assert solver.check() == UNSAT
    solver.pop()
    assert solver.check() == SAT


def test_check_with_extra_assumptions():
    x = BitVec("x", 8)
    solver = Solver()
    solver.add(ULT(x, BitVecVal(10, 8)))
    assert solver.check(Eq(x, BitVecVal(3, 8))) == SAT
    assert solver.check(Eq(x, BitVecVal(30, 8))) == UNSAT
    # Extra constraints must not persist.
    assert solver.check() == SAT


def test_check_rejects_non_boolean_extra():
    """``check(*extra)`` takes what ``add`` takes: a bitvector is a
    caller's error, not a query that ends "unknown" in the stats."""
    solver = Solver()
    with pytest.raises(TypeError, match="boolean"):
        solver.check(BitVec("x", 8) + 1)
    assert solver.stats.as_dict() == SolverStats().as_dict()


def test_division_constraint():
    from repro.smt import UDiv
    x = BitVec("x", 8)
    model = check_sat_model(Solver(), Eq(UDiv(x, BitVecVal(3, 8)), BitVecVal(5, 8)),
                            ULT(x, BitVecVal(18, 8)))
    assert model[x] // 3 == 5


def test_shift_by_variable():
    x = BitVec("x", 8)
    s = BitVec("s", 8)
    model = check_sat_model(Solver(),
                            Eq(BitVecVal(1, 8) << s, BitVecVal(16, 8)),
                            ULT(s, BitVecVal(8, 8)))
    assert model[s] == 4


@settings(max_examples=40, deadline=None)
@given(a=st.integers(0, 0xFFFF), b=st.integers(0, 0xFFFF))
def test_property_sum_equation_solvable(a, b):
    """For any target (a+b), the solver finds operands that reach it."""
    target = (a + b) & 0xFFFF
    x = BitVec("px", 16)
    y = BitVec("py", 16)
    solver = Solver()
    solver.add(Eq(x + y, BitVecVal(target, 16)))
    assert solver.check() == SAT
    model = solver.model()
    assert (model[x] + model[y]) & 0xFFFF == target


@settings(max_examples=30, deadline=None)
@given(value=st.integers(0, 2**32 - 1))
def test_property_model_reproduces_pinned_value(value):
    x = BitVec("pinned", 32)
    solver = Solver()
    solver.add(Eq(x, BitVecVal(value, 32)))
    assert solver.check() == SAT
    assert solver.model()[x] == value


@settings(max_examples=25, deadline=None)
@given(lo=st.integers(0, 250), span=st.integers(1, 5))
def test_property_interval_witness_in_range(lo, span):
    x = BitVec("w", 8)
    hi = min(lo + span, 255)
    solver = Solver()
    from repro.smt import ULE
    solver.add(UGE(x, BitVecVal(lo, 8)))
    solver.add(ULE(x, BitVecVal(hi, 8)))
    assert solver.check() == SAT
    assert lo <= solver.model()[x] <= hi


@settings(max_examples=20, deadline=None)
@given(value=st.integers(0, 255), mask_bits=st.integers(0, 255))
def test_property_xor_inversion(value, mask_bits):
    """x ^ mask == value always has the unique solution value ^ mask."""
    x = BitVec("xv", 8)
    solver = Solver()
    solver.add(Eq(x ^ BitVecVal(mask_bits, 8), BitVecVal(value, 8)))
    assert solver.check() == SAT
    assert solver.model()[x] == value ^ mask_bits
