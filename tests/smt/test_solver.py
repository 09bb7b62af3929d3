"""Integration and property-based tests for the layered Solver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (FALSE, TRUE, And, BitVec, BitVecVal, Concat, Eq,
                       Extract, Ne, Not, Or, Popcnt, SAT, SGT, SLT, Solver,
                       SolverStats, UGE, UGT, ULE, ULT, UNSAT, ZeroExt,
                       configure_solver_cache, evaluate, free_variables,
                       mask)
from repro.smt.solver import blast_query
from repro.smt.terms import Term


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
    x, y, byte = BitVec("x", 16), BitVec("y", 16), BitVec("rb", 8)
    for constraints in (
            [ULT(x, BitVecVal(5, 16)), UGE(x, BitVecVal(5, 16))],
            # Split between a zero-extended atom and a bare one.
            [ULT(ZeroExt(24, byte), 0x85), UGE(byte, 0x90)],
            # Readable atoms contradict beside ones the domain cannot
            # read.
            [Eq(x + y, 10), ULT(x, 5), UGE(x, 7)],
            [UGE(ZeroExt(8, byte), 3), Eq(x + y, 10), Eq(byte, 2)]):
        solver = Solver()
        solver.add(*constraints)
        assert solver.check() == UNSAT, constraints
        assert solver.stats.fast_path_hits == 1, constraints
        assert solver.stats.sat_calls == 0


def _zeroext_atoms():
    """Every shape of ``zeroext(var) <op> const`` the interval layer
    reads, for constants inside and above the 8-bit variable's range."""
    byte = BitVec("zb", 8)
    wide = ZeroExt(24, byte)
    for c in (0, 1, 0x85, 0xFF, 0x100, 0x1234, 0xFFFFFFFF):
        const = BitVecVal(c, 32)
        compares = [Term("eq", (wide, const)), Term("eq", (const, wide)),
                    ULT(wide, c), ULE(wide, c), UGT(wide, c), UGE(wide, c)]
        for atom in compares:
            yield atom
            yield Not(atom)


@pytest.mark.parametrize("atom", list(_zeroext_atoms()))
def test_zeroext_atom_bounds_its_variable(atom):
    """Beside ``var == v``, a zero-extended atom is decided by the
    interval layer: refuted when v violates it, and otherwise answered
    with ``v`` as the witness."""
    holds = {v for v in range(256) if evaluate(atom, {"zb": v})}
    if not holds:
        solver = Solver()
        solver.add(atom)
        assert solver.check() == UNSAT, atom
        assert solver.stats.fast_path_hits == 1, atom
    for v in (0, 1, 0x84, 0x85, 0x86, 0xFE, 0xFF):
        solver = Solver()
        solver.add(atom, Eq(BitVec("zb", 8), v))
        if v in holds:
            assert solver.check() == SAT, (atom, v)
            assert solver.model()["zb"] == v
        else:
            assert solver.check() == UNSAT, (atom, v)
        assert solver.stats.fast_path_hits == 1, (atom, v)
        assert solver.stats.sat_calls == 0


def test_zeroext_conjunction_gets_an_interval_witness():
    """A satisfiable conjunction holding zero-extended atoms is answered
    by the interval layer.  Its witness satisfies every constraint and
    names every free variable, including one read only by an atom that
    always holds, as a SAT-layer model does."""
    byte, spare, x = BitVec("gb", 8), BitVec("gs", 8), BitVec("gx", 16)
    constraints = [ULT(ZeroExt(24, byte), 0x85), UGE(byte, 0x20),
                   ULT(ZeroExt(24, spare), 0x100), Eq(x, 7)]
    solver = Solver()
    solver.add(*constraints)
    assert solver.check() == SAT
    assert solver.stats.fast_path_hits == 1
    assert solver.stats.sat_calls == 0
    model = solver.model().as_dict()
    assert set(model) == {"gb", "gs", "gx"}
    assert all(evaluate(c, model) is True for c in constraints)


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


_READABLE_VARS = (BitVec("ra", 8), BitVec("rb", 8), BitVec("rw", 16))


@st.composite
def _readable_atom(draw):
    """``var <op> const`` or ``zeroext(var) <op> const``, plain or
    negated; a zero-extended variable also meets constants above its
    range."""
    var = draw(st.sampled_from(_READABLE_VARS))
    top = mask(var.width)
    constants = st.sampled_from((0, 1, top - 1, top)) | st.integers(0, top)
    operand = var
    if draw(st.booleans()):
        operand = ZeroExt(32 - var.width, var)
        constants |= st.sampled_from((top + 1, mask(32))) \
            | st.integers(top + 1, mask(32))
    compare = draw(st.sampled_from((Eq, Ne, ULT, ULE, UGT, UGE)))
    atom = compare(operand, draw(constants))
    return Not(atom) if draw(st.booleans()) else atom


def _fresh_blast_status(constraints):
    """The status a fresh blast of the conjunction gives, after the
    solver's own TRUE/FALSE screening."""
    if any(c is FALSE for c in constraints):
        return UNSAT
    constraints = [c for c in constraints if c is not TRUE]
    if not constraints:
        return SAT
    sat_solver, _ = blast_query(constraints)
    return sat_solver.solve().status


@settings(max_examples=150, deadline=None)
@given(atoms=st.lists(_readable_atom(), min_size=1, max_size=6))
def test_property_readable_conjunction_never_reaches_cdcl(atoms):
    """Any conjunction of readable atoms is decided by the interval
    layer, with the status a fresh blast gives; a witness satisfies
    every atom and names every free variable."""
    configure_solver_cache(enabled=False)
    try:
        solver = Solver()
        solver.add(*atoms)
        status = solver.check()
    finally:
        configure_solver_cache(enabled=True)
    assert status == _fresh_blast_status(atoms)
    assert solver.stats.sat_calls == 0
    if status == SAT:
        model = solver.model().as_dict()
        assert set(model) == {var.payload[0] for var in
                              set().union(*map(free_variables, atoms))}
        assert all(evaluate(atom, model) is True for atom in atoms)


@settings(max_examples=20, deadline=None)
@given(value=st.integers(0, 255), mask_bits=st.integers(0, 255))
def test_property_xor_inversion(value, mask_bits):
    """x ^ mask == value always has the unique solution value ^ mask."""
    x = BitVec("xv", 8)
    solver = Solver()
    solver.add(Eq(x ^ BitVecVal(mask_bits, 8), BitVecVal(value, 8)))
    assert solver.check() == SAT
    assert solver.model()[x] == value ^ mask_bits
