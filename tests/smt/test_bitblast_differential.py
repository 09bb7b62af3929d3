"""Differential tests: the bit-blaster against the term evaluator.

For random expressions and inputs, asserting ``expr == concrete result``
must be SAT with a model matching the inputs, and asserting
``expr != concrete result`` under pinned inputs must be UNSAT.  This
cross-checks the CNF encodings of every operator against the direct
Python semantics in :func:`repro.smt.terms.evaluate`.

The blaster folds constants at every gate, so each binop is also built
with a constant operand on either side, and comparisons are blasted
against constants directly (the solver's fast path would otherwise
decide them without a blast).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (AShr, And, BitVec, BitVecVal, Clz, Ctz, Eq, Ne,
                       Popcnt, Rotl, Rotr, SAT, SDiv, SLE, SLT, SRem,
                       SatSolver, SignExt, Solver, UDiv, ULE, ULT, UNSAT,
                       URem, ZeroExt, evaluate, free_variables)
from repro.smt.bitblast import BitBlaster

BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b,
    "lshr": lambda a, b: a >> b,
    "ashr": AShr,
    "rotl": Rotl,
    "rotr": Rotr,
    "udiv": UDiv,
    "urem": URem,
    "sdiv": SDiv,
    "srem": SRem,
}


def assert_op_matches(op_name, a_val, b_val, width):
    x = BitVec(f"dx_{op_name}_{width}", width)
    y = BitVec(f"dy_{op_name}_{width}", width)
    a, b = BitVecVal(a_val, width), BitVecVal(b_val, width)
    op = BINOPS[op_name]
    # Two variables, then a constant on either side: the gates then
    # see the constant literal as an operand.
    for expr in (op(x, y), op(x, b), op(a, y)):
        expected = evaluate(expr, {x.payload[0]: a_val, y.payload[0]: b_val})
        case = (op_name, a_val, b_val, expr.op)
        solver = Solver()
        solver.add(Eq(x, a))
        solver.add(Eq(y, b))
        solver.add(Eq(expr, BitVecVal(expected, width)))
        assert solver.check() == SAT, case
        # And the negation must be impossible.
        refute = Solver()
        refute.add(Eq(x, a))
        refute.add(Eq(y, b))
        refute.add(Ne(expr, BitVecVal(expected, width)))
        assert refute.check() == UNSAT, case


@pytest.mark.parametrize("op_name", sorted(BINOPS))
def test_binop_known_vectors(op_name):
    for a_val, b_val in ((0, 0), (1, 1), (0xFF, 3), (0x80, 0x7F),
                         (0xAB, 0), (5, 0xFF)):
        assert_op_matches(op_name, a_val, b_val, 8)


@settings(max_examples=25, deadline=None)
@given(a=st.integers(0, 255), b=st.integers(0, 255),
       op=st.sampled_from(sorted(BINOPS)))
def test_property_binops_8bit(a, b, op):
    assert_op_matches(op, a, b, 8)


@settings(max_examples=12, deadline=None)
@given(a=st.integers(0, 2**16 - 1), b=st.integers(0, 2**16 - 1),
       op=st.sampled_from(["add", "sub", "and", "or", "xor", "shl",
                           "lshr", "ashr", "rotl", "rotr"]))
def test_property_binops_16bit(a, b, op):
    assert_op_matches(op, a, b, 16)


@settings(max_examples=20, deadline=None)
@given(a=st.integers(0, 255),
       unop=st.sampled_from(["popcnt", "clz", "ctz", "not", "neg"]))
def test_property_unops(a, unop):
    x = BitVec(f"du_{unop}", 8)
    expr = {"popcnt": Popcnt, "clz": Clz, "ctz": Ctz,
            "not": lambda v: ~v, "neg": lambda v: -v}[unop](x)
    expected = evaluate(expr, {x.payload[0]: a})
    solver = Solver()
    solver.add(Eq(x, BitVecVal(a, 8)))
    solver.add(Ne(expr, BitVecVal(expected, 8)))
    assert solver.check() == UNSAT


@settings(max_examples=20, deadline=None)
@given(a=st.integers(0, 255), extra=st.integers(1, 8))
def test_property_extensions(a, extra):
    x = BitVec("dext", 8)
    for builder in (ZeroExt, SignExt):
        expr = builder(extra, x)
        expected = evaluate(expr, {"dext": a})
        solver = Solver()
        solver.add(Eq(x, BitVecVal(a, 8)))
        solver.add(Ne(expr, BitVecVal(expected, 8 + extra)))
        assert solver.check() == UNSAT


@settings(max_examples=15, deadline=None)
@given(a=st.integers(0, 2**16 - 1), b=st.integers(0, 2**16 - 1),
       c=st.integers(0, 2**16 - 1))
def test_property_composed_expressions(a, b, c):
    """Nested expressions: ((x ^ y) + (z | x)) * y pinned to inputs."""
    x = BitVec("cx", 16)
    y = BitVec("cy", 16)
    z = BitVec("cz", 16)
    expr = ((x ^ y) + (z | x)) * y
    expected = evaluate(expr, {"cx": a, "cy": b, "cz": c})
    solver = Solver()
    solver.add(Eq(x, BitVecVal(a, 16)))
    solver.add(Eq(y, BitVecVal(b, 16)))
    solver.add(Eq(z, BitVecVal(c, 16)))
    solver.add(Ne(expr, BitVecVal(expected, 16)))
    assert solver.check() == UNSAT


COMPARISONS = {"eq": Eq, "ult": ULT, "ule": ULE, "slt": SLT, "sle": SLE}
EDGES = (0, 1, 0x7F, 0x80, 0xFE, 0xFF)


def _blast(*constraints):
    """(SAT solver, variables added, clauses stored) when
    ``constraints`` are asserted after their input bits are declared."""
    sat_solver = SatSolver()
    blaster = BitBlaster(sat_solver)
    for constraint in constraints:
        for var in free_variables(constraint):
            blaster.blast_bv(var)
    num_vars, num_clauses = sat_solver.num_vars, len(sat_solver._start)
    for constraint in constraints:
        blaster.assert_term(constraint)
    return (sat_solver, sat_solver.num_vars - num_vars,
            len(sat_solver._start) - num_clauses)


@pytest.mark.parametrize("cmp", sorted(COMPARISONS))
def test_comparison_against_constant(cmp):
    """``x <op> K`` and ``K <op> x``, blasted without the fast path,
    hold exactly when the evaluator says so."""
    x = BitVec(f"dc_{cmp}", 8)
    for a_val in EDGES:
        for k_val in EDGES:
            k = BitVecVal(k_val, 8)
            for constraint in (COMPARISONS[cmp](x, k), COMPARISONS[cmp](k, x)):
                holds = evaluate(constraint, {x.payload[0]: a_val})
                sat_solver, _, _ = _blast(Eq(x, BitVecVal(a_val, 8)),
                                          constraint)
                assert sat_solver.solve().status == (SAT if holds else UNSAT), \
                    (cmp, a_val, k_val, constraint.op)


def test_constant_operands_make_no_variables():
    """A constant operand folds into the gates it feeds: ``x == K``
    over 64 bits is one AND gate (the true literal plus its output,
    64 + 1 clauses), and ``x < K`` one or two gates per bit above K's
    lowest set bit.  Without folding they take 129 and 257 variables."""
    x = BitVec("dsize", 64)
    _, num_vars, num_clauses = _blast(Eq(x, BitVecVal(0x0123_4567_89AB_CDEF,
                                                      64)))
    assert (num_vars, num_clauses) == (2, 65)
    _, num_vars, _ = _blast(ULT(x, BitVecVal(1000, 64)))
    assert num_vars <= 66
