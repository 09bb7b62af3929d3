"""repro.smt — a pure-Python SMT layer over bitvectors.

This package replaces the Z3 backend the WASAI paper uses (see
DESIGN.md, "Substitutions").  It provides:

* :mod:`repro.smt.terms` — hash-consed bitvector/boolean expressions
  with a z3py-flavoured construction API,
* :mod:`repro.smt.solver` — a layered solver (rewriting, interval
  propagation, bit-blasting into a CDCL SAT solver),
* :mod:`repro.smt.sat` / :mod:`repro.smt.bitblast` — the complete
  decision procedure.
"""

from .sat import SAT, UNKNOWN, UNSAT, SatSolver
from .solver import (BlastedPrefix, Model, Solver, SolverCache, SolverStats,
                     configure_solver_cache, solver_cache)
from .terms import (And, BitVec, BitVecVal, BoolVal, Clz, Concat, Ctz, Eq,
                    Extract, FALSE, Implies, Ite, Ne, Not, Or, Popcnt, Rotl,
                    Rotr, SGE, SGT, SLE, SLT, SignExt, TRUE, Term, UGE, UGT,
                    ULE, ULT, Xor, ZeroExt, evaluate, free_variables, mask,
                    substitute, to_signed, to_unsigned)
from .terms import AShr, SDiv, SRem, UDiv, URem

__all__ = [
    "SAT", "UNKNOWN", "UNSAT", "SatSolver", "Model", "Solver", "SolverStats",
    "BlastedPrefix", "SolverCache", "solver_cache", "configure_solver_cache",
    "And", "BitVec", "BitVecVal", "BoolVal", "Clz", "Concat", "Ctz", "Eq",
    "Extract", "FALSE", "Implies", "Ite", "Ne", "Not", "Or", "Popcnt",
    "Rotl", "Rotr", "SGE", "SGT", "SLE", "SLT", "SignExt", "TRUE", "Term",
    "UGE", "UGT", "ULE", "ULT", "Xor", "ZeroExt", "evaluate",
    "free_variables", "mask", "substitute", "to_signed", "to_unsigned",
    "AShr", "SDiv", "SRem", "UDiv", "URem",
]
