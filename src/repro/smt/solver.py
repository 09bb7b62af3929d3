"""The layered constraint solver (the repo's Z3 substitute).

:class:`Solver` exposes the z3py-flavoured ``add`` / ``check`` /
``model`` interface the symbolic engine expects.  Internally it runs
three layers, cheapest first:

1. **Rewriting** — constraints are built through the simplifying
   constructors in :mod:`repro.smt.terms`, so trivially true/false
   branches never reach a search.
2. **Propagation** — single-variable comparisons against constants are
   decided in the unsigned interval domain
   (:mod:`repro.smt.interval`), which covers most constraints WASAI
   flips during fuzzing.  It reads ``var <op> const`` and, under eq/ne
   and the unsigned compares, ``zeroext(var) <op> const``.  A
   conjunction of such atoms gets a witness that names every free
   variable; one whose readable atoms leave some variable no value is
   refuted, whatever its other atoms say.
3. **Bit-blasting + CDCL** — the complete fallback
   (:mod:`repro.smt.bitblast` + :mod:`repro.smt.sat`), budgeted by a
   conflict limit that plays the role of the paper's 3,000 ms cap.
   Each query that reaches it is blasted afresh (:func:`blast_query`):
   atoms the interval layer cannot read, such as signed compares
   across both sign halves, arithmetic and popcount chains.

Every check runs the layers afresh; no answer is kept between checks.
"""

from __future__ import annotations

from ..resilience import faultinject
from ..resilience.errors import CampaignError, SolverError
from .bitblast import BitBlaster
from .interval import Interval, propagate_comparison
from .sat import SAT, UNKNOWN, UNSAT, SatSolver
from .terms import (FALSE, TRUE, Term, evaluate, free_variables, mask)

__all__ = ["Solver", "Model", "SolverStats", "solver_cache",
           "configure_solver_cache", "blast_query", "SAT", "UNSAT", "UNKNOWN"]


class Model:
    """A satisfying assignment: variable name -> unsigned int value."""

    def __init__(self, values: dict[str, int]):
        self._values = dict(values)

    def __getitem__(self, key: "Term | str") -> int:
        name = key if isinstance(key, str) else key.payload[0]
        return self._values.get(name, 0)

    def __contains__(self, key: "Term | str") -> bool:
        name = key if isinstance(key, str) else key.payload[0]
        return name in self._values

    def as_dict(self) -> dict[str, int]:
        return dict(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"Model({inner})"


class SolverStats:
    """Counters for the ablation benchmarks."""

    def __init__(self) -> None:
        self.checks = 0
        self.fast_path_hits = 0
        self.sat_calls = 0
        self.sat_conflicts = 0
        self.unknowns = 0
        # Always 0: every check is solved afresh.
        # benchmarks/perf/tracer.py still reads it on every traced
        # check.  Delete it together with that read (ROADMAP, "Smaller
        # consolidation").
        self.cache_hits = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "checks": self.checks,
            "fast_path_hits": self.fast_path_hits,
            "sat_calls": self.sat_calls,
            "sat_conflicts": self.sat_conflicts,
            "unknowns": self.unknowns,
        }


def solver_cache() -> None:
    """Always None: there is no solver result cache."""
    # benchmarks/perf/tracer.py still calls this on every traced check.
    # Delete it together with that call (ROADMAP, "Smaller
    # consolidation").
    return None


def configure_solver_cache(enabled: bool = True) -> None:
    """Does nothing: every check is solved afresh, and there is no
    result cache left to configure."""
    # benchmarks/perf/workloads.py (``_reset_caches``) still calls this.
    # Delete it together with that call (ROADMAP, "Smaller
    # consolidation").


def _declaration_order(constraints: list[Term]) -> list[Term]:
    """The free variables of ``constraints`` in the order a blast
    numbers their bits: constraint by constraint, and within one in its
    :func:`free_variables` set's iteration order."""
    order: dict[Term, None] = {}
    for constraint in constraints:
        order.update(dict.fromkeys(free_variables(constraint)))
    return list(order)


def blast_query(constraints: list[Term]) -> tuple[SatSolver, BitBlaster]:
    """A fresh solver and blaster holding ``constraints``.

    Every free variable is declared first, in :func:`_declaration_order`,
    so the model covers each of them; then every constraint is
    asserted.  Raises ``ValueError`` for a term the blaster cannot
    encode, as the blaster does."""
    sat_solver = SatSolver()
    blaster = BitBlaster(sat_solver)
    for var in _declaration_order(constraints):
        blaster.blast_bv(var)
    for constraint in constraints:
        blaster.assert_term(constraint)
    return sat_solver, blaster


class Solver:
    """Check satisfiability of a conjunction of boolean terms."""

    def __init__(self, max_conflicts: int = 20_000,
                 stats: SolverStats | None = None):
        self._constraints: list[Term] = []
        self._stack: list[int] = []
        self.max_conflicts = max_conflicts
        self._model: Model | None = None
        self.stats = stats or SolverStats()

    # -- z3py-flavoured interface ------------------------------------------
    def add(self, *constraints: Term) -> None:
        _require_bool(constraints)
        self._constraints.extend(constraints)

    def push(self) -> None:
        self._stack.append(len(self._constraints))

    def pop(self) -> None:
        if not self._stack:
            raise RuntimeError(
                "Solver.pop() called with no matching push(): the "
                "assertion scope stack is empty")
        size = self._stack.pop()
        del self._constraints[size:]

    def assertions(self) -> list[Term]:
        return list(self._constraints)

    def check(self, *extra: Term) -> str:
        """Return "sat", "unsat" or "unknown".

        An internal failure of the search layers is raised as a typed
        :class:`~repro.resilience.SolverError` (never a bare
        exception), so campaign containment can degrade to black-box
        fuzzing instead of aborting.
        """
        _require_bool(extra)
        self.stats.checks += 1
        faultinject.inject("solve")
        constraints = self._constraints + list(extra)
        self._model = None
        if any(c is FALSE for c in constraints):
            return UNSAT
        constraints = [c for c in constraints if c is not TRUE]
        if not constraints:
            self._model = Model({})
            return SAT
        try:
            result = self._try_fast_path(constraints)
            if result is not None:
                self.stats.fast_path_hits += 1
                return result
            return self._check_sat(constraints)
        except CampaignError:
            raise
        except Exception as exc:
            raise SolverError.wrap(exc)

    def model(self) -> Model:
        if self._model is None:
            raise RuntimeError("model() called without a sat check()")
        return self._model

    # -- layer 2: interval propagation ----------------------------------------
    def _try_fast_path(self, constraints: list[Term]) -> str | None:
        """Decide what the interval domain can read.

        Every atom ``var <op> const`` or ``zeroext(var) <op> const``
        narrows ``var``'s interval, and an empty interval refutes the
        whole conjunction, whatever the unread atoms say.  When every
        atom is read, the intervals' smallest values are the witness:
        it names every free variable, as a SAT-layer model does.  A
        conjunction holding an atom the domain cannot read is refuted
        here or punted to the SAT layer (None), never answered SAT.
        """
        intervals: dict[str, Interval] = {}
        witness_shape = True
        for constraint in constraints:
            parsed = _parse_atom(constraint)
            if parsed is None:
                witness_shape = False
                continue
            op, var, constant, var_on_left = parsed
            if var.op == "zeroext":
                var = var.args[0]
                if constant > mask(var.width):
                    # Above var's range: var < c, var <= c and var != c
                    # always hold, the other compares never do.
                    if op == "ne" or (var_on_left and op != "eq"):
                        intervals.setdefault(var.payload[0],
                                             Interval(var.width))
                        continue
                    return UNSAT
            name = var.payload[0]
            interval = intervals.get(name, Interval(var.width))
            refined = propagate_comparison(op, interval, constant, var_on_left)
            if refined is None:
                witness_shape = False
                continue
            intervals[name] = refined
        if any(interval.is_empty() for interval in intervals.values()):
            return UNSAT
        if not witness_shape:
            return None
        values = {name: interval.pick()
                  for name, interval in intervals.items()}
        # Double-check the witness (holes interact with bounds).
        for constraint in constraints:
            if not evaluate(constraint, values):
                return None  # fall through to SAT rather than mis-answer
        self._model = Model(values)
        return SAT

    # -- layer 3: bit-blasting -----------------------------------------------
    def _check_sat(self, constraints: list[Term]) -> str:
        self.stats.sat_calls += 1
        try:
            sat_solver, blaster = blast_query(constraints)
        except ValueError:
            self.stats.unknowns += 1
            return UNKNOWN
        result = sat_solver.solve(max_conflicts=self.max_conflicts)
        self.stats.sat_conflicts += result.conflicts
        if result.status == SAT:
            self._model = Model(blaster.decode(result.model))
            return SAT
        if result.status == UNSAT:
            return UNSAT
        self.stats.unknowns += 1
        return UNKNOWN


def _require_bool(constraints: "tuple[Term, ...]") -> None:
    for c in constraints:
        if not c.is_bool():
            raise TypeError("constraints must be boolean terms")


def _parse_atom(term: Term) -> tuple[str, Term, int, bool] | None:
    """Recognise ``var <op> const`` atoms (and negations / mirrored
    forms), where ``var`` is a variable or, under eq and the unsigned
    compares, a zero-extended one.  Returns (op, var, constant,
    var_on_left) or None."""
    negated = False
    if term.op == "not":
        negated = True
        term = term.args[0]
    op = term.op
    if op not in ("eq", "bvult", "bvule", "bvslt", "bvsle"):
        return None
    lhs, rhs = term.args
    if lhs.is_bool() or rhs.is_bool():
        return None
    if _is_operand(lhs, op) and rhs.is_const():
        var, constant, var_on_left = lhs, rhs.const_value(), True
    elif _is_operand(rhs, op) and lhs.is_const():
        var, constant, var_on_left = rhs, lhs.const_value(), False
    else:
        return None
    if negated:
        if op == "eq":
            return ("ne", var, constant, var_on_left)
        flipped = {"bvult": "bvule", "bvule": "bvult",
                   "bvslt": "bvsle", "bvsle": "bvslt"}[op]
        # not (a < b)  ==  b <= a : mirror sides.
        return (flipped, var, constant, not var_on_left)
    return (op, var, constant, var_on_left)


def _is_operand(term: Term, op: str) -> bool:
    """A variable, or a zero-extended one compared unsigned."""
    if term.op == "bvvar":
        return True
    return (term.op == "zeroext" and term.args[0].op == "bvvar"
            and op in ("eq", "bvult", "bvule"))
