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
   flips during fuzzing.
3. **Bit-blasting + CDCL** — the complete fallback
   (:mod:`repro.smt.bitblast` + :mod:`repro.smt.sat`), budgeted by a
   conflict limit that plays the role of the paper's 3,000 ms cap.
   Solvers that share a :class:`BlastedPrefix` blast a common path
   prefix once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from types import SimpleNamespace

from ..resilience import faultinject
from ..resilience.errors import CampaignError, SolverError
from .bitblast import BitBlaster
from .interval import Interval, propagate_comparison
from .sat import SAT, UNKNOWN, UNSAT, SatSolver
from .terms import (FALSE, TRUE, Term, evaluate, free_variables, mask)

__all__ = ["Solver", "BlastedPrefix", "Model", "SolverStats", "SolverCache",
           "solver_cache", "configure_solver_cache",
           "SAT", "UNSAT", "UNKNOWN"]


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
        self.cache_hits = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "checks": self.checks,
            "fast_path_hits": self.fast_path_hits,
            "sat_calls": self.sat_calls,
            "sat_conflicts": self.sat_conflicts,
            "unknowns": self.unknowns,
            "cache_hits": self.cache_hits,
        }


class SolverCache:
    """A bounded memo of solved conjunctions.

    The fuzzer re-poses near-identical flip queries across iterations
    (same path prefix, same flipped branch); because terms are interned,
    a repeated conjunction is the *same* tuple of term objects, so the
    canonical key is simply the constraint tuple plus the conflict
    budget.  Only decided results (sat with its model, unsat) are
    cached — "unknown" depends on the budget and is always re-solved.
    The key preserves constraint order, so a hit returns byte-for-byte
    the model a fresh solve would have produced: caching can never
    change a campaign's behaviour, only its speed.

    The scan daemon's worker threads share the process-wide instance,
    so a lock guards the entry table and counters; it is never held
    while a query is solved.
    """

    # benchmarks/perf/tracer.py still reads ``solver_cache().disk.hits``
    # on every traced check.  Delete this together with that read and
    # its ``smt.check.disk`` layer (ROADMAP, "Smaller consolidation").
    disk = SimpleNamespace(hits=0)

    def __init__(self, max_entries: int = 4096):
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, tuple[str, dict | None]]" \
            = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> "tuple[str, dict | None] | None":
        with self._lock:
            found = self._entries.get(key)
            if found is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return found

    def store(self, key: tuple, status: str,
              model_values: dict | None) -> None:
        with self._lock:
            self._entries[key] = (status, model_values)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1


# One cache per process; worker processes each grow their own.
_SOLVER_CACHE: SolverCache | None = SolverCache()


def solver_cache() -> SolverCache | None:
    """The process-wide solver result cache (None when disabled)."""
    return _SOLVER_CACHE


def configure_solver_cache(enabled: bool = True) -> SolverCache | None:
    """Replace the process-wide cache (or disable it); returns the new
    cache.  Used by the determinism tests and the ablation benches."""
    global _SOLVER_CACHE
    _SOLVER_CACHE = SolverCache() if enabled else None
    return _SOLVER_CACHE


def _declaration_order(constraints: list[Term]) -> list[Term]:
    """The free variables of ``constraints`` in the order a blast
    numbers their bits: constraint by constraint, and within one in its
    :func:`free_variables` set's iteration order."""
    order: dict[Term, None] = {}
    for constraint in constraints:
        order.update(dict.fromkeys(free_variables(constraint)))
    return list(order)


class BlastedPrefix:
    """A path prefix bit-blasted once for a batch of queries.

    Symback (§3.4.4) poses one query per input-dependent branch of a
    replayed trace, "path prefix ∧ flipped branch", each prefix
    extending the one before.  Every :class:`Solver` given the same
    instance blasts through it: a pristine :class:`SatSolver` and
    :class:`BitBlaster` are extended by only the prefix constraints
    they lack, and each query solves a :meth:`SatSolver.copy` with just
    its last constraint asserted.

    A SAT model follows from variable numbering, clause order and the
    level-0 state, so the copy must hold exactly what a fresh blast of
    the query holds.  A fresh blast numbers every free variable of the
    query before it blasts any gate.  The state therefore starts over
    whenever a query's declared-variable order differs from its own, or
    its prefix does not extend the constraints already blasted.
    ``builds`` counts those starts.
    """

    def __init__(self) -> None:
        self.builds = 0
        self._order: list[Term] | None = None
        self._blasted: list[Term] = []
        self._sat: SatSolver | None = None          # set by the first build
        self._blaster: BitBlaster | None = None

    def blast(self, constraints: list[Term]) -> tuple[SatSolver, BitBlaster]:
        """A solver and blaster holding what a fresh blast of the
        non-empty ``constraints`` holds; raises ``ValueError`` for a
        term the blaster cannot encode, as the blaster does."""
        order = _declaration_order(constraints)
        prefix = constraints[:-1]
        done = len(self._blasted)
        if order != self._order or prefix[:done] != self._blasted:
            self.builds += 1
            self._sat = SatSolver()
            self._blaster = BitBlaster(self._sat)
            # Declared up front so the model covers every variable.
            for var in order:
                self._blaster.blast_bv(var)
            self._blasted = []
            done = 0
        self._order = None      # unusable until the prefix is complete
        for constraint in prefix[done:]:
            self._blaster.assert_term(constraint)
            self._blasted.append(constraint)
        self._order = order
        sat_solver = self._sat.copy()
        blaster = self._blaster.copy(sat_solver)
        blaster.assert_term(constraints[-1])
        return sat_solver, blaster


class Solver:
    """Check satisfiability of a conjunction of boolean terms.

    ``prefix`` shares one :class:`BlastedPrefix` between the solvers of
    a query batch; without it each check blasts its query afresh.
    Either way the answer and model are the same."""

    def __init__(self, max_conflicts: int = 20_000,
                 stats: SolverStats | None = None,
                 prefix: BlastedPrefix | None = None):
        self._constraints: list[Term] = []
        self._stack: list[int] = []
        self.max_conflicts = max_conflicts
        self._model: Model | None = None
        self.stats = stats or SolverStats()
        self._prefix = prefix

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
        cache = _SOLVER_CACHE
        key = (tuple(constraints), self.max_conflicts)
        if cache is not None:
            cached = cache.lookup(key)
            if cached is not None:
                status, values = cached
                self.stats.cache_hits += 1
                if status == SAT:
                    self._model = Model(values)
                return status
        try:
            result = self._try_fast_path(constraints)
            if result is not None:
                self.stats.fast_path_hits += 1
            else:
                result = self._check_sat(constraints)
        except CampaignError:
            raise
        except Exception as exc:
            raise SolverError.wrap(exc)
        if cache is not None and result in (SAT, UNSAT):
            values = self._model.as_dict() if result == SAT else None
            cache.store(key, result, values)
        return result

    def model(self) -> Model:
        if self._model is None:
            raise RuntimeError("model() called without a sat check()")
        return self._model

    # -- layer 2: interval propagation ----------------------------------------
    def _try_fast_path(self, constraints: list[Term]) -> str | None:
        """Decide conjunctions of single-variable compares-to-constant.

        Returns None when any constraint falls outside the supported
        shape, punting to the SAT layer.
        """
        intervals: dict[str, Interval] = {}
        for constraint in constraints:
            parsed = _parse_atom(constraint)
            if parsed is None:
                return None
            op, var, constant, var_on_left = parsed
            name = var.payload[0]
            interval = intervals.get(name, Interval(var.width))
            refined = propagate_comparison(op, interval, constant, var_on_left)
            if refined is None:
                return None
            intervals[name] = refined
        values: dict[str, int] = {}
        for name, interval in intervals.items():
            if interval.is_empty():
                return UNSAT
            witness = interval.pick()
            if witness is None:
                return UNSAT
            values[name] = witness
        # Double-check the witness (holes interact with bounds).
        assignment = dict(values)
        for constraint in constraints:
            if not evaluate(constraint, assignment):
                return None  # fall through to SAT rather than mis-answer
        self._model = Model(values)
        return SAT

    # -- layer 3: bit-blasting -----------------------------------------------
    def _check_sat(self, constraints: list[Term]) -> str:
        self.stats.sat_calls += 1
        prefix = self._prefix or BlastedPrefix()
        try:
            sat_solver, blaster = prefix.blast(constraints)
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
    forms).  Returns (op, var, constant, var_on_left) or None."""
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
    if lhs.op == "bvvar" and rhs.is_const():
        var, constant, var_on_left = lhs, rhs.const_value(), True
    elif rhs.op == "bvvar" and lhs.is_const():
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
    if op == "eq":
        return ("eq", var, constant, var_on_left)
    return (op, var, constant, var_on_left)
