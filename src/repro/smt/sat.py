"""A CDCL SAT solver.

This is the complete decision procedure at the bottom of
:mod:`repro.smt`.  The WASAI paper hands its flipped path constraints to
Z3; offline we bit-blast them (:mod:`repro.smt.bitblast`) and decide the
resulting CNF here.

The solver implements the standard modern recipe:

* two watched literals per clause,
* first-UIP conflict analysis with clause learning,
* VSIDS-style variable activity with exponential decay,
* geometric restarts,
* optional conflict budget so callers can emulate the paper's
  3,000 ms per-query solver cap deterministically.

Literals use the DIMACS convention: variable ``v`` (a positive int) has
literals ``v`` and ``-v``.

Storage is a fixed handful of flat int lists, whatever the clause
count, so a solver costs the garbage collector a few objects rather
than a few per clause, and :meth:`SatSolver.copy` is a few list copies.
Inside, literal ``v`` is coded ``2v`` and ``-v`` is ``2v + 1`` (a code
is negated by ``^ 1``); clauses are numbered in the order they are
attached and live back to back in one literal arena.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["SatSolver", "SatResult", "SAT", "UNSAT", "UNKNOWN"]

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class SatResult:
    """Outcome of a :meth:`SatSolver.solve` call."""

    __slots__ = ("status", "model", "conflicts")

    def __init__(self, status: str, model: dict[int, bool] | None = None,
                 conflicts: int = 0):
        self.status = status
        self.model = model or {}
        self.conflicts = conflicts

    def __bool__(self) -> bool:
        return self.status == SAT

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SatResult({self.status}, conflicts={self.conflicts})"


# The per-variable lists grow this many variables at a time, so that
# new_var() mostly just counts.
_GROW = 256


class SatSolver:
    """CDCL solver over integer literals.

    Typical use::

        solver = SatSolver()
        a = solver.new_var()
        b = solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a])
        result = solver.solve()
        assert result.status == SAT and result.model[b] is True

    :meth:`solve` reorders watches and literals, learns clauses and
    bumps activities, so a solver that is to be solved again from the
    same state is :meth:`copy`-ed first.
    """

    __slots__ = ("_num_vars", "_value", "_level", "_reason", "_activity",
                 "_lits", "_start", "_head", "_tail", "_next", "_trail",
                 "_trail_lim", "_prop_head", "_var_inc", "_var_decay",
                 "_unsat", "_bumped", "_cursor")

    def __init__(self) -> None:
        self._num_vars = 0
        # value[code] is True/False/None (unassigned), for both codes of
        # a variable.  level, reason and activity are per variable; a
        # reason is the index of the clause that implied the variable,
        # or -1 for a decision, an assumption or a unit.  Entries past
        # _num_vars are spare capacity (see new_var).
        self._value: list[bool | None] = [None, None]
        self._level: list[int] = [0]
        self._reason: list[int] = [-1]
        self._activity: list[float] = [0.0]
        # Clause c is _lits[_start[c]:_start[c + 1]]; its first two
        # literals are the watched ones.
        self._lits: list[int] = []
        self._start: list[int] = [0]
        # Watches: clause c is nodes 2c and 2c + 1, one in the chain of
        # each watched literal.  A chain runs _head[code] -> _next[node]
        # -> ... -> _tail[code], -1 ending it, in the order the watches
        # were added.
        self._head: list[int] = [-1, -1]
        self._tail: list[int] = [-1, -1]
        self._next: list[int] = []
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._prop_head = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._unsat = False
        # Until the first conflict bumps an activity, every activity is
        # 0.0 and the activity scan picks the lowest unassigned
        # variable; _cursor finds that one without a scan.  Every
        # variable below _cursor is assigned.
        self._bumped = False
        self._cursor = 1

    def copy(self) -> "SatSolver":
        """An independent solver in exactly this state: clauses, watch
        order, assignments, activities and learnt clauses."""
        twin = SatSolver.__new__(SatSolver)
        for name in SatSolver.__slots__:
            value = getattr(self, name)
            setattr(twin, name, value[:] if type(value) is list else value)
        return twin

    # -- construction ----------------------------------------------------
    def new_var(self) -> int:
        var = self._num_vars + 1
        self._num_vars = var
        if var == len(self._level):
            self._value += [None] * (2 * _GROW)
            self._level += [0] * _GROW
            self._reason += [-1] * _GROW
            self._activity += [0.0] * _GROW
            self._head += [-1] * (2 * _GROW)
            self._tail += [-1] * (2 * _GROW)
        return var

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause; duplicates are removed and tautologies dropped.

        Literals already decided at level 0 are simplified away: a true
        one drops the clause, a false one drops out of it.  Between
        calls to :meth:`solve` every assignment is at level 0."""
        num_vars = self._num_vars
        value = self._value
        clause: list[int] = []      # the distinct literals' codes
        codes: list[int] = []       # those not decided yet
        satisfied = False
        for lit in literals:
            if 0 < lit <= num_vars:
                code = lit << 1
            elif 0 < -lit <= num_vars:
                code = (-lit << 1) | 1
            else:
                raise ValueError(f"literal {lit} out of range")
            if code ^ 1 in clause:
                return  # tautology
            if code in clause:
                continue
            clause.append(code)
            current = value[code]
            if current is None:
                codes.append(code)
            elif current:
                satisfied = True
        if satisfied:
            return
        if not codes:
            self._unsat = True
        elif len(codes) == 1:
            self._enqueue(codes[0], -1)
        else:
            self._attach(codes)

    def _attach(self, codes: list[int]) -> int:
        """Store a clause of two or more codes; returns its index."""
        clause = len(self._start) - 1
        lits = self._lits
        lits += codes
        self._start.append(len(lits))
        head = self._head
        tail = self._tail
        nxt = self._next
        nxt += (-1, -1)
        node = clause << 1
        # Append the clause's nodes to its watched literals' chains.
        for code in (codes[0], codes[1]):
            last = tail[code]
            if last < 0:
                head[code] = node
            else:
                nxt[last] = node
            tail[code] = node
            node += 1
        return clause

    # -- assignment helpers ----------------------------------------------
    def _enqueue(self, code: int, reason: int) -> None:
        """Assign an unassigned literal true."""
        var = code >> 1
        self._value[code] = True
        self._value[code ^ 1] = False
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(code)

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause or -1."""
        value = self._value
        level = self._level
        reason = self._reason
        lits = self._lits
        start = self._start
        head = self._head
        tail = self._tail
        nxt = self._next
        trail = self._trail
        decision_level = len(self._trail_lim)
        while self._prop_head < len(trail):
            false_lit = trail[self._prop_head] ^ 1
            self._prop_head += 1
            prev = -1   # the chain's last node kept so far
            node = head[false_lit]
            while node >= 0:
                following = nxt[node]
                clause = node >> 1
                base = start[clause]
                # Normalise: watched literal in position 1.
                first = lits[base]
                if first == false_lit:
                    first = lits[base + 1]
                    lits[base] = first
                    lits[base + 1] = false_lit
                if value[first] is not True:
                    # Look for a replacement watch.
                    for k in range(base + 2, start[clause + 1]):
                        other = lits[k]
                        if value[other] is not False:
                            lits[base + 1] = other
                            lits[k] = false_lit
                            break
                    else:
                        if value[first] is False:
                            return clause   # conflict
                        value[first] = True
                        value[first ^ 1] = False
                        level[first >> 1] = decision_level
                        reason[first >> 1] = clause
                        trail.append(first)
                        prev = node
                        node = following
                        continue
                    # Move the node from this chain to the end of other's.
                    if prev < 0:
                        head[false_lit] = following
                    else:
                        nxt[prev] = following
                    if following < 0:
                        tail[false_lit] = prev
                    nxt[node] = -1
                    last = tail[other]
                    if last < 0:
                        head[other] = node
                    else:
                        nxt[last] = node
                    tail[other] = node
                else:
                    prev = node
                node = following
        return -1

    # -- conflict analysis -------------------------------------------------
    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backjump
        level).  learnt[0] is the asserting literal."""
        level = self._level
        lits = self._lits
        start = self._start
        trail = self._trail
        current_level = len(self._trail_lim)
        learnt: list[int] = []
        seen: set[int] = set()
        counter = 0
        lit = -1    # the literal resolved on; -1 before the first
        clause = conflict
        index = len(trail) - 1
        while True:
            for k in range(start[clause], start[clause + 1]):
                q = lits[k]
                var = q >> 1
                if q == lit or var in seen or level[var] == 0:
                    continue
                seen.add(var)
                self._bump(var)
                if level[var] == current_level:
                    counter += 1
                else:
                    learnt.append(q)
            # Find the next literal to resolve on.
            while trail[index] >> 1 not in seen:
                index -= 1
            lit = trail[index]
            index -= 1
            counter -= 1
            seen.discard(lit >> 1)
            if counter == 0:
                break
            clause = self._reason[lit >> 1]
        learnt.insert(0, lit ^ 1)
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the second highest decision level in the clause.
        max_i = 1
        for i in range(2, len(learnt)):
            if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _bump(self, var: int) -> None:
        self._bumped = True
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _decay(self) -> None:
        self._var_inc /= self._var_decay

    def _backjump(self, level: int) -> None:
        if len(self._trail_lim) > level:
            limit = self._trail_lim[level]
            del self._trail_lim[level:]
            value = self._value
            reason = self._reason
            cursor = self._cursor
            for code in self._trail[limit:]:
                var = code >> 1
                value[code] = None
                value[code ^ 1] = None
                reason[var] = -1
                if var < cursor:
                    cursor = var
            del self._trail[limit:]
            self._cursor = cursor
        self._prop_head = min(self._prop_head, len(self._trail))

    def _decide(self) -> int:
        """Pick the unassigned variable with the highest activity, the
        lowest-numbered one among equals; -1 when all are assigned."""
        value = self._value
        if not self._bumped:
            var = self._cursor
            while var <= self._num_vars and value[var << 1] is not None:
                var += 1
            self._cursor = var
            best = var if var <= self._num_vars else None
        else:
            activity = self._activity
            best = None
            best_activity = -1.0
            for var in range(1, self._num_vars + 1):
                if value[var << 1] is None and activity[var] > best_activity:
                    best = var
                    best_activity = activity[var]
        if best is None:
            return -1
        # Negative-first polarity: small models for bitvectors.
        return (best << 1) | 1

    # -- main loop ---------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = (),
              max_conflicts: int | None = None) -> SatResult:
        """Decide satisfiability under the given assumption literals.

        ``max_conflicts`` bounds the search; exceeding it yields
        :data:`UNKNOWN` (mirrors the paper's per-query SMT budget).
        """
        if self._unsat:
            return SatResult(UNSAT)
        conflicts = 0
        if self._propagate() >= 0:
            return SatResult(UNSAT)
        value = self._value
        for lit in assumptions:
            if not 0 < abs(lit) <= self._num_vars:
                raise ValueError(f"assumption {lit} out of range")
            code = lit << 1 if lit > 0 else (-lit << 1) | 1
            if value[code] is False:
                self._backjump(0)
                return SatResult(UNSAT, conflicts=conflicts)
            if value[code] is None:
                self._trail_lim.append(len(self._trail))
                self._enqueue(code, -1)
                if self._propagate() >= 0:
                    self._backjump(0)
                    return SatResult(UNSAT, conflicts=conflicts)
        base_level = len(self._trail_lim)
        restart_limit = 100
        restart_conflicts = 0
        while True:
            conflict = self._propagate()
            if conflict >= 0:
                conflicts += 1
                restart_conflicts += 1
                if len(self._trail_lim) == base_level:
                    self._backjump(0)
                    return SatResult(UNSAT, conflicts=conflicts)
                if max_conflicts is not None and conflicts > max_conflicts:
                    self._backjump(0)
                    return SatResult(UNKNOWN, conflicts=conflicts)
                learnt, back_level = self._analyze(conflict)
                # Below the conflict level the asserting literal is
                # unassigned again.
                self._backjump(max(back_level, base_level))
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                else:
                    self._enqueue(learnt[0], self._attach(learnt))
                self._decay()
                if restart_conflicts >= restart_limit:
                    restart_conflicts = 0
                    restart_limit = int(restart_limit * 1.5)
                    self._backjump(base_level)
                continue
            code = self._decide()
            if code < 0:
                model = {v: value[v << 1] is True
                         for v in range(1, self._num_vars + 1)}
                self._backjump(0)
                return SatResult(SAT, model, conflicts)
            self._trail_lim.append(len(self._trail))
            self._enqueue(code, -1)
