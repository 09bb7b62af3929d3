"""Unsigned interval domain used by the solver's propagation fast path.

Most constraints WASAI flips are of the shape ``input <op> constant``
(Listing 4's entry guards, the complicated-verification injections of
RQ3, asset-amount thresholds ...).  Those are decided here without
touching the SAT back end, which is what keeps the fuzzer's throughput
competitive — the same trade the paper makes by capping Z3 at 3,000 ms
per query.  The solver also reads a zero-extended input, most often a
string byte, compared against a constant, so a query built only from
such atoms is answered here too.  A query that also holds atoms the
domain cannot read is still refuted here when the atoms it reads leave
an input no value.
"""

from __future__ import annotations

from .terms import Term, mask, to_signed, to_unsigned

__all__ = ["Interval", "propagate_comparison"]


class Interval:
    """A closed unsigned interval ``[lo, hi]`` over ``width`` bits,
    optionally with a set of excluded point values."""

    __slots__ = ("width", "lo", "hi", "holes")

    def __init__(self, width: int, lo: int = 0, hi: int | None = None,
                 holes: frozenset[int] | None = None):
        self.width = width
        self.lo = lo
        self.hi = mask(width) if hi is None else hi
        self.holes = holes or frozenset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interval[{self.lo}, {self.hi}]w{self.width}"

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        size = self.hi - self.lo + 1
        if len(self.holes) >= size:
            covered = sum(1 for h in self.holes if self.lo <= h <= self.hi)
            return covered >= size
        return False

    def with_bounds(self, lo: int | None = None, hi: int | None = None) -> "Interval":
        return Interval(self.width,
                        self.lo if lo is None else max(self.lo, lo),
                        self.hi if hi is None else min(self.hi, hi),
                        self.holes)

    def without(self, value: int) -> "Interval":
        if value == self.lo:
            return Interval(self.width, self.lo + 1, self.hi, self.holes)
        if value == self.hi:
            return Interval(self.width, self.lo, self.hi - 1, self.holes)
        return Interval(self.width, self.lo, self.hi, self.holes | {value})

    def pick(self) -> int | None:
        """Choose a witness value, preferring small ones."""
        candidate = self.lo
        while candidate <= self.hi:
            if candidate not in self.holes:
                return candidate
            candidate += 1
        return None


def propagate_comparison(op: str, var_interval: Interval, constant: int,
                         var_on_left: bool) -> Interval | None:
    """Refine ``var_interval`` by ``var <op> constant`` (or the mirrored
    form).  Returns None when the constraint shape is not supported by
    the unsigned domain (signed compares fall through to SAT)."""
    width = var_interval.width
    c = to_unsigned(constant, width)
    if op == "eq":
        return var_interval.with_bounds(lo=c, hi=c)
    if op == "ne":
        return var_interval.without(c)
    if op in ("bvslt", "bvsle"):
        return _propagate_signed(op, var_interval, c, var_on_left)
    if op == "bvult":
        if var_on_left:
            if c == 0:
                return Interval(width, 1, 0)  # empty
            return var_interval.with_bounds(hi=c - 1)
        if c == mask(width):
            return Interval(width, 1, 0)
        return var_interval.with_bounds(lo=c + 1)
    if op == "bvule":
        if var_on_left:
            return var_interval.with_bounds(hi=c)
        return var_interval.with_bounds(lo=c)
    return None


def _propagate_signed(op: str, var_interval: Interval, c: int,
                      var_on_left: bool) -> Interval | None:
    """Signed comparisons only propagate when the constant and the
    interval live in a single sign half; otherwise defer to SAT."""
    width = var_interval.width
    half = 1 << (width - 1)
    sc = to_signed(c, width)
    # Non-negative half only: then signed order == unsigned order.
    if sc >= 0 and var_interval.hi < half:
        unsigned_op = "bvult" if op == "bvslt" else "bvule"
        return propagate_comparison(unsigned_op, var_interval, c, var_on_left)
    return None
