"""Hash-consed bitvector/boolean expression terms.

This module is the foundation of :mod:`repro.smt`, the pure-Python SMT
layer that replaces the Z3 backend used by the WASAI paper.  Terms are
immutable and interned: structurally identical terms are the same
object, which makes equality checks O(1) and keeps the symbolic
machine-state updates (performed once per executed Wasm instruction)
cheap.

The public constructors mirror the small slice of the z3py API that
WASAI relies on (``BitVec``, ``BitVecVal``, ``Concat``, ``Extract``,
``ULT`` ...), so the symbolic engine reads like the paper's
description.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "Term",
    "BoolSort",
    "BitVecSort",
    "BitVec",
    "BitVecVal",
    "BoolVal",
    "TRUE",
    "FALSE",
    "Concat",
    "Extract",
    "ZeroExt",
    "SignExt",
    "And",
    "Or",
    "Not",
    "Xor",
    "Implies",
    "Ite",
    "Eq",
    "Ne",
    "ULT",
    "ULE",
    "UGT",
    "UGE",
    "SLT",
    "SLE",
    "SGT",
    "SGE",
    "Popcnt",
    "Clz",
    "Ctz",
    "Rotl",
    "Rotr",
    "free_variables",
    "substitute",
    "mask",
    "to_signed",
    "to_unsigned",
]


def mask(width: int) -> int:
    """Return the all-ones bit mask for ``width`` bits."""
    return (1 << width) - 1


def to_signed(value: int, width: int) -> int:
    """Interpret ``value`` (an unsigned ``width``-bit int) as signed."""
    value &= mask(width)
    if value >= 1 << (width - 1):
        value -= 1 << width
    return value


def to_unsigned(value: int, width: int) -> int:
    """Normalise ``value`` into the unsigned ``width``-bit range."""
    return value & mask(width)


class Sort:
    """Base class for term sorts."""

    __slots__ = ()


class BoolSort(Sort):
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Bool"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BoolSort)

    def __hash__(self) -> int:
        return hash("BoolSort")


class BitVecSort(Sort):
    __slots__ = ("width",)

    def __init__(self, width: int):
        if width <= 0:
            raise ValueError(f"bitvector width must be positive, got {width}")
        self.width = width

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitVec({self.width})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BitVecSort) and other.width == self.width

    def __hash__(self) -> int:
        return hash(("BitVecSort", self.width))


BOOL = BoolSort()

# Interning table: key -> Term.  Keys embed the op, sort and child ids.
_INTERN: dict[tuple, "Term"] = {}


class Term:
    """An immutable, interned SMT term.

    ``op`` is a short string tag (e.g. ``"bvadd"``); ``args`` holds child
    terms and ``payload`` holds non-term attributes (variable name,
    constant value, extract bounds ...).
    """

    __slots__ = ("op", "args", "payload", "sort", "_hash")

    def __new__(
        cls,
        op: str,
        args: tuple["Term", ...] = (),
        payload: tuple = (),
        sort: Sort = BOOL,
    ):
        key = (op, tuple(id(a) for a in args), payload, sort)
        found = _INTERN.get(key)
        if found is not None:
            return found
        term = object.__new__(cls)
        term.op = op
        term.args = args
        term.payload = payload
        term.sort = sort
        term._hash = hash((op, args, payload, sort))
        _INTERN[key] = term
        return term

    # -- basic protocol -------------------------------------------------
    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return render(self)

    @property
    def width(self) -> int:
        """Bit width (only meaningful for bitvector terms)."""
        if not isinstance(self.sort, BitVecSort):
            raise TypeError(f"term {self.op} is not a bitvector")
        return self.sort.width

    def is_const(self) -> bool:
        return self.op in ("bvconst", "true", "false")

    def is_bool(self) -> bool:
        return isinstance(self.sort, BoolSort)

    def const_value(self) -> int:
        """Return the Python value of a constant term."""
        if self.op == "bvconst":
            return self.payload[0]
        if self.op == "true":
            return True
        if self.op == "false":
            return False
        raise ValueError(f"term {self.op} is not a constant")

    # -- operator sugar (bitvector arithmetic defaults to unsigned) -----
    def __add__(self, other: "Term | int") -> "Term":
        return bv_binop("bvadd", self, _coerce(other, self))

    def __radd__(self, other: int) -> "Term":
        return bv_binop("bvadd", _coerce(other, self), self)

    def __sub__(self, other: "Term | int") -> "Term":
        return bv_binop("bvsub", self, _coerce(other, self))

    def __rsub__(self, other: int) -> "Term":
        return bv_binop("bvsub", _coerce(other, self), self)

    def __mul__(self, other: "Term | int") -> "Term":
        return bv_binop("bvmul", self, _coerce(other, self))

    def __rmul__(self, other: int) -> "Term":
        return bv_binop("bvmul", _coerce(other, self), self)

    def __and__(self, other: "Term | int") -> "Term":
        return bv_binop("bvand", self, _coerce(other, self))

    def __or__(self, other: "Term | int") -> "Term":
        return bv_binop("bvor", self, _coerce(other, self))

    def __xor__(self, other: "Term | int") -> "Term":
        return bv_binop("bvxor", self, _coerce(other, self))

    def __lshift__(self, other: "Term | int") -> "Term":
        return bv_binop("bvshl", self, _coerce(other, self))

    def __rshift__(self, other: "Term | int") -> "Term":
        """Logical (unsigned) right shift, matching Wasm ``shr_u``."""
        return bv_binop("bvlshr", self, _coerce(other, self))

    def __invert__(self) -> "Term":
        return bv_unop("bvnot", self)

    def __neg__(self) -> "Term":
        return bv_unop("bvneg", self)


def _coerce(value: "Term | int", like: Term) -> Term:
    """Turn a Python int into a constant of ``like``'s width."""
    if isinstance(value, Term):
        return value
    return BitVecVal(value, like.width)


# ---------------------------------------------------------------------------
# Leaf constructors
# ---------------------------------------------------------------------------

def BitVec(name: str, width: int) -> Term:
    """A free bitvector variable."""
    return Term("bvvar", (), (name,), BitVecSort(width))


def BitVecVal(value: int, width: int) -> Term:
    """A bitvector constant (value is normalised to unsigned)."""
    return Term("bvconst", (), (to_unsigned(value, width),), BitVecSort(width))


TRUE = Term("true")
FALSE = Term("false")


def BoolVal(value: bool) -> Term:
    return TRUE if value else FALSE


# ---------------------------------------------------------------------------
# Bitvector operations (with constant folding and light rewrites)
# ---------------------------------------------------------------------------

_COMMUTATIVE = {"bvadd", "bvmul", "bvand", "bvor", "bvxor"}


def _fold_binop(op: str, a: int, b: int, width: int) -> int:
    m = mask(width)
    if op == "bvadd":
        return (a + b) & m
    if op == "bvsub":
        return (a - b) & m
    if op == "bvmul":
        return (a * b) & m
    if op == "bvand":
        return a & b
    if op == "bvor":
        return a | b
    if op == "bvxor":
        return a ^ b
    # Shifts follow Wasm semantics: the amount is taken modulo the width.
    if op == "bvshl":
        return (a << (b % width)) & m
    if op == "bvlshr":
        return a >> (b % width)
    if op == "bvashr":
        sa = to_signed(a, width)
        return to_unsigned(sa >> (b % width), width)
    if op == "bvudiv":
        return m if b == 0 else (a // b) & m
    if op == "bvurem":
        return a if b == 0 else a % b
    if op == "bvsdiv":
        if b == 0:
            # SMT-LIB: -1 for non-negative dividends, +1 for negative
            # (Wasm traps before this case can ever matter).
            return m if to_signed(a, width) >= 0 else 1
        sa, sb = to_signed(a, width), to_signed(b, width)
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        return to_unsigned(q, width)
    if op == "bvsrem":
        if b == 0:
            return a
        sa, sb = to_signed(a, width), to_signed(b, width)
        r = abs(sa) % abs(sb)
        if sa < 0:
            r = -r
        return to_unsigned(r, width)
    if op == "bvrotl":
        b %= width
        return ((a << b) | (a >> (width - b))) & m if b else a
    if op == "bvrotr":
        b %= width
        return ((a >> b) | (a << (width - b))) & m if b else a
    raise ValueError(f"unknown binop {op}")


def bv_binop(op: str, lhs: Term, rhs: Term) -> Term:
    """Build a binary bitvector operation, folding constants."""
    if lhs.width != rhs.width:
        raise ValueError(f"{op}: width mismatch {lhs.width} vs {rhs.width}")
    width = lhs.width
    if lhs.is_const() and rhs.is_const():
        return BitVecVal(_fold_binop(op, lhs.const_value(), rhs.const_value(), width), width)
    # Canonicalise: constants to the right for commutative ops.
    if op in _COMMUTATIVE and lhs.is_const():
        lhs, rhs = rhs, lhs
    if rhs.is_const():
        c = rhs.const_value()
        if op in ("bvadd", "bvsub", "bvor", "bvxor", "bvshl", "bvlshr", "bvashr",
                  "bvrotl", "bvrotr") and c == 0:
            return lhs
        if op == "bvmul":
            if c == 0:
                return rhs
            if c == 1:
                return lhs
        if op == "bvand":
            if c == 0:
                return rhs
            if c == mask(width):
                return lhs
        if op == "bvor" and c == mask(width):
            return rhs
        if op == "bvudiv" and c == 1:
            return lhs
    if lhs is rhs:
        if op == "bvxor":
            return BitVecVal(0, width)
        if op == "bvsub":
            return BitVecVal(0, width)
        if op in ("bvand", "bvor"):
            return lhs
    return Term(op, (lhs, rhs), (), BitVecSort(width))


def bv_unop(op: str, arg: Term) -> Term:
    width = arg.width
    if arg.is_const():
        v = arg.const_value()
        if op == "bvnot":
            return BitVecVal(~v, width)
        if op == "bvneg":
            return BitVecVal(-v, width)
        if op == "bvpopcnt":
            return BitVecVal(bin(v).count("1"), width)
        if op == "bvclz":
            return BitVecVal(width - v.bit_length(), width)
        if op == "bvctz":
            if v == 0:
                return BitVecVal(width, width)
            return BitVecVal((v & -v).bit_length() - 1, width)
    if op == "bvnot" and arg.op == "bvnot":
        return arg.args[0]
    if op == "bvneg" and arg.op == "bvneg":
        return arg.args[0]
    return Term(op, (arg,), (), BitVecSort(width))


def Popcnt(arg: Term) -> Term:
    """Population count (number of 1 bits), as used by the paper's
    popcount data-flow obfuscation."""
    return bv_unop("bvpopcnt", arg)


def Clz(arg: Term) -> Term:
    return bv_unop("bvclz", arg)


def Ctz(arg: Term) -> Term:
    return bv_unop("bvctz", arg)


def Rotl(lhs: Term, rhs: Term | int) -> Term:
    return bv_binop("bvrotl", lhs, _coerce(rhs, lhs))


def Rotr(lhs: Term, rhs: Term | int) -> Term:
    return bv_binop("bvrotr", lhs, _coerce(rhs, lhs))


def UDiv(lhs: Term, rhs: Term | int) -> Term:
    return bv_binop("bvudiv", lhs, _coerce(rhs, lhs))


def URem(lhs: Term, rhs: Term | int) -> Term:
    return bv_binop("bvurem", lhs, _coerce(rhs, lhs))


def SDiv(lhs: Term, rhs: Term | int) -> Term:
    return bv_binop("bvsdiv", lhs, _coerce(rhs, lhs))


def SRem(lhs: Term, rhs: Term | int) -> Term:
    return bv_binop("bvsrem", lhs, _coerce(rhs, lhs))


def AShr(lhs: Term, rhs: Term | int) -> Term:
    return bv_binop("bvashr", lhs, _coerce(rhs, lhs))


def Concat(*parts: Term) -> Term:
    """Concatenate bitvectors; the first argument holds the most
    significant bits (z3 convention)."""
    if not parts:
        raise ValueError("Concat requires at least one argument")
    if len(parts) == 1:
        return parts[0]
    total = sum(p.width for p in parts)
    if all(p.is_const() for p in parts):
        value = 0
        for p in parts:
            value = (value << p.width) | p.const_value()
        return BitVecVal(value, total)
    # Flatten nested concats for canonical form.
    flat: list[Term] = []
    for p in parts:
        if p.op == "concat":
            flat.extend(p.args)
        else:
            flat.append(p)
    # Merge adjacent constants and adjacent extracts of the same term
    # (byte-split/reassemble round trips are common in the memory model).
    merged: list[Term] = []
    for p in flat:
        if merged and merged[-1].is_const() and p.is_const():
            prev = merged.pop()
            merged.append(
                BitVecVal((prev.const_value() << p.width) | p.const_value(),
                          prev.width + p.width))
        elif (merged and merged[-1].op == "extract" and p.op == "extract"
              and merged[-1].args[0] is p.args[0]
              and merged[-1].payload[1] == p.payload[0] + 1):
            prev = merged.pop()
            merged.append(Extract(prev.payload[0], p.payload[1], p.args[0]))
        else:
            merged.append(p)
    if len(merged) == 1:
        return merged[0]
    return Term("concat", tuple(merged), (), BitVecSort(total))


def Extract(hi: int, lo: int, arg: Term) -> Term:
    """Extract bits ``hi..lo`` inclusive (z3 convention)."""
    if not 0 <= lo <= hi < arg.width:
        raise ValueError(f"Extract({hi}, {lo}) out of range for width {arg.width}")
    width = hi - lo + 1
    if width == arg.width:
        return arg
    if arg.is_const():
        return BitVecVal(arg.const_value() >> lo, width)
    if arg.op == "extract":
        inner_lo = arg.payload[1]
        return Extract(hi + inner_lo, lo + inner_lo, arg.args[0])
    if arg.op == "concat":
        # Peel parts that lie fully outside the extraction window.
        offset = arg.width
        selected: list[Term] = []
        for part in arg.args:
            offset -= part.width
            part_lo, part_hi = offset, offset + part.width - 1
            if part_hi < lo or part_lo > hi:
                continue
            sub_hi = min(hi, part_hi) - part_lo
            sub_lo = max(lo, part_lo) - part_lo
            selected.append(Extract(sub_hi, sub_lo, part))
        if selected:
            return Concat(*selected)
    if arg.op == "zeroext" and lo >= arg.args[0].width:
        return BitVecVal(0, width)
    if arg.op == "zeroext" and hi < arg.args[0].width:
        return Extract(hi, lo, arg.args[0])
    return Term("extract", (arg,), (hi, lo), BitVecSort(width))


def ZeroExt(extra: int, arg: Term) -> Term:
    """Widen ``arg`` by ``extra`` zero bits (z3 convention)."""
    if extra < 0:
        raise ValueError("ZeroExt amount must be non-negative")
    if extra == 0:
        return arg
    if arg.is_const():
        return BitVecVal(arg.const_value(), arg.width + extra)
    return Term("zeroext", (arg,), (extra,), BitVecSort(arg.width + extra))


def SignExt(extra: int, arg: Term) -> Term:
    if extra < 0:
        raise ValueError("SignExt amount must be non-negative")
    if extra == 0:
        return arg
    if arg.is_const():
        return BitVecVal(to_signed(arg.const_value(), arg.width), arg.width + extra)
    return Term("signext", (arg,), (extra,), BitVecSort(arg.width + extra))


# ---------------------------------------------------------------------------
# Boolean operations
# ---------------------------------------------------------------------------

def Not(arg: Term) -> Term:
    if arg is TRUE:
        return FALSE
    if arg is FALSE:
        return TRUE
    if arg.op == "not":
        return arg.args[0]
    return Term("not", (arg,))


def And(*args: Term) -> Term:
    flat: list[Term] = []
    for a in _flatten(args):
        if a is FALSE:
            return FALSE
        if a is TRUE:
            continue
        if a.op == "and":
            flat.extend(a.args)
        else:
            flat.append(a)
    flat = _dedupe(flat)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    for a in flat:
        if Not(a) in flat:
            return FALSE
    return Term("and", tuple(flat))


def Or(*args: Term) -> Term:
    flat: list[Term] = []
    for a in _flatten(args):
        if a is TRUE:
            return TRUE
        if a is FALSE:
            continue
        if a.op == "or":
            flat.extend(a.args)
        else:
            flat.append(a)
    flat = _dedupe(flat)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    for a in flat:
        if Not(a) in flat:
            return TRUE
    return Term("or", tuple(flat))


def Xor(lhs: Term, rhs: Term) -> Term:
    if lhs is rhs:
        return FALSE
    if lhs is TRUE:
        return Not(rhs)
    if rhs is TRUE:
        return Not(lhs)
    if lhs is FALSE:
        return rhs
    if rhs is FALSE:
        return lhs
    return Term("xor", (lhs, rhs))


def Implies(lhs: Term, rhs: Term) -> Term:
    return Or(Not(lhs), rhs)


def _flatten(args: Iterable[Term | list | tuple]) -> list[Term]:
    out: list[Term] = []
    for a in args:
        if isinstance(a, (list, tuple)):
            out.extend(_flatten(a))
        else:
            out.append(a)
    return out


def _dedupe(terms: list[Term]) -> list[Term]:
    seen: set[int] = set()
    out = []
    for t in terms:
        if id(t) not in seen:
            seen.add(id(t))
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def Eq(lhs: Term, rhs: Term | int) -> Term:
    rhs = _coerce(rhs, lhs) if isinstance(rhs, int) else rhs
    if lhs.is_bool() != rhs.is_bool():
        raise TypeError("Eq between bool and bitvector")
    if lhs is rhs:
        return TRUE
    if lhs.is_const() and rhs.is_const():
        return BoolVal(lhs.const_value() == rhs.const_value())
    if not lhs.is_bool() and lhs.width != rhs.width:
        raise ValueError(f"Eq width mismatch: {lhs.width} vs {rhs.width}")
    # Canonicalise argument order via the interning hash.
    if lhs._hash > rhs._hash:
        lhs, rhs = rhs, lhs
    return Term("eq", (lhs, rhs))


def Ne(lhs: Term, rhs: Term | int) -> Term:
    return Not(Eq(lhs, rhs))


def _compare(op: str, lhs: Term, rhs: Term | int, signed: bool) -> Term:
    rhs = _coerce(rhs, lhs) if isinstance(rhs, int) else rhs
    if lhs.width != rhs.width:
        raise ValueError(f"{op}: width mismatch {lhs.width} vs {rhs.width}")
    if lhs.is_const() and rhs.is_const():
        a, b = lhs.const_value(), rhs.const_value()
        if signed:
            a, b = to_signed(a, lhs.width), to_signed(b, lhs.width)
        result = a < b if op.endswith("lt") else a <= b
        return BoolVal(result)
    if lhs is rhs:
        return FALSE if op.endswith("lt") else TRUE
    return Term(op, (lhs, rhs))


def ULT(lhs: Term, rhs: Term | int) -> Term:
    return _compare("bvult", lhs, rhs, signed=False)


def ULE(lhs: Term, rhs: Term | int) -> Term:
    return _compare("bvule", lhs, rhs, signed=False)


def UGT(lhs: Term, rhs: Term | int) -> Term:
    rhs = _coerce(rhs, lhs) if isinstance(rhs, int) else rhs
    return ULT(rhs, lhs)


def UGE(lhs: Term, rhs: Term | int) -> Term:
    rhs = _coerce(rhs, lhs) if isinstance(rhs, int) else rhs
    return ULE(rhs, lhs)


def SLT(lhs: Term, rhs: Term | int) -> Term:
    return _compare("bvslt", lhs, rhs, signed=True)


def SLE(lhs: Term, rhs: Term | int) -> Term:
    return _compare("bvsle", lhs, rhs, signed=True)


def SGT(lhs: Term, rhs: Term | int) -> Term:
    rhs = _coerce(rhs, lhs) if isinstance(rhs, int) else rhs
    return SLT(rhs, lhs)


def SGE(lhs: Term, rhs: Term | int) -> Term:
    rhs = _coerce(rhs, lhs) if isinstance(rhs, int) else rhs
    return SLE(rhs, lhs)


def Ite(cond: Term, then: Term, other: Term) -> Term:
    """If-then-else over bitvectors or booleans."""
    if cond is TRUE:
        return then
    if cond is FALSE:
        return other
    if then is other:
        return then
    if then.is_bool():
        return Or(And(cond, then), And(Not(cond), other))
    if then.width != other.width:
        raise ValueError("Ite arm width mismatch")
    return Term("ite", (cond, then, other), (), then.sort)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

def free_variables(term: Term) -> set[Term]:
    """Collect the free bitvector variables reachable from ``term``."""
    seen: set[int] = set()
    out: set[Term] = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t.op == "bvvar":
            out.add(t)
        stack.extend(t.args)
    return out


def substitute(term: Term, bindings: dict[Term, Term]) -> Term:
    """Replace variables per ``bindings``, rebuilding (and therefore
    re-simplifying) the term bottom-up."""
    cache: dict[int, Term] = {}

    def walk(t: Term) -> Term:
        hit = cache.get(id(t))
        if hit is not None:
            return hit
        if t in bindings:
            result = bindings[t]
        elif not t.args:
            result = t
        else:
            new_args = tuple(walk(a) for a in t.args)
            if all(n is o for n, o in zip(new_args, t.args)):
                result = t
            else:
                result = rebuild(t.op, new_args, t.payload, t.sort)
        cache[id(t)] = result
        return result

    return walk(term)


_BINOPS = {
    "bvadd", "bvsub", "bvmul", "bvand", "bvor", "bvxor", "bvshl",
    "bvlshr", "bvashr", "bvudiv", "bvurem", "bvsdiv", "bvsrem",
    "bvrotl", "bvrotr",
}
_UNOPS = {"bvnot", "bvneg", "bvpopcnt", "bvclz", "bvctz"}


def rebuild(op: str, args: tuple[Term, ...], payload: tuple, sort: Sort) -> Term:
    """Reconstruct a term through the simplifying constructors."""
    if op in _BINOPS:
        return bv_binop(op, *args)
    if op in _UNOPS:
        return bv_unop(op, args[0])
    if op == "concat":
        return Concat(*args)
    if op == "extract":
        return Extract(payload[0], payload[1], args[0])
    if op == "zeroext":
        return ZeroExt(payload[0], args[0])
    if op == "signext":
        return SignExt(payload[0], args[0])
    if op == "eq":
        return Eq(*args)
    if op == "not":
        return Not(args[0])
    if op == "and":
        return And(*args)
    if op == "or":
        return Or(*args)
    if op == "xor":
        return Xor(*args)
    if op in ("bvult", "bvule"):
        return _compare(op, args[0], args[1], signed=False)
    if op in ("bvslt", "bvsle"):
        return _compare(op, args[0], args[1], signed=True)
    if op == "ite":
        return Ite(*args)
    return Term(op, args, payload, sort)


def render(term: Term) -> str:
    """A compact s-expression rendering used by ``repr``."""
    if term.op == "bvconst":
        return f"#x{term.const_value():0{(term.width + 3) // 4}x}"
    if term.op == "bvvar":
        return term.payload[0]
    if term.op in ("true", "false"):
        return term.op
    if term.op == "extract":
        return f"(extract {term.payload[0]} {term.payload[1]} {render(term.args[0])})"
    inner = " ".join(render(a) for a in term.args)
    if term.payload:
        inner = " ".join(str(p) for p in term.payload) + " " + inner
    return f"({term.op} {inner})"


def evaluate(term: Term, assignment: dict[str, int]) -> int | bool:
    """Evaluate ``term`` under a concrete assignment (unsigned ints for
    bitvector variables).  Used by tests and by model validation."""
    return _Evaluator(assignment)(term)


class _Evaluator:
    """The memoised walk of :func:`evaluate`.  A callable object, not a
    recursive closure: a closure that calls itself is a reference cycle
    that only the garbage collector frees."""

    __slots__ = ("assignment", "cache")

    def __init__(self, assignment: dict[str, int]):
        self.assignment = assignment
        self.cache: dict[int, int | bool] = {}

    def __call__(self, t: Term) -> int | bool:
        hit = self.cache.get(id(t))
        if hit is not None:
            return hit
        result = _eval_node(t, self, self.assignment)
        self.cache[id(t)] = result
        return result


def _eval_node(t: Term, walk, assignment: dict[str, int]) -> int | bool:
    op = t.op
    if op == "bvconst":
        return t.const_value()
    if op == "bvvar":
        name = t.payload[0]
        if name not in assignment:
            raise KeyError(f"no assignment for variable {name}")
        return to_unsigned(assignment[name], t.width)
    if op == "true":
        return True
    if op == "false":
        return False
    if op in _BINOPS:
        return _fold_binop(op, walk(t.args[0]), walk(t.args[1]), t.width)
    if op == "bvnot":
        return to_unsigned(~walk(t.args[0]), t.width)
    if op == "bvneg":
        return to_unsigned(-walk(t.args[0]), t.width)
    if op == "bvpopcnt":
        return bin(walk(t.args[0])).count("1")
    if op == "bvclz":
        v = walk(t.args[0])
        return t.width - v.bit_length()
    if op == "bvctz":
        v = walk(t.args[0])
        return t.width if v == 0 else (v & -v).bit_length() - 1
    if op == "concat":
        value = 0
        for part in t.args:
            value = (value << part.width) | walk(part)
        return value
    if op == "extract":
        hi, lo = t.payload
        return (walk(t.args[0]) >> lo) & mask(hi - lo + 1)
    if op == "zeroext":
        return walk(t.args[0])
    if op == "signext":
        inner = t.args[0]
        return to_unsigned(to_signed(walk(inner), inner.width), t.width)
    if op == "eq":
        return walk(t.args[0]) == walk(t.args[1])
    if op == "not":
        return not walk(t.args[0])
    if op == "and":
        return all(walk(a) for a in t.args)
    if op == "or":
        return any(walk(a) for a in t.args)
    if op == "xor":
        return bool(walk(t.args[0])) != bool(walk(t.args[1]))
    if op == "bvult":
        return walk(t.args[0]) < walk(t.args[1])
    if op == "bvule":
        return walk(t.args[0]) <= walk(t.args[1])
    if op == "bvslt":
        w = t.args[0].width
        return to_signed(walk(t.args[0]), w) < to_signed(walk(t.args[1]), w)
    if op == "bvsle":
        w = t.args[0].width
        return to_signed(walk(t.args[0]), w) <= to_signed(walk(t.args[1]), w)
    if op == "ite":
        return walk(t.args[1]) if walk(t.args[0]) else walk(t.args[2])
    raise ValueError(f"cannot evaluate op {op}")
