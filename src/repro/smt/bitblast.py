"""Tseitin bit-blasting of bitvector terms to CNF.

The complete back end of :mod:`repro.smt.solver`: every bitvector term
is translated into per-bit SAT literals, and boolean terms into single
literals, over a shared :class:`~repro.smt.sat.SatSolver` instance.

Encodings are the textbook ones — ripple-carry adders, shift-add
multipliers, barrel shifters for variable shift amounts, and an adder
tree for ``popcnt`` (which the paper's obfuscation benchmark leans on).

Constants are folded at every gate.  A constant is the one literal
:meth:`BitBlaster.true_lit` or its negation, and a gate fed it returns
an existing literal (``a AND true`` is ``a``, ``a XOR true`` is ``NOT
a``, a multiplexer on a constant selector is one of its inputs) or a
smaller gate, so the constant operands of flip queries (``x == K``,
``x < K``, constant shift fill) never become SAT variables.  A wide
AND, and so an OR, is one gate: one variable and n + 1 clauses, not a
chain of n - 1 binary gates.

Folding changes the CNF but keeps the model of every search without a
conflict.  Input bits are numbered first, in declaration order, and the
solver decides the lowest unassigned variable, false first, so such a
search sets each input bit to what unit propagation forces given the
bits before it, or else to false.  Propagation is sound, so it can only
force a bit to its value in that model; each folded encoding propagates
at least what the gates it replaces did, so it forces no fewer bits.
"""

from __future__ import annotations

from .sat import SatSolver
from .terms import Term, mask

__all__ = ["BitBlaster"]


class BitBlaster:
    """Translate terms into clauses of a :class:`SatSolver`.

    Bitvectors become lists of literals, LSB first.  The blaster caches
    per-term encodings, so shared sub-terms (the common case with
    hash-consed DAGs) are encoded once.
    """

    def __init__(self, solver: SatSolver):
        self.solver = solver
        self._bv_cache: dict[int, list[int]] = {}
        self._bool_cache: dict[int, int] = {}
        self._true_lit: int | None = None
        self.var_bits: dict[str, list[int]] = {}

    # -- literal helpers -------------------------------------------------
    def true_lit(self) -> int:
        if self._true_lit is None:
            self._true_lit = self.solver.new_var()
            self.solver.add_clause([self._true_lit])
        return self._true_lit

    def false_lit(self) -> int:
        return -self.true_lit()

    def const_bits(self, value: int, width: int) -> list[int]:
        t = self.true_lit()
        return [t if (value >> i) & 1 else -t for i in range(width)]

    def fresh(self) -> int:
        return self.solver.new_var()

    # -- gates -------------------------------------------------------------
    # ``t`` is the true literal, or None before any constant exists; a
    # literal ``x`` is a constant when ``abs(x) == t``.

    def gate_and(self, a: int, b: int) -> int:
        t = self._true_lit
        if a == b or b == t:
            return a
        if a == t:
            return b
        if a == -b or abs(a) == t or abs(b) == t:
            return self.false_lit()
        out = self.fresh()
        add = self.solver.add_clause
        add([-out, a])
        add([-out, b])
        add([out, -a, -b])
        return out

    def gate_or(self, a: int, b: int) -> int:
        return -self.gate_and(-a, -b)

    def gate_xor(self, a: int, b: int) -> int:
        t = self._true_lit
        if abs(b) == t:
            return a if b < 0 else -a
        if abs(a) == t:
            return b if a < 0 else -b
        if a == b:
            return self.false_lit()
        if a == -b:
            return self.true_lit()
        out = self.fresh()
        add = self.solver.add_clause
        add([-out, a, b])
        add([-out, -a, -b])
        add([out, -a, b])
        add([out, a, -b])
        return out

    def gate_mux(self, sel: int, then: int, other: int) -> int:
        """``sel ? then : other``."""
        t = self._true_lit
        if then == other:
            return then
        if abs(sel) == t:
            return then if sel > 0 else other
        if abs(then) == t:      # sel OR other / NOT sel AND other
            return (self.gate_or(sel, other) if then > 0
                    else self.gate_and(-sel, other))
        if abs(other) == t:     # NOT sel OR then / sel AND then
            return (self.gate_or(-sel, then) if other > 0
                    else self.gate_and(sel, then))
        out = self.fresh()
        add = self.solver.add_clause
        add([-out, -sel, then])
        add([-out, sel, other])
        add([out, -sel, -then])
        add([out, sel, -other])
        return out

    def gate_and_many(self, lits: list[int]) -> int:
        """One n-ary AND gate over the distinct non-constant ``lits``;
        false on a false literal or a complementary pair."""
        t = self._true_lit
        kept: dict[int, None] = {}
        for lit in lits:
            if lit == t or lit in kept:
                continue
            if -lit == t or -lit in kept:
                return self.false_lit()
            kept[lit] = None
        if len(kept) < 2:
            return next(iter(kept)) if kept else self.true_lit()
        out = self.fresh()
        add = self.solver.add_clause
        for lit in kept:
            add([-out, lit])
        add([out, *[-lit for lit in kept]])
        return out

    def gate_or_many(self, lits: list[int]) -> int:
        return -self.gate_and_many([-lit for lit in lits])

    # -- arithmetic building blocks -----------------------------------------
    def full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        s = self.gate_xor(self.gate_xor(a, b), cin)
        carry = self.gate_or(self.gate_and(a, b),
                             self.gate_and(cin, self.gate_xor(a, b)))
        return s, carry

    def adder(self, xs: list[int], ys: list[int], cin: int) -> list[int]:
        out = []
        carry = cin
        for a, b in zip(xs, ys):
            s, carry = self.full_adder(a, b, carry)
            out.append(s)
        return out

    def negate(self, xs: list[int]) -> list[int]:
        inverted = [-x for x in xs]
        return self.adder(inverted, self.const_bits(0, len(xs)), self.true_lit())

    def subtract(self, xs: list[int], ys: list[int]) -> list[int]:
        return self.adder(xs, [-y for y in ys], self.true_lit())

    def multiplier(self, xs: list[int], ys: list[int]) -> list[int]:
        width = len(xs)
        acc = self.const_bits(0, width)
        for i, y in enumerate(ys):
            partial = ([self.false_lit()] * i
                       + [self.gate_and(x, y) for x in xs[: width - i]])
            acc = self.adder(acc, partial, self.false_lit())
        return acc

    def less_than(self, xs: list[int], ys: list[int], signed: bool) -> int:
        """Literal that is true iff xs < ys."""
        lt = self.false_lit()
        # Walk from LSB to MSB so the last comparison dominates.
        pairs = list(zip(xs, ys))
        msb_index = len(pairs) - 1
        for i, (a, b) in enumerate(pairs):
            if signed and i == msb_index:
                # For the sign bit the sense flips: a=1,b=0 means a < b.
                bit_lt = self.gate_and(a, -b)
            else:
                bit_lt = self.gate_and(-a, b)
            eq = -self.gate_xor(a, b)
            lt = self.gate_or(bit_lt, self.gate_and(eq, lt))
        return lt

    def equals(self, xs: list[int], ys: list[int]) -> int:
        eqs = [-self.gate_xor(a, b) for a, b in zip(xs, ys)]
        return self.gate_and_many(eqs)

    def shifter(self, xs: list[int], amount: list[int], kind: str) -> list[int]:
        """Barrel shifter. ``kind`` in {shl, lshr, ashr, rotl, rotr}.

        Wasm semantics: the shift amount is taken modulo the width, so
        only the low log2(width) bits of ``amount`` participate.
        """
        width = len(xs)
        stages = max(1, (width - 1).bit_length())
        cur = list(xs)
        fill = xs[-1] if kind == "ashr" else self.false_lit()
        for stage in range(stages):
            shift = 1 << stage
            sel = amount[stage] if stage < len(amount) else self.false_lit()
            nxt = []
            for i in range(width):
                if kind == "shl":
                    src = cur[i - shift] if i - shift >= 0 else self.false_lit()
                elif kind in ("lshr", "ashr"):
                    src = cur[i + shift] if i + shift < width else fill
                elif kind == "rotl":
                    src = cur[(i - shift) % width]
                else:  # rotr
                    src = cur[(i + shift) % width]
                nxt.append(self.gate_mux(sel, src, cur[i]))
            cur = nxt
        return cur

    def popcount(self, xs: list[int]) -> list[int]:
        """Population count as a chain of 1-bit additions."""
        width = len(xs)
        total = self.const_bits(0, width)
        for x in xs:
            one = [x] + [self.false_lit()] * (width - 1)
            total = self.adder(total, one, self.false_lit())
        return total

    # -- term translation ----------------------------------------------------
    def blast_bv(self, term: Term) -> list[int]:
        cached = self._bv_cache.get(id(term))
        if cached is not None:
            return cached
        bits = self._blast_bv(term)
        assert len(bits) == term.width, (term.op, len(bits), term.width)
        self._bv_cache[id(term)] = bits
        return bits

    def _blast_bv(self, term: Term) -> list[int]:
        op = term.op
        width = term.width
        if op == "bvconst":
            return self.const_bits(term.const_value(), width)
        if op == "bvvar":
            name = term.payload[0]
            if name not in self.var_bits:
                self.var_bits[name] = [self.fresh() for _ in range(width)]
            return self.var_bits[name]
        if op in ("bvadd", "bvsub", "bvmul", "bvand", "bvor", "bvxor",
                  "bvshl", "bvlshr", "bvashr", "bvrotl", "bvrotr",
                  "bvudiv", "bvurem", "bvsdiv", "bvsrem"):
            xs = self.blast_bv(term.args[0])
            ys = self.blast_bv(term.args[1])
            if op == "bvadd":
                return self.adder(xs, ys, self.false_lit())
            if op == "bvsub":
                return self.subtract(xs, ys)
            if op == "bvmul":
                return self.multiplier(xs, ys)
            if op == "bvand":
                return [self.gate_and(a, b) for a, b in zip(xs, ys)]
            if op == "bvor":
                return [self.gate_or(a, b) for a, b in zip(xs, ys)]
            if op == "bvxor":
                return [self.gate_xor(a, b) for a, b in zip(xs, ys)]
            if op in ("bvshl", "bvlshr", "bvashr", "bvrotl", "bvrotr"):
                kind = {"bvshl": "shl", "bvlshr": "lshr", "bvashr": "ashr",
                        "bvrotl": "rotl", "bvrotr": "rotr"}[op]
                return self.shifter(xs, ys, kind)
            return self._division(op, xs, ys)
        if op == "bvnot":
            return [-x for x in self.blast_bv(term.args[0])]
        if op == "bvneg":
            return self.negate(self.blast_bv(term.args[0]))
        if op == "bvpopcnt":
            return self.popcount(self.blast_bv(term.args[0]))
        if op in ("bvclz", "bvctz"):
            return self._count_zeros(op, self.blast_bv(term.args[0]))
        if op == "concat":
            bits: list[int] = []
            for part in reversed(term.args):  # LSB-first storage
                bits.extend(self.blast_bv(part))
            return bits
        if op == "extract":
            hi, lo = term.payload
            return self.blast_bv(term.args[0])[lo:hi + 1]
        if op == "zeroext":
            inner = self.blast_bv(term.args[0])
            return inner + [self.false_lit()] * term.payload[0]
        if op == "signext":
            inner = self.blast_bv(term.args[0])
            return inner + [inner[-1]] * term.payload[0]
        if op == "ite":
            sel = self.blast_bool(term.args[0])
            xs = self.blast_bv(term.args[1])
            ys = self.blast_bv(term.args[2])
            return [self.gate_mux(sel, a, b) for a, b in zip(xs, ys)]
        raise ValueError(f"cannot bit-blast bitvector op {op}")

    def _division(self, op: str, xs: list[int], ys: list[int]) -> list[int]:
        """Encode division via the multiplication identity
        ``n = q*d + r`` with ``r < d`` when ``d != 0``; Wasm traps on
        division by zero, but WASAI's traces never reach that case, so
        we use the SMT-LIB convention (q = all-ones, r = n)."""
        width = len(xs)
        if op in ("bvsdiv", "bvsrem"):
            # Lower signed division onto unsigned via sign/magnitude.
            sign_x, sign_y = xs[-1], ys[-1]
            ax = self._abs(xs)
            ay = self._abs(ys)
            q = self._division("bvudiv", ax, ay)
            r = self._division("bvurem", ax, ay)
            if op == "bvsdiv":
                neg = self.gate_xor(sign_x, sign_y)
                return [self.gate_mux(neg, a, b)
                        for a, b in zip(self.negate(q), q)]
            return [self.gate_mux(sign_x, a, b)
                    for a, b in zip(self.negate(r), r)]
        q = [self.fresh() for _ in range(width)]
        r = [self.fresh() for _ in range(width)]
        d_zero = self.gate_and_many([-y for y in ys])
        # q*d (full 2w product must not overflow): extend to 2w bits.
        ext = [self.false_lit()] * width
        prod = self.multiplier_wide(q, ys)
        total = self.adder(prod, r + ext, self.false_lit())
        n_ext = xs + ext
        ok = self.equals(total, n_ext)
        r_lt_d = self.less_than(r, ys, signed=False)
        q_ones = self.equals(q, self.const_bits(mask(width), width))
        r_eq_n = self.equals(r, xs)
        # d != 0 -> (n == q*d + r and r < d); d == 0 -> q=~0, r=n.
        self.solver.add_clause([d_zero, ok])
        self.solver.add_clause([d_zero, r_lt_d])
        self.solver.add_clause([-d_zero, q_ones])
        self.solver.add_clause([-d_zero, r_eq_n])
        return q if op == "bvudiv" else r

    def multiplier_wide(self, xs: list[int], ys: list[int]) -> list[int]:
        """Full 2w-bit product of two w-bit inputs."""
        width = len(xs)
        out_width = 2 * width
        acc = self.const_bits(0, out_width)
        for i, y in enumerate(ys):
            partial = ([self.false_lit()] * i
                       + [self.gate_and(x, y) for x in xs]
                       + [self.false_lit()] * (out_width - i - width))
            acc = self.adder(acc, partial, self.false_lit())
        return acc

    def _abs(self, xs: list[int]) -> list[int]:
        sign = xs[-1]
        return [self.gate_mux(sign, n, x) for n, x in zip(self.negate(xs), xs)]

    def _count_zeros(self, op: str, xs: list[int]) -> list[int]:
        """clz/ctz via a chain of 'still counting' flags."""
        width = len(xs)
        order = list(reversed(xs)) if op == "bvclz" else list(xs)
        counting = self.true_lit()
        total = self.const_bits(0, width)
        for bit in order:
            cell = self.gate_and(counting, -bit)
            one = [cell] + [self.false_lit()] * (width - 1)
            total = self.adder(total, one, self.false_lit())
            counting = cell
        return total

    # -- boolean terms ---------------------------------------------------------
    def blast_bool(self, term: Term) -> int:
        cached = self._bool_cache.get(id(term))
        if cached is not None:
            return cached
        lit = self._blast_bool(term)
        self._bool_cache[id(term)] = lit
        return lit

    def _blast_bool(self, term: Term) -> int:
        op = term.op
        if op == "true":
            return self.true_lit()
        if op == "false":
            return self.false_lit()
        if op == "not":
            return -self.blast_bool(term.args[0])
        if op == "and":
            return self.gate_and_many([self.blast_bool(a) for a in term.args])
        if op == "or":
            return self.gate_or_many([self.blast_bool(a) for a in term.args])
        if op == "xor":
            return self.gate_xor(self.blast_bool(term.args[0]),
                                 self.blast_bool(term.args[1]))
        if op == "eq":
            lhs, rhs = term.args
            if lhs.is_bool():
                return -self.gate_xor(self.blast_bool(lhs), self.blast_bool(rhs))
            return self.equals(self.blast_bv(lhs), self.blast_bv(rhs))
        if op in ("bvult", "bvule", "bvslt", "bvsle"):
            xs = self.blast_bv(term.args[0])
            ys = self.blast_bv(term.args[1])
            signed = op.startswith("bvs")
            if op.endswith("lt"):
                return self.less_than(xs, ys, signed)
            return -self.less_than(ys, xs, signed)
        raise ValueError(f"cannot bit-blast boolean op {op}")

    def assert_term(self, term: Term) -> None:
        """Assert a boolean term as a top-level constraint."""
        self.solver.add_clause([self.blast_bool(term)])

    # -- model decoding ----------------------------------------------------------
    def decode(self, model: dict[int, bool]) -> dict[str, int]:
        """Turn a SAT model into unsigned integer variable values."""
        out: dict[str, int] = {}
        for name, bits in self.var_bits.items():
            value = 0
            for i, lit in enumerate(bits):
                bit = model.get(abs(lit), False)
                if lit < 0:
                    bit = not bit
                if bit:
                    value |= 1 << i
            out[name] = value
        return out
