"""The machine state μ of the EOSVM simulator (§3.1, §3.4.3).

A machine state holds the stack μ_s (one frame per invoked function,
isolating namespaces as EOSVM's call stack does), the Local sections
μ_l, the Global section μ_g, the linear memory μ_m and the returns
list μ_r.  Values are SMT terms (:mod:`repro.smt`); concrete runtime
values appear as constant terms, so "symbolic or concrete" is uniform.
"""

from __future__ import annotations

import struct

from ..smt import BitVecVal, Term
from .memory import SymbolicMemory

__all__ = ["MachineState", "Frame", "as_term", "concrete_term",
           "concrete_value"]


def as_term(value: "Term | int", width: int) -> Term:
    """Promote a concrete runtime value to a constant term."""
    if isinstance(value, Term):
        return value
    return BitVecVal(int(value), width)


def concrete_term(valtype_name: str, value) -> Term:
    """A traced runtime value of Wasm type ``valtype_name`` as a
    constant term; a float becomes its IEEE bit pattern."""
    if valtype_name == "i32":
        return BitVecVal(int(value), 32)
    if valtype_name == "i64":
        return BitVecVal(int(value), 64)
    if valtype_name == "f32":
        return BitVecVal(f32_bits(float(value)), 32)
    return BitVecVal(f64_bits(float(value)), 64)


def f32_bits(value: float) -> int:
    return struct.unpack("<I", struct.pack("<f", value))[0]


def f64_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def concrete_value(value) -> int | None:
    """The concrete integer behind a machine value, or None.

    Constant terms *are* the simulator's concrete shadow state: the
    SMT layer constant-folds, so any value whose data flow never
    touched a symbolic input stays a constant term.  The divergence
    sentinel uses this to compare the shadow against the recorded
    trace; a None (genuinely symbolic value) means there is nothing
    concrete to cross-check at that checkpoint.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, Term) and not value.is_bool() and value.is_const():
        return value.const_value()
    return None


class Frame:
    """One function's stack frame and Local section (μ_ŝ and μ_l̂)."""

    __slots__ = ("func_index", "stack", "locals")

    def __init__(self, func_index: int, locals_init: list[Term]):
        self.func_index = func_index
        self.stack: list = []
        self.locals: list = list(locals_init)

    def push(self, value) -> None:
        self.stack.append(value)

    def pop(self):
        return self.stack.pop()

    def pop_n(self, count: int) -> list:
        if count == 0:
            return []
        values = self.stack[-count:]
        del self.stack[-count:]
        return values

    def top(self):
        return self.stack[-1]

    def local_get(self, index: int):
        while index >= len(self.locals):
            self.locals.append(BitVecVal(0, 64))
        return self.locals[index]

    def local_set(self, index: int, value) -> None:
        while index >= len(self.locals):
            self.locals.append(BitVecVal(0, 64))
        self.locals[index] = value


class MachineState:
    """μ: the full simulator state."""

    def __init__(self) -> None:
        self.frames: list[Frame] = []     # μ_s / μ_l, one per function
        self.globals: dict[int, Term] = {}   # μ_g
        self.memory = SymbolicMemory()       # μ_m
        self.returns: list[list] = []        # μ_r

    # -- frame management (the ^ namespace of §3.4) -----------------------
    @property
    def frame(self) -> Frame:
        """The executing function's frame (μ_ŝ / μ_l̂)."""
        return self.frames[-1]

    def push_frame(self, func_index: int, locals_init: list) -> Frame:
        frame = Frame(func_index, locals_init)
        self.frames.append(frame)
        return frame

    def pop_returns(self) -> list:
        return self.returns.pop() if self.returns else []

    @property
    def depth(self) -> int:
        return len(self.frames)

    # -- globals --------------------------------------------------------------
    def global_get(self, index: int) -> Term:
        return self.globals.get(index, BitVecVal(0, 64))

    def global_set(self, index: int, value: Term) -> None:
        self.globals[index] = value
