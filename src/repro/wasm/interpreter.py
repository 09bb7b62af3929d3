"""A concrete WebAssembly interpreter (the EOSVM execution substrate).

Executes modules produced by :mod:`repro.wasm.parser` /
:mod:`repro.wasm.builder`.  Host imports (the EOSIO library APIs and
the instrumentation hooks of §3.3.1) are Python callables registered
per ``(module, name)`` pair.

Integers are held as unsigned Python ints of the appropriate width;
floats as Python floats (f32 results are rounded through a 32-bit
representation).  Traps raise :class:`Trap` subclasses, which the
EOSIO chain layer converts into reverted transactions.
"""

from __future__ import annotations

import math
import os
import struct
import time as _time
from dataclasses import dataclass
from typing import Callable, Sequence

from .module import Function, Module, PAGE_SIZE
from .opcodes import Instr, memory_access_size
from .types import F32, F64, FuncType, I32, I64, ValType

__all__ = ["Instance", "HostFunc", "Trap", "TrapUnreachable",
           "TrapIntegerDivide", "TrapMemoryOutOfBounds", "TrapStackOverflow",
           "TrapOutOfFuel", "TrapIndirectCall", "TrapIntegerOverflow",
           "TrapResourceLimit", "TrapDeadline", "ExecutionLimits",
           "InstanceTemplate", "translation_enabled"]

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF

# Process default for the direct-threaded translation layer
# (:mod:`repro.wasm.translate`).  On by default — the differential
# suite holds it to byte-identical behaviour — with two opt-outs: the
# REPRO_WASM_TRANSLATE=0 environment switch, read once at import (so
# forked workers inherit it), and the per-instance
# ``ExecutionLimits.translate`` override (the generic interpreter stays
# the reference semantics either way).
_TRANSLATE_DEFAULT = os.environ.get("REPRO_WASM_TRANSLATE", "1") != "0"


def translation_enabled() -> bool:
    """The process default ``ExecutionLimits.translate=None`` resolves
    to."""
    return _TRANSLATE_DEFAULT


class Trap(Exception):
    """Base class for Wasm traps."""


class TrapUnreachable(Trap):
    pass


class TrapIntegerDivide(Trap):
    pass


class TrapIntegerOverflow(Trap):
    pass


class TrapMemoryOutOfBounds(Trap):
    pass


class TrapStackOverflow(Trap):
    pass


class TrapOutOfFuel(Trap):
    pass


class TrapIndirectCall(Trap):
    pass


class TrapResourceLimit(Trap):
    """A hard host-resource budget (memory pages, table entries, trace
    length) was hit; the metered execution traps deterministically
    instead of exhausting host RAM."""


class TrapDeadline(Trap):
    """The per-invocation wall-clock deadline expired."""


@dataclass
class HostFunc:
    """A host-provided import: its Wasm signature and implementation.

    ``impl`` receives ``(instance, args)`` and returns a list of result
    values (empty list for void).
    """

    func_type: FuncType
    impl: Callable[["Instance", list], list]


@dataclass
class ExecutionLimits:
    """Deterministic execution bounds standing in for EOSVM's CPU
    metering.  ``fuel`` counts executed instructions.

    The remaining fields meter host resources against hostile
    contracts: ``max_memory_pages`` caps linear memory (instantiation
    and ``memory.grow``) even when the module declares no maximum,
    ``max_table_entries`` caps the funcref table, the trace budgets
    bound the instrumentation trace a single execution may emit, and
    ``deadline_s`` is a real wall-clock ceiling per top-level
    invocation.  Each may be None to disable that bound; every
    violation raises a deterministic :class:`Trap` subclass."""

    fuel: int = 5_000_000
    call_depth: int = 250
    max_memory_pages: int | None = 1024
    max_table_entries: int | None = 65_536
    max_trace_events: int | None = 1_000_000
    max_trace_bytes: int | None = 64 * 1024 * 1024
    deadline_s: float | None = None
    # Direct-threaded translation (repro.wasm.translate): True/False
    # force it on/off for instances run under these limits; None defers
    # to the process default (see translation_enabled).
    translate: bool | None = None


class _ControlEntry:
    """A label on the control stack: where ``br`` jumps to and how many
    values it carries."""

    __slots__ = ("kind", "target", "arity", "stack_height")

    def __init__(self, kind: str, target: int, arity: int, stack_height: int):
        self.kind = kind
        self.target = target
        self.arity = arity
        self.stack_height = stack_height


def _build_jump_table(body: list[Instr]) -> dict[int, tuple[int, int | None]]:
    """For each block/loop/if index, find (end index, else index)."""
    table: dict[int, tuple[int, int | None]] = {}
    stack: list[tuple[int, int | None]] = []
    for pc, instr in enumerate(body):
        if instr.op in ("block", "loop", "if"):
            stack.append((pc, None))
        elif instr.op == "else":
            start, _ = stack.pop()
            stack.append((start, pc))
        elif instr.op == "end":
            if stack:
                start, else_pc = stack.pop()
                table[start] = (pc, else_pc)
    return table


def _signed(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return value - (1 << bits) if value & sign else value


def _f32(value: float) -> float:
    """Round a float through the 32-bit representation."""
    return struct.unpack("<f", struct.pack("<f", value))[0]


class Instance:
    """An instantiated Wasm module plus its runtime state."""

    def __init__(self, module: Module,
                 host_imports: dict[tuple[str, str], HostFunc] | None = None,
                 limits: ExecutionLimits | None = None):
        self.module = module
        self.limits = limits or ExecutionLimits()
        self.fuel = self.limits.fuel
        self.host_imports = host_imports or {}
        self._call_depth = 0
        self._deadline: float | None = None
        # Resolve imported functions in index order.
        self._imported: list[HostFunc] = []
        for imp in module.imports:
            if imp.kind != "func":
                continue
            host = self.host_imports.get((imp.module, imp.name))
            if host is None:
                raise KeyError(
                    f"unresolved import {imp.module}.{imp.name}")
            declared = module.types[imp.desc]
            if host.func_type != declared:
                raise TypeError(
                    f"import {imp.module}.{imp.name} signature mismatch: "
                    f"declared {declared}, host {host.func_type}")
            self._imported.append(host)
        # Memory.  The declared minimum is pre-allocated, so it must be
        # metered here — a crafted module can declare 4 GiB up front.
        self.memory = bytearray()
        self.memory_max_pages: int | None = None
        if module.memories:
            memtype = module.memories[0]
            minimum = memtype.limits.minimum
            page_cap = self.limits.max_memory_pages
            if page_cap is not None and minimum > page_cap:
                raise TrapResourceLimit(
                    f"declared memory minimum {minimum} pages exceeds "
                    f"the {page_cap}-page execution limit")
            self.memory = bytearray(minimum * PAGE_SIZE)
            self.memory_max_pages = memtype.limits.maximum
        # Globals.
        self.globals: list = []
        for glob in module.globals:
            self.globals.append(self._eval_const_expr(glob.init))
        # Table.  Both the declared minimum and element-driven growth
        # are metered: a single element segment at a huge offset would
        # otherwise allocate gigabytes of None slots.
        self.table: list[int | None] = []
        table_cap = self.limits.max_table_entries
        if module.tables:
            minimum = module.tables[0].limits.minimum
            if table_cap is not None and minimum > table_cap:
                raise TrapResourceLimit(
                    f"declared table minimum {minimum} exceeds the "
                    f"{table_cap}-entry execution limit")
            self.table = [None] * minimum
        for elem in module.elements:
            offset = self._eval_const_expr(elem.offset)
            end = offset + len(elem.func_indices)
            if offset < 0 or (table_cap is not None and end > table_cap):
                raise TrapResourceLimit(
                    f"element segment [{offset}, {end}) exceeds the "
                    f"{table_cap}-entry execution limit")
            if end > len(self.table):
                self.table.extend([None] * (end - len(self.table)))
            for i, func_index in enumerate(elem.func_indices):
                self.table[offset + i] = func_index
        # Data segments.
        for segment in module.data_segments:
            offset = self._eval_const_expr(segment.offset)
            end = offset + len(segment.data)
            if end > len(self.memory):
                raise TrapMemoryOutOfBounds("data segment out of bounds")
            self.memory[offset:end] = segment.data
        self._jump_tables: dict[int, dict[int, tuple[int, int | None]]] = {}
        # Translations sit beside the jump tables, keyed the same way:
        # id(func) -> TranslatedFunction, or None for a function the
        # translator punted on; None when translation is off.  The
        # module keeps its functions alive, so an id is never reused
        # while this instance exists, and the translations die with it.
        wants_translate = self.limits.translate
        if wants_translate is None:
            wants_translate = _TRANSLATE_DEFAULT
        self._translations: dict | None = {} if wants_translate else None
        if module.start is not None:
            self.invoke_index(module.start, [])

    # -- public API ------------------------------------------------------
    def invoke(self, export_name: str, args: Sequence = ()) -> list:
        """Call an exported function by name."""
        index = self.module.export_index(export_name, "func")
        if index is None:
            raise KeyError(f"no exported function named {export_name!r}")
        return self.invoke_index(index, list(args))

    def invoke_index(self, func_index: int, args: list) -> list:
        """Call a function by index (import-space indexing)."""
        if self._call_depth == 0 and self.limits.deadline_s is not None:
            self._deadline = _time.monotonic() + self.limits.deadline_s
        if self.module.is_imported_function(func_index):
            host = self._imported[func_index]
            results = host.impl(self, list(args))
            return list(results) if results else []
        func = self.module.local_function(func_index)
        return self._call_local(func, args)

    def reset_fuel(self, fuel: int | None = None) -> None:
        self.fuel = fuel if fuel is not None else self.limits.fuel

    # -- memory accessors (used by host functions) -------------------------
    def mem_read(self, addr: int, length: int) -> bytes:
        if addr < 0 or addr + length > len(self.memory):
            raise TrapMemoryOutOfBounds(f"read [{addr}, {addr + length})")
        return bytes(self.memory[addr:addr + length])

    def mem_write(self, addr: int, data: bytes) -> None:
        if addr < 0 or addr + len(data) > len(self.memory):
            raise TrapMemoryOutOfBounds(f"write [{addr}, {addr + len(data)})")
        self.memory[addr:addr + len(data)] = data

    def mem_read_cstr(self, addr: int, max_len: int = 256) -> str:
        """Read a NUL-terminated string (for assertion messages)."""
        out = bytearray()
        while len(out) < max_len and addr < len(self.memory):
            byte = self.memory[addr]
            if byte == 0:
                break
            out.append(byte)
            addr += 1
        return out.decode("utf-8", errors="replace")

    # -- internals -----------------------------------------------------------
    def _eval_const_expr(self, instructions: list[Instr]):
        if len(instructions) != 1:
            raise ValueError("only single-instruction init exprs supported")
        instr = instructions[0]
        if instr.op == "i32.const":
            return instr.args[0] & MASK32
        if instr.op == "i64.const":
            return instr.args[0] & MASK64
        if instr.op in ("f32.const", "f64.const"):
            return instr.args[0]
        raise ValueError(f"unsupported init expr {instr.op}")

    def _call_local(self, func: Function, args: list) -> list:
        self._call_depth += 1
        if self._call_depth > self.limits.call_depth:
            self._call_depth -= 1
            raise TrapStackOverflow(f"call depth {self.limits.call_depth}")
        try:
            func_type = self.module.types[func.type_index]
            locals_list = list(args)
            for valtype in func.locals:
                locals_list.append(0.0 if valtype.is_float else 0)
            code = None
            translations = self._translations
            if translations is not None:
                code = translations.get(id(func), False)
                if code is False:
                    # The lazy import breaks the interpreter <->
                    # translate module cycle.
                    from .translate import translated_function
                    code = translations[id(func)] = translated_function(
                        self.module, func)
            if code is not None:
                result = code.run(self, locals_list)
            else:
                result = self._execute(func, locals_list)
            arity = len(func_type.results)
            return result[-arity:] if arity else []
        finally:
            self._call_depth -= 1

    def _jump_table_for(self, func: Function) -> dict[int, tuple[int, int | None]]:
        key = id(func)
        table = self._jump_tables.get(key)
        if table is None:
            table = _build_jump_table(func.body)
            self._jump_tables[key] = table
        return table

    def _execute(self, func: Function, locals_list: list) -> list:
        body = func.body
        jumps = self._jump_table_for(func)
        stack: list = []
        control: list[_ControlEntry] = []
        pc = 0
        body_len = len(body)
        while pc < body_len:
            if self.fuel <= 0:
                raise TrapOutOfFuel("instruction budget exhausted")
            self.fuel -= 1
            if self._deadline is not None and (self.fuel & 2047) == 0 \
                    and _time.monotonic() > self._deadline:
                raise TrapDeadline(
                    f"wall-clock deadline of {self.limits.deadline_s}s "
                    "expired")
            instr = body[pc]
            op = instr.op
            # -- control flow ---------------------------------------------
            if op in ("block", "loop", "if"):
                arity = 0 if instr.args[0] is None else 1
                end_pc, else_pc = jumps[pc]
                if op == "if":
                    cond = stack.pop()
                    if cond:
                        control.append(_ControlEntry(
                            "if", end_pc, arity, len(stack)))
                    elif else_pc is not None:
                        control.append(_ControlEntry(
                            "if", end_pc, arity, len(stack)))
                        pc = else_pc
                    else:
                        pc = end_pc
                elif op == "block":
                    control.append(_ControlEntry(
                        "block", end_pc, arity, len(stack)))
                else:  # loop: br target is the loop head, arity 0 on branch
                    control.append(_ControlEntry(
                        "loop", pc, arity, len(stack)))
                pc += 1
                continue
            if op == "else":
                # Reached after the then-arm: jump past the end.
                entry = control.pop()
                pc = entry.target + 1
                continue
            if op == "end":
                if control:
                    control.pop()
                pc += 1
                continue
            if op in ("br", "br_if", "br_table"):
                if op == "br_if":
                    cond = stack.pop()
                    if not cond:
                        pc += 1
                        continue
                    depth = instr.args[0]
                elif op == "br_table":
                    labels, default = instr.args
                    index = stack.pop()
                    depth = labels[index] if index < len(labels) else default
                else:
                    depth = instr.args[0]
                pc = self._branch(stack, control, depth)
                continue
            if op == "return":
                return stack
            if op == "unreachable":
                raise TrapUnreachable("unreachable executed")
            if op == "nop":
                pc += 1
                continue
            if op == "call":
                results = self.invoke_index(instr.args[0],
                                            self._pop_args(stack, instr.args[0]))
                stack.extend(results)
                pc += 1
                continue
            if op == "call_indirect":
                type_index = instr.args[0]
                table_slot = stack.pop()
                if table_slot >= len(self.table) or self.table[table_slot] is None:
                    raise TrapIndirectCall(f"bad table slot {table_slot}")
                func_index = self.table[table_slot]
                actual = self.module.function_type(func_index)
                expected = self.module.types[type_index]
                if actual != expected:
                    raise TrapIndirectCall("indirect call type mismatch")
                results = self.invoke_index(func_index,
                                            self._pop_args(stack, func_index))
                stack.extend(results)
                pc += 1
                continue
            # -- everything else is straight-line -----------------------------
            self._step_simple(instr, stack, locals_list)
            pc += 1
        return stack

    def _pop_args(self, stack: list, func_index: int) -> list:
        count = len(self.module.function_type(func_index).params)
        if count == 0:
            return []
        args = stack[-count:]
        del stack[-count:]
        return args

    def _branch(self, stack: list, control: list[_ControlEntry],
                depth: int) -> int:
        """Execute a br of the given label depth; returns the new pc."""
        if depth >= len(control):
            # Branch targeting the function body label: acts as return.
            # The caller extracts the result arity from the stack top.
            return 1 << 30
        entry = control[len(control) - 1 - depth]
        carried = []
        if entry.kind != "loop" and entry.arity:
            carried = stack[-entry.arity:]
        del stack[entry.stack_height:]
        stack.extend(carried)
        # Pop labels up to and including the target (loop keeps its label).
        for _ in range(depth):
            control.pop()
        if entry.kind == "loop":
            return entry.target + 1  # loop head (re-enter body)
        control.pop()
        return entry.target + 1  # just past the matching end

    # -- simple (non-control) instructions -----------------------------------
    def _step_simple(self, instr: Instr, stack: list, locals_list: list) -> None:
        op = instr.op
        handler = _SIMPLE_OPS.get(op)
        if handler is not None:
            handler(self, instr, stack, locals_list)
            return
        raise NotImplementedError(f"opcode {op} not implemented")

    # -- memory load/store helpers ----------------------------------------
    def _load_bytes(self, instr: Instr, stack: list) -> bytes:
        align, offset = instr.args
        base = stack.pop()
        addr = base + offset
        size = memory_access_size(instr.op)
        if addr + size > len(self.memory) or addr < 0:
            raise TrapMemoryOutOfBounds(f"{instr.op} at {addr}")
        return bytes(self.memory[addr:addr + size])

    def _store_bytes(self, instr: Instr, stack: list, data: bytes) -> None:
        align, offset = instr.args
        base = stack.pop()
        addr = base + offset
        if addr + len(data) > len(self.memory) or addr < 0:
            raise TrapMemoryOutOfBounds(f"{instr.op} at {addr}")
        self.memory[addr:addr + len(data)] = data


class InstanceTemplate:
    """Reusable instantiation state for repeated runs of one module.

    ``Instance.__init__`` re-resolves imports, re-allocates memory, and
    re-applies data and element segments on every instantiation, but a
    scan campaign applies the same contract thousands of times with the
    same host imports and limits.  The template instantiates once,
    snapshots the post-init memory/globals/table images, and
    ``fresh()`` rewinds the single cached instance in place.

    Not valid for modules with a ``start`` function: start must observe
    fresh state once per instantiation, so callers re-instantiate those
    the ordinary way.
    """

    __slots__ = ("instance", "_memory_image", "_globals_image",
                 "_table_image")

    def __init__(self, module: Module,
                 host_imports: dict[tuple[str, str], HostFunc] | None = None,
                 limits: ExecutionLimits | None = None):
        if module.start is not None:
            raise ValueError("modules with a start function cannot be "
                             "templated")
        self.instance = Instance(module, host_imports, limits)
        self._memory_image = bytes(self.instance.memory)
        self._globals_image = list(self.instance.globals)
        self._table_image = list(self.instance.table)

    def fresh(self) -> Instance:
        """Rewind the cached instance to its post-instantiation state."""
        inst = self.instance
        inst.fuel = inst.limits.fuel
        inst._call_depth = 0
        inst._deadline = None
        image = self._memory_image
        if len(inst.memory) == len(image):
            inst.memory[:] = image
        else:
            inst.memory = bytearray(image)
        inst.globals[:] = self._globals_image
        inst.table[:] = self._table_image
        return inst


# ---------------------------------------------------------------------------
# Simple opcode handlers.  Registered in a dispatch dict for speed.
# ---------------------------------------------------------------------------

_SIMPLE_OPS: dict[str, Callable] = {}


def _op(name: str):
    def register(fn):
        _SIMPLE_OPS[name] = fn
        return fn
    return register


# -- constants and variables -------------------------------------------------

@_op("i32.const")
def _i32_const(inst, instr, stack, locals_list):
    stack.append(instr.args[0] & MASK32)


@_op("i64.const")
def _i64_const(inst, instr, stack, locals_list):
    stack.append(instr.args[0] & MASK64)


@_op("f32.const")
def _f32_const(inst, instr, stack, locals_list):
    stack.append(_f32(instr.args[0]))


@_op("f64.const")
def _f64_const(inst, instr, stack, locals_list):
    stack.append(float(instr.args[0]))


@_op("local.get")
def _local_get(inst, instr, stack, locals_list):
    stack.append(locals_list[instr.args[0]])


@_op("local.set")
def _local_set(inst, instr, stack, locals_list):
    locals_list[instr.args[0]] = stack.pop()


@_op("local.tee")
def _local_tee(inst, instr, stack, locals_list):
    locals_list[instr.args[0]] = stack[-1]


@_op("global.get")
def _global_get(inst, instr, stack, locals_list):
    stack.append(inst.globals[instr.args[0]])


@_op("global.set")
def _global_set(inst, instr, stack, locals_list):
    inst.globals[instr.args[0]] = stack.pop()


@_op("drop")
def _drop(inst, instr, stack, locals_list):
    stack.pop()


@_op("select")
def _select(inst, instr, stack, locals_list):
    cond = stack.pop()
    second = stack.pop()
    first = stack.pop()
    stack.append(first if cond else second)


# -- memory -------------------------------------------------------------------

@_op("memory.size")
def _memory_size(inst, instr, stack, locals_list):
    stack.append(len(inst.memory) // PAGE_SIZE)


@_op("memory.grow")
def _memory_grow(inst, instr, stack, locals_list):
    delta = stack.pop() & MASK32
    old_pages = len(inst.memory) // PAGE_SIZE
    new_pages = old_pages + delta
    # Effective cap: the declared maximum intersected with the
    # execution limit, so a module that declares no maximum (or a
    # hostile 4 GiB one) still cannot exhaust host RAM.  Per Wasm
    # semantics a failed grow returns -1, it does not trap.
    cap = inst.memory_max_pages
    hard = inst.limits.max_memory_pages
    if hard is not None:
        cap = hard if cap is None else min(cap, hard)
    if (cap is not None and new_pages > cap) or new_pages > 65_536:
        stack.append(MASK32)  # -1
        return
    inst.memory.extend(bytes(delta * PAGE_SIZE))
    stack.append(old_pages)


def _register_loads():
    def make_load(op: str):
        signed = op.endswith("_s")
        is_float = op.startswith("f")
        target_bits = 64 if op.startswith("i64") or op.startswith("f64") else 32
        size = memory_access_size(op)

        def load(inst, instr, stack, locals_list):
            data = inst._load_bytes(instr, stack)
            if is_float:
                fmt = "<f" if size == 4 else "<d"
                stack.append(struct.unpack(fmt, data)[0])
                return
            value = int.from_bytes(data, "little")
            if signed:
                value = _signed(value, size * 8)
                value &= MASK64 if target_bits == 64 else MASK32
            stack.append(value)

        return load

    def make_store(op: str):
        is_float = op.startswith("f")
        size = memory_access_size(op)

        def store(inst, instr, stack, locals_list):
            value = stack.pop()
            if is_float:
                fmt = "<f" if size == 4 else "<d"
                data = struct.pack(fmt, _f32(value) if size == 4 else value)
            else:
                data = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
            inst._store_bytes(instr, stack, data)

        return store

    from .opcodes import MEMORY_INSTRUCTIONS
    for op in MEMORY_INSTRUCTIONS:
        if ".load" in op:
            _SIMPLE_OPS[op] = make_load(op)
        else:
            _SIMPLE_OPS[op] = make_store(op)


_register_loads()


# -- integer arithmetic ---------------------------------------------------------

def _register_int_ops():
    def binop(bits: int, fn):
        m = MASK64 if bits == 64 else MASK32

        def handler(inst, instr, stack, locals_list):
            rhs = stack.pop()
            lhs = stack.pop()
            stack.append(fn(lhs, rhs, bits) & m)

        return handler

    def unop(bits: int, fn):
        m = MASK64 if bits == 64 else MASK32

        def handler(inst, instr, stack, locals_list):
            stack.append(fn(stack.pop(), bits) & m)

        return handler

    def relop(bits: int, fn):
        def handler(inst, instr, stack, locals_list):
            rhs = stack.pop()
            lhs = stack.pop()
            stack.append(1 if fn(lhs, rhs, bits) else 0)

        return handler

    def div_s(a, b, bits):
        if b == 0:
            raise TrapIntegerDivide("signed division by zero")
        sa, sb = _signed(a, bits), _signed(b, bits)
        if sa == -(1 << (bits - 1)) and sb == -1:
            raise TrapIntegerOverflow("signed division overflow")
        q = abs(sa) // abs(sb)
        return -q if (sa < 0) != (sb < 0) else q

    def rem_s(a, b, bits):
        if b == 0:
            raise TrapIntegerDivide("signed remainder by zero")
        sa, sb = _signed(a, bits), _signed(b, bits)
        r = abs(sa) % abs(sb)
        return -r if sa < 0 else r

    def div_u(a, b, bits):
        if b == 0:
            raise TrapIntegerDivide("unsigned division by zero")
        return a // b

    def rem_u(a, b, bits):
        if b == 0:
            raise TrapIntegerDivide("unsigned remainder by zero")
        return a % b

    def rotl(a, b, bits):
        b %= bits
        return (a << b) | (a >> (bits - b)) if b else a

    def rotr(a, b, bits):
        b %= bits
        return (a >> b) | (a << (bits - b)) if b else a

    def clz(a, bits):
        return bits - a.bit_length()

    def ctz(a, bits):
        if a == 0:
            return bits
        return (a & -a).bit_length() - 1

    int_binops = {
        "add": lambda a, b, bits: a + b,
        "sub": lambda a, b, bits: a - b,
        "mul": lambda a, b, bits: a * b,
        "div_s": div_s,
        "div_u": div_u,
        "rem_s": rem_s,
        "rem_u": rem_u,
        "and": lambda a, b, bits: a & b,
        "or": lambda a, b, bits: a | b,
        "xor": lambda a, b, bits: a ^ b,
        "shl": lambda a, b, bits: a << (b % bits),
        "shr_u": lambda a, b, bits: a >> (b % bits),
        "shr_s": lambda a, b, bits: _signed(a, bits) >> (b % bits),
        "rotl": rotl,
        "rotr": rotr,
    }
    int_unops = {
        "clz": clz,
        "ctz": ctz,
        "popcnt": lambda a, bits: bin(a).count("1"),
    }
    int_relops = {
        "eq": lambda a, b, bits: a == b,
        "ne": lambda a, b, bits: a != b,
        "lt_u": lambda a, b, bits: a < b,
        "gt_u": lambda a, b, bits: a > b,
        "le_u": lambda a, b, bits: a <= b,
        "ge_u": lambda a, b, bits: a >= b,
        "lt_s": lambda a, b, bits: _signed(a, bits) < _signed(b, bits),
        "gt_s": lambda a, b, bits: _signed(a, bits) > _signed(b, bits),
        "le_s": lambda a, b, bits: _signed(a, bits) <= _signed(b, bits),
        "ge_s": lambda a, b, bits: _signed(a, bits) >= _signed(b, bits),
    }
    for prefix, bits in (("i32", 32), ("i64", 64)):
        for name, fn in int_binops.items():
            _SIMPLE_OPS[f"{prefix}.{name}"] = binop(bits, fn)
        for name, fn in int_unops.items():
            _SIMPLE_OPS[f"{prefix}.{name}"] = unop(bits, fn)
        for name, fn in int_relops.items():
            _SIMPLE_OPS[f"{prefix}.{name}"] = relop(bits, fn)
        _SIMPLE_OPS[f"{prefix}.eqz"] = (
            lambda inst, instr, stack, locals_list:
            stack.append(1 if stack.pop() == 0 else 0))


_register_int_ops()


# -- float arithmetic -------------------------------------------------------------

def _register_float_ops():
    def f32_wrap(fn):
        def handler(inst, instr, stack, locals_list):
            stack.append(_f32(fn(stack)))
        return handler

    def f64_wrap(fn):
        def handler(inst, instr, stack, locals_list):
            stack.append(float(fn(stack)))
        return handler

    def pop2(stack):
        rhs = stack.pop()
        lhs = stack.pop()
        return lhs, rhs

    float_binops = {
        "add": lambda s: (lambda a, b: a + b)(*pop2(s)),
        "sub": lambda s: (lambda a, b: a - b)(*pop2(s)),
        "mul": lambda s: (lambda a, b: a * b)(*pop2(s)),
        "div": lambda s: _fdiv(*pop2(s)),
        "min": lambda s: _fmin(*pop2(s)),
        "max": lambda s: _fmax(*pop2(s)),
        "copysign": lambda s: math.copysign(*pop2(s)),
    }
    float_unops = {
        "abs": lambda s: abs(s.pop()),
        "neg": lambda s: -s.pop(),
        "ceil": lambda s: float(math.ceil(s.pop())),
        "floor": lambda s: float(math.floor(s.pop())),
        "trunc": lambda s: float(math.trunc(s.pop())),
        "nearest": lambda s: _nearest(s.pop()),
        "sqrt": lambda s: math.sqrt(s.pop()),
    }
    float_relops = {
        "eq": lambda a, b: a == b,
        "ne": lambda a, b: a != b,
        "lt": lambda a, b: a < b,
        "gt": lambda a, b: a > b,
        "le": lambda a, b: a <= b,
        "ge": lambda a, b: a >= b,
    }
    for prefix, wrap in (("f32", f32_wrap), ("f64", f64_wrap)):
        for name, fn in float_binops.items():
            _SIMPLE_OPS[f"{prefix}.{name}"] = wrap(fn)
        for name, fn in float_unops.items():
            _SIMPLE_OPS[f"{prefix}.{name}"] = wrap(fn)
        for name, fn in float_relops.items():
            def make_rel(f):
                def handler(inst, instr, stack, locals_list):
                    rhs = stack.pop()
                    lhs = stack.pop()
                    stack.append(1 if f(lhs, rhs) else 0)
                return handler
            _SIMPLE_OPS[f"{prefix}.{name}"] = make_rel(fn)


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


def _fmin(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    return min(a, b)


def _fmax(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    return max(a, b)


def _nearest(value: float) -> float:
    """Round-to-nearest, ties to even (Wasm semantics)."""
    floor_v = math.floor(value)
    diff = value - floor_v
    if diff < 0.5:
        return float(floor_v)
    if diff > 0.5:
        return float(floor_v + 1)
    return float(floor_v if floor_v % 2 == 0 else floor_v + 1)


_register_float_ops()


# -- conversions ---------------------------------------------------------------------

def _register_conversions():
    def trunc_to_int(bits: int, signed: bool):
        lo = -(1 << (bits - 1)) if signed else 0
        hi = (1 << (bits - 1)) if signed else (1 << bits)
        m = MASK64 if bits == 64 else MASK32

        def handler(inst, instr, stack, locals_list):
            value = stack.pop()
            if math.isnan(value) or math.isinf(value):
                raise TrapIntegerOverflow(f"trunc of {value}")
            truncated = math.trunc(value)
            if not lo <= truncated < hi:
                raise TrapIntegerOverflow(f"trunc {value} out of range")
            stack.append(truncated & m)

        return handler

    _SIMPLE_OPS["i32.wrap_i64"] = (
        lambda inst, instr, stack, locals_list:
        stack.append(stack.pop() & MASK32))
    for src in ("f32", "f64"):
        for dst, bits in (("i32", 32), ("i64", 64)):
            _SIMPLE_OPS[f"{dst}.trunc_{src}_s"] = trunc_to_int(bits, True)
            _SIMPLE_OPS[f"{dst}.trunc_{src}_u"] = trunc_to_int(bits, False)
    _SIMPLE_OPS["i64.extend_i32_s"] = (
        lambda inst, instr, stack, locals_list:
        stack.append(_signed(stack.pop(), 32) & MASK64))
    _SIMPLE_OPS["i64.extend_i32_u"] = (
        lambda inst, instr, stack, locals_list:
        stack.append(stack.pop() & MASK32))

    def convert(width: int, bits: int, signed: bool):
        def handler(inst, instr, stack, locals_list):
            value = stack.pop()
            if signed:
                value = _signed(value, bits)
            result = float(value)
            stack.append(_f32(result) if width == 32 else result)
        return handler

    for dst, width in (("f32", 32), ("f64", 64)):
        for src, bits in (("i32", 32), ("i64", 64)):
            _SIMPLE_OPS[f"{dst}.convert_{src}_s"] = convert(width, bits, True)
            _SIMPLE_OPS[f"{dst}.convert_{src}_u"] = convert(width, bits, False)
    _SIMPLE_OPS["f32.demote_f64"] = (
        lambda inst, instr, stack, locals_list: stack.append(_f32(stack.pop())))
    _SIMPLE_OPS["f64.promote_f32"] = (
        lambda inst, instr, stack, locals_list: stack.append(float(stack.pop())))
    _SIMPLE_OPS["i32.reinterpret_f32"] = (
        lambda inst, instr, stack, locals_list:
        stack.append(struct.unpack("<I", struct.pack("<f", stack.pop()))[0]))
    _SIMPLE_OPS["i64.reinterpret_f64"] = (
        lambda inst, instr, stack, locals_list:
        stack.append(struct.unpack("<Q", struct.pack("<d", stack.pop()))[0]))
    _SIMPLE_OPS["f32.reinterpret_i32"] = (
        lambda inst, instr, stack, locals_list:
        stack.append(struct.unpack("<f", struct.pack("<I", stack.pop()))[0]))
    _SIMPLE_OPS["f64.reinterpret_i64"] = (
        lambda inst, instr, stack, locals_list:
        stack.append(struct.unpack("<d", struct.pack("<Q", stack.pop()))[0]))


_register_conversions()
