"""Direct-threaded translation of Wasm functions to step chains.

The generic interpreter (:meth:`repro.wasm.interpreter.Instance._execute`)
pays a per-step decode cost for every executed instruction: fetch the
:class:`~repro.wasm.opcodes.Instr`, read ``instr.op``, walk a chain of
string comparisons for the control ops, then a dict lookup plus operand
unpacking for everything else.  None of that work depends on runtime
state — the opcode, its immediates, the jump targets of structured
control and the callee of a direct ``call`` are all fixed once the
function body exists.

:func:`translated_function` therefore compiles a function body ONCE into
a list of per-instruction step functions ("direct-threaded" dispatch):
each step has its operands, jump targets, local slots, memory offsets
and masks pre-bound as default arguments (so a step is one function
object, with no closure cells), executes its instruction against
``(instance, stack, control, locals)`` and returns the next program
counter.  The driver loop in :class:`TranslatedFunction` then only
meters fuel (and the optional wall-clock deadline) and threads the pc —
everything else was resolved at translation time.

Semantics are bit-for-bit those of the generic interpreter: the control
stack, branch unwinding, trap types and messages, fuel accounting and
the deadline check cadence are all mirrored exactly, and the
differential suite (``tests/wasm/test_translate_differential.py``)
holds both engines to identical traces, traps and verdicts over the
benchmark and hostile corpora.  Rarely executed opcodes (float math,
conversions, ``memory.grow`` ...) reuse the generic handler table with
the instruction pre-bound, so there is exactly one implementation of
their semantics.

Instrumented code is mostly hook idioms: the instrumenter wraps each
instruction with k operands in k ``local.set`` spills, ``i32.const
site``, k ``local.get``, a ``call`` to a result-less ``wasabi`` import
and k ``local.get`` reloads.  Where no jump lands inside one, the whole
idiom compiles to ONE step: it writes the scratch locals, leaves the
operands on the stack, calls the import's ``impl(inst, [site,
*operands])`` as ``_call_host`` does, and charges the fuel of all 3k+2
instructions — the 2k+1 up to the call before ``impl`` runs, the k
reloads after it — so ``inst.fuel`` is exact whenever ``impl`` can see
it or trap.  The other 3k+1 pcs get no step of their own.  When the
remaining fuel, or a ``fuel & 2047`` deadline probe, would fall inside
the idiom, the fused step runs only the idiom's first instruction and
raises :class:`_Split`; the driver then translates the rest and runs it
one instruction at a time under its own metering, so every trap fires
at the same instruction, with the same partial trace, as in the
generic interpreter (which always runs the long form).

Translations live on the :class:`~repro.wasm.interpreter.Instance` that
runs them, beside its jump tables: each deployed contract translates a
function on its first call, and the translations die with the
contract's instance.  A function the translator cannot handle falls
back to the generic interpreter — translation can change speed, never
behaviour.
"""

from __future__ import annotations

import struct
import time as _time

from .interpreter import (MASK32, MASK64, _SIMPLE_OPS, _ControlEntry,
                          _build_jump_table, _f32, _signed, TrapDeadline,
                          TrapIndirectCall, TrapMemoryOutOfBounds,
                          TrapOutOfFuel, TrapUnreachable)
from .module import Function, Module
from .opcodes import memory_access_size

__all__ = ["TranslatedFunction", "translated_function"]

# The sentinel pc the generic interpreter uses for a branch that exits
# the function body; any value >= the body length ends the driver loop.
_RETURN_PC = 1 << 30

# The import namespace of the instrumenter's hooks
# (``repro.instrument.hooks.HOOK_MODULE``); calls into it are the only
# ones fused with their operand spills and reloads.
_HOOK_MODULE = "wasabi"


def translated_function(module: Module,
                        func: Function) -> "TranslatedFunction | None":
    """The translation of ``func`` (None: use the generic interpreter).
    Modules are immutable once they execute, so the caller may keep the
    translation for as long as it keeps the module."""
    try:
        return _translate(module, func)
    except Exception:
        return None  # untranslatable: the generic loop is the answer


class _Split(Exception):
    """Raised by a fused hook step whose idiom a fuel or deadline check
    would split: the step has run the idiom's first instruction, and
    the driver runs the rest one instruction at a time."""


class TranslatedFunction:
    """A compiled function body: one step per instruction or fused hook
    idiom, plus the metering driver loop."""

    __slots__ = ("steps", "size", "module", "body")

    def __init__(self, steps: list, module: Module, body: list):
        self.steps = steps
        self.size = len(steps)
        self.module = module
        self.body = body

    def run(self, inst, locals_list: list) -> list:
        """Execute the step chain; mirrors ``Instance._execute``.

        Fuel is checked then decremented before every instruction, and
        the wall-clock deadline is probed on the same ``fuel & 2047``
        cadence as the generic loop, so metering traps fire at exactly
        the same instruction in both engines.
        """
        steps = self.steps
        size = self.size
        stack: list = []
        control: list = []
        pc = 0
        deadline = inst._deadline
        while True:
            try:
                if deadline is None:
                    while pc < size:
                        fuel = inst.fuel
                        if fuel <= 0:
                            raise TrapOutOfFuel(
                                "instruction budget exhausted")
                        inst.fuel = fuel - 1
                        pc = steps[pc](inst, stack, control, locals_list)
                else:
                    while pc < size:
                        fuel = inst.fuel
                        if fuel <= 0:
                            raise TrapOutOfFuel(
                                "instruction budget exhausted")
                        fuel -= 1
                        inst.fuel = fuel
                        if (fuel & 2047) == 0 \
                                and _time.monotonic() > deadline:
                            raise TrapDeadline(
                                "wall-clock deadline of "
                                f"{inst.limits.deadline_s}s expired")
                        pc = steps[pc](inst, stack, control, locals_list)
                return stack
            except _Split:
                pc = self._unfuse(pc)

    def _unfuse(self, pc: int) -> int:
        """Give each instruction after the first of the fused idiom at
        ``pc`` a step of its own, unless an earlier split already did,
        and return the pc to resume at."""
        steps = self.steps
        resume = end = pc + 1
        while end < self.size and steps[end] is _inside_idiom:
            steps[end] = _translate_instr(self.module, {}, end,
                                          self.body[end])
            end += 1
        return resume


# ---------------------------------------------------------------------------
# Per-instruction step factories.  Every factory pre-binds the
# instruction's immediates and the next pc as default arguments rather
# than closure cells, so a step is one function object instead of a
# function, a closure tuple and a cell per operand.  An instruction
# with no operands and no fall-through pc shares one module-level step.
# The steps all share the (inst, stack, control, locals_list) -> next_pc
# call signature; callers never pass the defaults.
# ---------------------------------------------------------------------------

def _const(value, next_pc):
    def step(inst, stack, control, locals_list,
             value=value, next_pc=next_pc):
        stack.append(value)
        return next_pc
    return step


def _local_get(index, next_pc):
    def step(inst, stack, control, locals_list,
             index=index, next_pc=next_pc):
        stack.append(locals_list[index])
        return next_pc
    return step


def _local_set(index, next_pc):
    def step(inst, stack, control, locals_list,
             index=index, next_pc=next_pc):
        locals_list[index] = stack.pop()
        return next_pc
    return step


def _local_tee(index, next_pc):
    def step(inst, stack, control, locals_list,
             index=index, next_pc=next_pc):
        locals_list[index] = stack[-1]
        return next_pc
    return step


def _global_get(index, next_pc):
    def step(inst, stack, control, locals_list,
             index=index, next_pc=next_pc):
        stack.append(inst.globals[index])
        return next_pc
    return step


def _global_set(index, next_pc):
    def step(inst, stack, control, locals_list,
             index=index, next_pc=next_pc):
        inst.globals[index] = stack.pop()
        return next_pc
    return step


def _drop(next_pc):
    def step(inst, stack, control, locals_list, next_pc=next_pc):
        stack.pop()
        return next_pc
    return step


def _select(next_pc):
    def step(inst, stack, control, locals_list, next_pc=next_pc):
        cond = stack.pop()
        second = stack.pop()
        first = stack.pop()
        stack.append(first if cond else second)
        return next_pc
    return step


def _binop(fn, m, next_pc):
    def step(inst, stack, control, locals_list,
             fn=fn, m=m, next_pc=next_pc):
        rhs = stack.pop()
        lhs = stack.pop()
        stack.append(fn(lhs, rhs) & m)
        return next_pc
    return step


def _relop(fn, next_pc):
    def step(inst, stack, control, locals_list, fn=fn, next_pc=next_pc):
        rhs = stack.pop()
        lhs = stack.pop()
        stack.append(1 if fn(lhs, rhs) else 0)
        return next_pc
    return step


def _eqz(next_pc):
    def step(inst, stack, control, locals_list, next_pc=next_pc):
        stack.append(1 if stack.pop() == 0 else 0)
        return next_pc
    return step


def _load_int(offset, size, bits, signed, m, op_name, next_pc):
    def step(inst, stack, control, locals_list, offset=offset, size=size,
             bits=bits, signed=signed, m=m, op_name=op_name,
             next_pc=next_pc):
        addr = stack.pop() + offset
        memory = inst.memory
        if addr + size > len(memory) or addr < 0:
            raise TrapMemoryOutOfBounds(f"{op_name} at {addr}")
        value = int.from_bytes(memory[addr:addr + size], "little")
        if signed:
            value = _signed(value, bits) & m
        stack.append(value)
        return next_pc
    return step


def _load_float(offset, size, fmt, op_name, next_pc):
    def step(inst, stack, control, locals_list, offset=offset, size=size,
             unpack=struct.Struct(fmt).unpack, op_name=op_name,
             next_pc=next_pc):
        addr = stack.pop() + offset
        memory = inst.memory
        if addr + size > len(memory) or addr < 0:
            raise TrapMemoryOutOfBounds(f"{op_name} at {addr}")
        stack.append(unpack(bytes(memory[addr:addr + size]))[0])
        return next_pc
    return step


def _store_int(offset, size, vmask, op_name, next_pc):
    def step(inst, stack, control, locals_list, offset=offset, size=size,
             vmask=vmask, op_name=op_name, next_pc=next_pc):
        value = stack.pop()
        addr = stack.pop() + offset
        memory = inst.memory
        if addr + size > len(memory) or addr < 0:
            raise TrapMemoryOutOfBounds(f"{op_name} at {addr}")
        memory[addr:addr + size] = (value & vmask).to_bytes(size, "little")
        return next_pc
    return step


def _store_float(offset, size, fmt, op_name, next_pc):
    def step(inst, stack, control, locals_list, offset=offset, size=size,
             pack=struct.Struct(fmt).pack, op_name=op_name,
             next_pc=next_pc):
        value = stack.pop()
        addr = stack.pop() + offset
        memory = inst.memory
        if addr + size > len(memory) or addr < 0:
            raise TrapMemoryOutOfBounds(f"{op_name} at {addr}")
        memory[addr:addr + size] = pack(_f32(value) if size == 4 else value)
        return next_pc
    return step


def _via_handler(handler, instr, next_pc):
    """Fallback for rare opcodes: the generic handler with the
    instruction pre-bound — one shared implementation of the
    semantics, minus the per-step dispatch."""
    def step(inst, stack, control, locals_list, handler=handler,
             instr=instr, next_pc=next_pc):
        handler(inst, instr, stack, locals_list)
        return next_pc
    return step


def _not_implemented(op):
    def step(inst, stack, control, locals_list, op=op):  # pragma: no cover
        raise NotImplementedError(f"opcode {op} not implemented")
    return step


# -- control flow ----------------------------------------------------------

def _block(end_pc, arity, next_pc):
    def step(inst, stack, control, locals_list, end_pc=end_pc, arity=arity,
             next_pc=next_pc):
        control.append(_ControlEntry("block", end_pc, arity, len(stack)))
        return next_pc
    return step


def _loop(head_pc, arity, next_pc):
    def step(inst, stack, control, locals_list, head_pc=head_pc,
             arity=arity, next_pc=next_pc):
        control.append(_ControlEntry("loop", head_pc, arity, len(stack)))
        return next_pc
    return step


def _if(end_pc, else_pc, arity, next_pc):
    def step(inst, stack, control, locals_list, end_pc=end_pc,
             else_next=None if else_pc is None else else_pc + 1,
             end_next=end_pc + 1, arity=arity, next_pc=next_pc):
        if stack.pop():
            control.append(_ControlEntry("if", end_pc, arity, len(stack)))
            return next_pc
        if else_next is not None:
            control.append(_ControlEntry("if", end_pc, arity, len(stack)))
            return else_next
        return end_next
    return step


def _else(inst, stack, control, locals_list):
    # Reached after the then-arm: pop the label, jump past the end.
    entry = control.pop()
    return entry.target + 1


def _end(next_pc):
    def step(inst, stack, control, locals_list, next_pc=next_pc):
        if control:
            control.pop()
        return next_pc
    return step


def _unwind(stack, control, depth):
    """Branch unwinding, byte-identical to ``Instance._branch``."""
    if depth >= len(control):
        return _RETURN_PC
    entry = control[len(control) - 1 - depth]
    carried = ()
    if entry.kind != "loop" and entry.arity:
        carried = stack[-entry.arity:]
    del stack[entry.stack_height:]
    stack.extend(carried)
    for _ in range(depth):
        control.pop()
    if entry.kind == "loop":
        return entry.target + 1
    control.pop()
    return entry.target + 1


def _br(depth):
    def step(inst, stack, control, locals_list, depth=depth):
        return _unwind(stack, control, depth)
    return step


def _br_if(depth, next_pc):
    def step(inst, stack, control, locals_list, depth=depth,
             next_pc=next_pc):
        if stack.pop():
            return _unwind(stack, control, depth)
        return next_pc
    return step


def _br_table(labels, default):
    def step(inst, stack, control, locals_list, labels=labels,
             count=len(labels), default=default):
        index = stack.pop()
        depth = labels[index] if index < count else default
        return _unwind(stack, control, depth)
    return step


def _return(inst, stack, control, locals_list):
    return _RETURN_PC


def _unreachable(inst, stack, control, locals_list):
    raise TrapUnreachable("unreachable executed")


def _nop(next_pc):
    def step(inst, stack, control, locals_list, next_pc=next_pc):
        return next_pc
    return step


def _raise_keyerror(pc):
    # An unmatched block/loop/if: the generic interpreter raises
    # KeyError from its jump-table lookup only if the instruction is
    # actually reached, so the translated body must do the same.
    def step(inst, stack, control, locals_list, pc=pc):
        raise KeyError(pc)
    return step


# -- calls -----------------------------------------------------------------

def _call_host(func_index, count, next_pc):
    def step(inst, stack, control, locals_list, func_index=func_index,
             count=count, next_pc=next_pc):
        if count:
            args = stack[-count:]
            del stack[-count:]
        else:
            args = []
        results = inst._imported[func_index].impl(inst, args)
        if results:
            stack.extend(results)
        return next_pc
    return step


def _call_local_fn(func, count, next_pc):
    def step(inst, stack, control, locals_list, func=func, count=count,
             next_pc=next_pc):
        if count:
            args = stack[-count:]
            del stack[-count:]
        else:
            args = []
        stack.extend(inst._call_local(func, args))
        return next_pc
    return step


def _call_dynamic(func_index, next_pc):
    # The callee index did not resolve at translation time; defer to
    # the runtime lookup so the failure (and its exception) happens at
    # execution, exactly as the generic interpreter would.
    def step(inst, stack, control, locals_list, func_index=func_index,
             next_pc=next_pc):
        results = inst.invoke_index(func_index,
                                    inst._pop_args(stack, func_index))
        stack.extend(results)
        return next_pc
    return step


def _call_indirect(expected, next_pc):
    def step(inst, stack, control, locals_list, expected=expected,
             next_pc=next_pc):
        table_slot = stack.pop()
        table = inst.table
        if table_slot >= len(table) or table[table_slot] is None:
            raise TrapIndirectCall(f"bad table slot {table_slot}")
        func_index = table[table_slot]
        actual = inst.module.function_type(func_index)
        if actual != expected:
            raise TrapIndirectCall("indirect call type mismatch")
        results = inst.invoke_index(func_index,
                                    inst._pop_args(stack, func_index))
        stack.extend(results)
        return next_pc
    return step


# -- fused hook idioms ------------------------------------------------------
# Each fused step is entered with the idiom's first instruction already
# metered by the driver, so ``fuel`` is what the long form would leave
# after it, and ``span`` (3k+1) instructions remain.  The long form
# meters them one by one: it traps out of fuel unless ``fuel >= span``,
# and probes the deadline if ``(fuel - j) & 2047 == 0`` for some j in
# 1..span, i.e. if ``(fuel - 1) & 2047 < span``.  In either case, and
# on a stack too short to spill (which only malformed code has), the
# step runs the first instruction and splits.  Otherwise ``impl`` sees
# the fuel left after the call's 2k+1 instructions, and the k reloads
# are charged once it returns.  A result-less import's ``impl`` should
# return nothing; whatever it does return lands below the reloaded
# operands, as in the long form.

def _inside_idiom(inst, stack, control, locals_list):  # pragma: no cover
    # The pcs a fused step covers; no jump lands on them, so only
    # TranslatedFunction._unfuse, which replaces them, ever sees them.
    raise AssertionError("pc inside a fused hook idiom")


def _fused_hook(site, func_index, slots, next_pc):
    count = len(slots)
    if count == 0:
        return _fused_hook0(site, func_index, next_pc)
    if count == 1:
        return _fused_hook1(site, func_index, slots[0], next_pc)
    if count == 2:
        return _fused_hook2(site, func_index, slots[0], slots[1], next_pc)
    return _fused_hookn(site, func_index, slots, next_pc)


def _fused_hook0(site, func_index, next_pc):
    # i32.const site; call
    def step(inst, stack, control, locals_list, site=site,
             func_index=func_index, next_pc=next_pc):
        fuel = inst.fuel
        if fuel < 1 or ((fuel - 1) & 2047 < 1
                        and inst._deadline is not None):
            stack.append(site)
            raise _Split
        inst.fuel = fuel - 1
        results = inst._imported[func_index].impl(inst, [site])
        if results:
            stack.extend(results)
        return next_pc
    return step


def _fused_hook1(site, func_index, slot, next_pc):
    # local.set a; i32.const site; local.get a; call; local.get a
    def step(inst, stack, control, locals_list, site=site,
             func_index=func_index, slot=slot, next_pc=next_pc):
        fuel = inst.fuel
        if fuel < 4 or not stack or ((fuel - 1) & 2047 < 4
                                     and inst._deadline is not None):
            locals_list[slot] = stack.pop()
            raise _Split
        value = locals_list[slot] = stack[-1]
        inst.fuel = fuel - 3
        results = inst._imported[func_index].impl(inst, [site, value])
        if results:
            stack[-1:-1] = results
        inst.fuel = fuel - 4
        return next_pc
    return step


def _fused_hook2(site, func_index, slot_a, slot_b, next_pc):
    # local.set b; local.set a; i32.const site; local.get a;
    # local.get b; call; local.get a; local.get b
    def step(inst, stack, control, locals_list, site=site,
             func_index=func_index, slot_a=slot_a, slot_b=slot_b,
             next_pc=next_pc):
        fuel = inst.fuel
        if fuel < 7 or len(stack) < 2 or ((fuel - 1) & 2047 < 7
                                          and inst._deadline is not None):
            locals_list[slot_b] = stack.pop()
            raise _Split
        first = locals_list[slot_a] = stack[-2]
        second = locals_list[slot_b] = stack[-1]
        inst.fuel = fuel - 5
        results = inst._imported[func_index].impl(
            inst, [site, first, second])
        if results:
            stack[-2:-2] = results
        inst.fuel = fuel - 7
        return next_pc
    return step


def _fused_hookn(site, func_index, slots, next_pc):
    count = len(slots)

    def step(inst, stack, control, locals_list, site=site,
             func_index=func_index, slots=slots, count=count,
             before=2 * count + 1, span=3 * count + 1, next_pc=next_pc):
        fuel = inst.fuel
        if fuel < span or len(stack) < count or (
                (fuel - 1) & 2047 < span and inst._deadline is not None):
            locals_list[slots[-1]] = stack.pop()
            raise _Split
        operands = stack[-count:]
        for slot, value in zip(slots, operands):
            locals_list[slot] = value
        inst.fuel = fuel - before
        results = inst._imported[func_index].impl(inst, [site, *operands])
        if results:
            stack[-count:-count] = results
        inst.fuel = fuel - span
        return next_pc
    return step


def _hook_idioms(module: Module, func: Function, jumps) -> dict:
    """Start pc -> (fused step, pcs after the start) for every hook
    idiom of ``func`` that can be fused: its callee is a result-less
    ``wasabi`` import, its spills, loads and reloads name the same
    distinct locals in the instrumenter's order, and no jump lands
    inside it."""
    hooks = {}  # function index -> operand count k
    for index, imp in enumerate(module.imported_functions()):
        if imp.module == _HOOK_MODULE:
            func_type = module.types[imp.desc]
            if func_type.params and not func_type.results:
                hooks[index] = len(func_type.params) - 1
    if not hooks:
        return {}
    body = func.body
    size = len(body)
    local_count = len(module.types[func.type_index].params) \
        + len(func.locals)
    targets = set()
    for pc, (end_pc, else_pc) in jumps.items():
        if body[pc].op == "loop":
            targets.add(pc + 1)
        else:
            targets.add(end_pc + 1)
            if else_pc is not None:
                targets.add(else_pc + 1)
    idioms = {}
    for call_pc, instr in enumerate(body):
        if instr.op != "call":
            continue
        func_index = instr.args[0]
        count = hooks.get(func_index)
        if count is None:
            continue
        start = call_pc - 2 * count - 1
        end = call_pc + count + 1
        if start < 0 or end > size:
            continue
        const = body[start + count]
        if const.op != "i32.const":
            continue
        slots = []
        for offset in range(count):
            spill = body[start + count - 1 - offset]
            load = body[start + count + 1 + offset]
            reload = body[call_pc + 1 + offset]
            if spill.op != "local.set" or load.op != "local.get" \
                    or reload.op != "local.get":
                break
            slot = load.args[0]
            if spill.args[0] != slot or reload.args[0] != slot \
                    or not 0 <= slot < local_count or slot in slots:
                break
            slots.append(slot)
        if len(slots) == count \
                and targets.isdisjoint(range(start + 1, end)):
            idioms[start] = (_fused_hook(const.args[0] & MASK32, func_index,
                                         tuple(slots), end),
                             end - start - 1)
    return idioms


# ---------------------------------------------------------------------------
# Pure operator tables for the hand-specialised hot integer opcodes.
# Trapping ops (div/rem), rotations and bit counts stay on the shared
# generic handlers via _via_handler.
# ---------------------------------------------------------------------------

def _int_tables(bits: int):
    binops = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "and": lambda a, b: a & b,
        "or": lambda a, b: a | b,
        "xor": lambda a, b: a ^ b,
        "shl": lambda a, b: a << (b % bits),
        "shr_u": lambda a, b: a >> (b % bits),
        "shr_s": lambda a, b: _signed(a, bits) >> (b % bits),
    }
    relops = {
        "eq": lambda a, b: a == b,
        "ne": lambda a, b: a != b,
        "lt_u": lambda a, b: a < b,
        "gt_u": lambda a, b: a > b,
        "le_u": lambda a, b: a <= b,
        "ge_u": lambda a, b: a >= b,
        "lt_s": lambda a, b: _signed(a, bits) < _signed(b, bits),
        "gt_s": lambda a, b: _signed(a, bits) > _signed(b, bits),
        "le_s": lambda a, b: _signed(a, bits) <= _signed(b, bits),
        "ge_s": lambda a, b: _signed(a, bits) >= _signed(b, bits),
    }
    return binops, relops


_I32_BINOPS, _I32_RELOPS = _int_tables(32)
_I64_BINOPS, _I64_RELOPS = _int_tables(64)


# ---------------------------------------------------------------------------
# The translator proper.
# ---------------------------------------------------------------------------

def _translate(module: Module, func: Function) -> TranslatedFunction:
    body = func.body
    jumps = _build_jump_table(body)
    idioms = _hook_idioms(module, func, jumps)
    steps: list = []
    pc = 0
    while pc < len(body):
        fused = idioms.get(pc)
        if fused is None:
            steps.append(_translate_instr(module, jumps, pc, body[pc]))
            pc += 1
        else:
            step, inside = fused
            steps.append(step)
            steps.extend([_inside_idiom] * inside)
            pc += 1 + inside
    return TranslatedFunction(steps, module, body)


def _translate_instr(module: Module, jumps, pc: int, instr):
    op = instr.op
    next_pc = pc + 1

    # -- control -----------------------------------------------------------
    if op in ("block", "loop", "if"):
        if pc not in jumps:
            return _raise_keyerror(pc)
        arity = 0 if instr.args[0] is None else 1
        end_pc, else_pc = jumps[pc]
        if op == "block":
            return _block(end_pc, arity, next_pc)
        if op == "loop":
            return _loop(pc, arity, next_pc)
        return _if(end_pc, else_pc, arity, next_pc)
    if op == "else":
        return _else
    if op == "end":
        return _end(next_pc)
    if op == "br":
        return _br(instr.args[0])
    if op == "br_if":
        return _br_if(instr.args[0], next_pc)
    if op == "br_table":
        labels, default = instr.args
        return _br_table(tuple(labels), default)
    if op == "return":
        return _return
    if op == "unreachable":
        return _unreachable
    if op == "nop":
        return _nop(next_pc)
    if op == "call":
        func_index = instr.args[0]
        try:
            count = len(module.function_type(func_index).params)
            if module.is_imported_function(func_index):
                return _call_host(func_index, count, next_pc)
            return _call_local_fn(module.local_function(func_index),
                                  count, next_pc)
        except Exception:
            return _call_dynamic(func_index, next_pc)
    if op == "call_indirect":
        type_index = instr.args[0]
        try:
            expected = module.types[type_index]
        except Exception:
            expected = None  # mismatch at runtime, like the generic path
        return _call_indirect(expected, next_pc)

    # -- hand-specialised hot opcodes -------------------------------------
    if op == "i32.const":
        return _const(instr.args[0] & MASK32, next_pc)
    if op == "i64.const":
        return _const(instr.args[0] & MASK64, next_pc)
    if op == "f32.const":
        return _const(_f32(instr.args[0]), next_pc)
    if op == "f64.const":
        return _const(float(instr.args[0]), next_pc)
    if op == "local.get":
        return _local_get(instr.args[0], next_pc)
    if op == "local.set":
        return _local_set(instr.args[0], next_pc)
    if op == "local.tee":
        return _local_tee(instr.args[0], next_pc)
    if op == "global.get":
        return _global_get(instr.args[0], next_pc)
    if op == "global.set":
        return _global_set(instr.args[0], next_pc)
    if op == "drop":
        return _drop(next_pc)
    if op == "select":
        return _select(next_pc)
    if op in ("i32.eqz", "i64.eqz"):
        return _eqz(next_pc)
    if op == "i32.wrap_i64":
        return _binop_unary_mask(MASK32, next_pc)
    if op == "i64.extend_i32_u":
        return _binop_unary_mask(MASK32, next_pc)
    if op == "i64.extend_i32_s":
        return _extend_s(next_pc)

    prefix, _, name = op.partition(".")
    if prefix == "i32":
        fn = _I32_BINOPS.get(name)
        if fn is not None:
            return _binop(fn, MASK32, next_pc)
        fn = _I32_RELOPS.get(name)
        if fn is not None:
            return _relop(fn, next_pc)
    elif prefix == "i64":
        fn = _I64_BINOPS.get(name)
        if fn is not None:
            return _binop(fn, MASK64, next_pc)
        fn = _I64_RELOPS.get(name)
        if fn is not None:
            return _relop(fn, next_pc)

    if ".load" in op or ".store" in op:
        translated = _translate_memory(op, instr, next_pc)
        if translated is not None:
            return translated

    # -- everything else: the shared generic handler ----------------------
    handler = _SIMPLE_OPS.get(op)
    if handler is not None:
        return _via_handler(handler, instr, next_pc)
    return _not_implemented(op)


def _binop_unary_mask(m, next_pc):
    def step(inst, stack, control, locals_list, m=m, next_pc=next_pc):
        stack.append(stack.pop() & m)
        return next_pc
    return step


def _extend_s(next_pc):
    def step(inst, stack, control, locals_list, next_pc=next_pc):
        stack.append(_signed(stack.pop(), 32) & MASK64)
        return next_pc
    return step


def _translate_memory(op: str, instr, next_pc):
    try:
        size = memory_access_size(op)
    except ValueError:
        return None
    align, offset = instr.args
    is_float = op.startswith("f")
    if ".load" in op:
        if is_float:
            return _load_float(offset, size, "<f" if size == 4 else "<d",
                               op, next_pc)
        signed = op.endswith("_s")
        bits = size * 8
        target = MASK64 if op.startswith("i64") else MASK32
        return _load_int(offset, size, bits, signed, target, op, next_pc)
    if is_float:
        return _store_float(offset, size, "<f" if size == 4 else "<d",
                            op, next_pc)
    return _store_int(offset, size, (1 << (size * 8)) - 1, op, next_pc)
