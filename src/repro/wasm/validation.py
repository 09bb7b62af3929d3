"""Type-checking validation with per-instruction stack typing.

Beyond rejecting ill-typed modules, the validator records which value
types each instruction pops.  The instrumenter (§3.3.1) needs this to
spill and duplicate instruction operands into the low-level hooks, and
it is exactly the analysis Wasabi performs before injecting hooks.

The algorithm is the reference one from the Wasm spec appendix: a value
stack interleaved with control frames, with stack-polymorphic typing
after unconditional branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .module import Function, Module
from .opcodes import Instr
from .types import F32, F64, I32, I64, ValType

__all__ = ["ValidationError", "validate_module", "type_function",
           "InstructionTyping"]

UNKNOWN = "unknown"  # stack-polymorphic placeholder


class ValidationError(ValueError):
    """Raised when a module fails type checking."""


@dataclass
class InstructionTyping:
    """Typing facts for one instruction occurrence.

    ``pops`` lists popped operand types bottom-to-top (so ``pops[-1]``
    is the stack top); entries may be the string ``"unknown"`` inside
    unreachable code.  ``pushes`` lists pushed result types.
    ``reachable`` is False for dead code after an unconditional branch.
    """

    pops: list = field(default_factory=list)
    pushes: list = field(default_factory=list)
    reachable: bool = True


class _Ctrl:
    __slots__ = ("op", "start_types", "end_types", "height", "unreachable")

    def __init__(self, op, start_types, end_types, height):
        self.op = op
        self.start_types = start_types
        self.end_types = end_types
        self.height = height
        self.unreachable = False


class _Typer:
    def __init__(self, module: Module, func: Function):
        self.module = module
        self.func = func
        func_type = module.types[func.type_index]
        self.locals = list(func_type.params) + list(func.locals)
        self.results = list(func_type.results)
        self.vals: list = []
        self.ctrls: list[_Ctrl] = []
        self.typings: list[InstructionTyping] = []

    # -- stack primitives ---------------------------------------------------
    def push_val(self, valtype) -> None:
        self.vals.append(valtype)

    def pop_val(self, expect=None):
        frame = self.ctrls[-1]
        if len(self.vals) == frame.height:
            if frame.unreachable:
                return expect if expect is not None else UNKNOWN
            raise ValidationError("value stack underflow")
        got = self.vals.pop()
        if expect is not None and got is not UNKNOWN and got is not expect:
            raise ValidationError(f"expected {expect}, got {got}")
        return got if got is not UNKNOWN else (expect or UNKNOWN)

    def push_ctrl(self, op: str, start_types, end_types) -> None:
        self.ctrls.append(_Ctrl(op, start_types, end_types, len(self.vals)))
        for t in start_types:
            self.push_val(t)

    def pop_ctrl(self) -> _Ctrl:
        if not self.ctrls:
            raise ValidationError("control stack underflow")
        frame = self.ctrls[-1]
        for t in reversed(frame.end_types):
            self.pop_val(t)
        if len(self.vals) != frame.height:
            raise ValidationError("values left on stack at block end")
        self.ctrls.pop()
        return frame

    def mark_unreachable(self) -> None:
        frame = self.ctrls[-1]
        del self.vals[frame.height:]
        frame.unreachable = True

    def label_types(self, frame: _Ctrl):
        return frame.start_types if frame.op == "loop" else frame.end_types

    def frame_at(self, depth: int) -> _Ctrl:
        if depth >= len(self.ctrls):
            raise ValidationError(f"branch depth {depth} out of range")
        return self.ctrls[len(self.ctrls) - 1 - depth]

    # -- driver -------------------------------------------------------------
    def run(self) -> list[InstructionTyping]:
        self.push_ctrl("func", (), tuple(self.results))
        for instr in self.func.body:
            reachable = not self.ctrls[-1].unreachable
            typing = InstructionTyping(reachable=reachable)
            self._step(instr, typing)
            self.typings.append(typing)
        # Implicit final end.
        self.pop_ctrl()
        if self.ctrls:
            raise ValidationError("unbalanced control structure")
        return self.typings

    def _step(self, instr: Instr, typing: InstructionTyping) -> None:
        op = instr.op
        handler = getattr(self, "_op_" + op.replace(".", "_"), None)
        if handler is not None:
            handler(instr, typing)
            return
        sig = _SIGNATURES.get(op)
        if sig is None:
            raise ValidationError(f"no typing rule for {op}")
        pops, pushes = sig
        popped = [self.pop_val(t) for t in reversed(pops)]
        typing.pops = list(reversed(popped))
        for t in pushes:
            self.push_val(t)
        typing.pushes = list(pushes)

    # -- control-flow rules ----------------------------------------------------
    def _block_types(self, instr: Instr):
        if instr.args[0] is None:
            return ()
        return (ValType.from_name(instr.args[0]),)

    def _op_block(self, instr, typing):
        self.push_ctrl("block", (), self._block_types(instr))

    def _op_loop(self, instr, typing):
        self.push_ctrl("loop", (), self._block_types(instr))

    def _op_if(self, instr, typing):
        typing.pops = [self.pop_val(I32)]
        self.push_ctrl("if", (), self._block_types(instr))

    def _op_else(self, instr, typing):
        frame = self.pop_ctrl()
        if frame.op != "if":
            raise ValidationError("else without if")
        self.push_ctrl("else", (), frame.end_types)

    def _op_end(self, instr, typing):
        frame = self.pop_ctrl()
        for t in frame.end_types:
            self.push_val(t)
        typing.pushes = list(frame.end_types)

    def _op_br(self, instr, typing):
        frame = self.frame_at(instr.args[0])
        typing.pops = [self.pop_val(t)
                       for t in reversed(self.label_types(frame))][::-1]
        self.mark_unreachable()

    def _op_br_if(self, instr, typing):
        cond = self.pop_val(I32)
        frame = self.frame_at(instr.args[0])
        labels = list(self.label_types(frame))
        popped = [self.pop_val(t) for t in reversed(labels)]
        for t in labels:
            self.push_val(t)
        typing.pops = list(reversed(popped)) + [cond]
        typing.pushes = labels

    def _op_br_table(self, instr, typing):
        index = self.pop_val(I32)
        labels, default = instr.args
        default_frame = self.frame_at(default)
        expected = list(self.label_types(default_frame))
        for label in labels:
            frame = self.frame_at(label)
            if list(self.label_types(frame)) != expected:
                raise ValidationError("br_table label arity mismatch")
        popped = [self.pop_val(t) for t in reversed(expected)]
        typing.pops = list(reversed(popped)) + [index]
        self.mark_unreachable()

    def _op_return(self, instr, typing):
        typing.pops = [self.pop_val(t) for t in reversed(self.results)][::-1]
        self.mark_unreachable()

    def _op_unreachable(self, instr, typing):
        self.mark_unreachable()

    def _op_call(self, instr, typing):
        func_type = self.module.function_type(instr.args[0])
        popped = [self.pop_val(t) for t in reversed(func_type.params)]
        typing.pops = list(reversed(popped))
        for t in func_type.results:
            self.push_val(t)
        typing.pushes = list(func_type.results)

    def _op_call_indirect(self, instr, typing):
        slot = self.pop_val(I32)
        func_type = self.module.types[instr.args[0]]
        popped = [self.pop_val(t) for t in reversed(func_type.params)]
        typing.pops = list(reversed(popped)) + [slot]
        for t in func_type.results:
            self.push_val(t)
        typing.pushes = list(func_type.results)

    # -- variables ---------------------------------------------------------------
    def _local_type(self, index: int) -> ValType:
        if index >= len(self.locals):
            raise ValidationError(f"local index {index} out of range")
        return self.locals[index]

    def _op_local_get(self, instr, typing):
        t = self._local_type(instr.args[0])
        self.push_val(t)
        typing.pushes = [t]

    def _op_local_set(self, instr, typing):
        t = self._local_type(instr.args[0])
        typing.pops = [self.pop_val(t)]

    def _op_local_tee(self, instr, typing):
        t = self._local_type(instr.args[0])
        typing.pops = [self.pop_val(t)]
        self.push_val(t)
        typing.pushes = [t]

    def _global_type(self, index: int):
        imported = [imp for imp in self.module.imports if imp.kind == "global"]
        if index < len(imported):
            return imported[index].desc
        local_index = index - len(imported)
        if local_index >= len(self.module.globals):
            raise ValidationError(f"global index {index} out of range")
        return self.module.globals[local_index].type

    def _op_global_get(self, instr, typing):
        t = self._global_type(instr.args[0]).valtype
        self.push_val(t)
        typing.pushes = [t]

    def _op_global_set(self, instr, typing):
        gtype = self._global_type(instr.args[0])
        if not gtype.mutable:
            raise ValidationError("global.set on immutable global")
        typing.pops = [self.pop_val(gtype.valtype)]

    # -- polymorphic parametric ops -------------------------------------------------
    def _op_drop(self, instr, typing):
        typing.pops = [self.pop_val()]

    def _op_select(self, instr, typing):
        cond = self.pop_val(I32)
        second = self.pop_val()
        expect = None if second is UNKNOWN else second
        first = self.pop_val(expect)
        result = first if first is not UNKNOWN else second
        typing.pops = [first, second, cond]
        self.push_val(result)
        typing.pushes = [result]


def _build_signatures() -> dict[str, tuple[tuple, tuple]]:
    sigs: dict[str, tuple[tuple, tuple]] = {
        "nop": ((), ()),
        "i32.const": ((), (I32,)),
        "i64.const": ((), (I64,)),
        "f32.const": ((), (F32,)),
        "f64.const": ((), (F64,)),
        "memory.size": ((), (I32,)),
        "memory.grow": ((I32,), (I32,)),
    }
    for prefix, valtype in (("i32", I32), ("i64", I64),
                            ("f32", F32), ("f64", F64)):
        # Loads: address -> value; stores: address, value -> ()
        sigs[f"{prefix}.load"] = ((I32,), (valtype,))
        sigs[f"{prefix}.store"] = ((I32, valtype), ())
    for op in ("i32.load8_s", "i32.load8_u", "i32.load16_s", "i32.load16_u"):
        sigs[op] = ((I32,), (I32,))
    for op in ("i64.load8_s", "i64.load8_u", "i64.load16_s", "i64.load16_u",
               "i64.load32_s", "i64.load32_u"):
        sigs[op] = ((I32,), (I64,))
    for op in ("i32.store8", "i32.store16"):
        sigs[op] = ((I32, I32), ())
    for op in ("i64.store8", "i64.store16", "i64.store32"):
        sigs[op] = ((I32, I64), ())
    int_binops = ("add sub mul div_s div_u rem_s rem_u and or xor shl "
                  "shr_s shr_u rotl rotr").split()
    int_relops = "eq ne lt_s lt_u gt_s gt_u le_s le_u ge_s ge_u".split()
    int_unops = "clz ctz popcnt".split()
    for prefix, valtype in (("i32", I32), ("i64", I64)):
        for name in int_binops:
            sigs[f"{prefix}.{name}"] = ((valtype, valtype), (valtype,))
        for name in int_relops:
            sigs[f"{prefix}.{name}"] = ((valtype, valtype), (I32,))
        for name in int_unops:
            sigs[f"{prefix}.{name}"] = ((valtype,), (valtype,))
        sigs[f"{prefix}.eqz"] = ((valtype,), (I32,))
    float_binops = "add sub mul div min max copysign".split()
    float_relops = "eq ne lt gt le ge".split()
    float_unops = "abs neg ceil floor trunc nearest sqrt".split()
    for prefix, valtype in (("f32", F32), ("f64", F64)):
        for name in float_binops:
            sigs[f"{prefix}.{name}"] = ((valtype, valtype), (valtype,))
        for name in float_relops:
            sigs[f"{prefix}.{name}"] = ((valtype, valtype), (I32,))
        for name in float_unops:
            sigs[f"{prefix}.{name}"] = ((valtype,), (valtype,))
    # Conversions.
    sigs["i32.wrap_i64"] = ((I64,), (I32,))
    for dst, dtype in (("i32", I32), ("i64", I64)):
        for src, stype in (("f32", F32), ("f64", F64)):
            sigs[f"{dst}.trunc_{src}_s"] = ((stype,), (dtype,))
            sigs[f"{dst}.trunc_{src}_u"] = ((stype,), (dtype,))
    sigs["i64.extend_i32_s"] = ((I32,), (I64,))
    sigs["i64.extend_i32_u"] = ((I32,), (I64,))
    for dst, dtype in (("f32", F32), ("f64", F64)):
        for src, stype in (("i32", I32), ("i64", I64)):
            sigs[f"{dst}.convert_{src}_s"] = ((stype,), (dtype,))
            sigs[f"{dst}.convert_{src}_u"] = ((stype,), (dtype,))
    sigs["f32.demote_f64"] = ((F64,), (F32,))
    sigs["f64.promote_f32"] = ((F32,), (F64,))
    sigs["i32.reinterpret_f32"] = ((F32,), (I32,))
    sigs["i64.reinterpret_f64"] = ((F64,), (I64,))
    sigs["f32.reinterpret_i32"] = ((I32,), (F32,))
    sigs["f64.reinterpret_i64"] = ((I64,), (F64,))
    return sigs


_SIGNATURES = _build_signatures()


def type_function(module: Module, func: Function) -> list[InstructionTyping]:
    """Type-check one function, returning per-instruction typings.

    Raises :class:`ValidationError` for every rejection: raw
    ``IndexError``/``KeyError``/``ValueError`` escaping the typer (an
    out-of-range type or function index reached through a hostile but
    parseable module) are lifted into the typed diagnostic instead of
    crashing the caller.
    """
    try:
        return _Typer(module, func).run()
    except ValidationError:
        raise
    except (IndexError, KeyError, ValueError) as exc:
        raise ValidationError(
            f"malformed reference ({type(exc).__name__}: {exc})") from None


def validate_module(module: Module) -> None:
    """Validate every function body; raises :class:`ValidationError`."""
    _check_module_structure(module)
    for i, func in enumerate(module.functions):
        try:
            type_function(module, func)
        except ValidationError as exc:
            raise ValidationError(f"function {i}: {exc}") from None


def _check_module_structure(module: Module) -> None:
    """Module-level index-consistency checks run before function
    typing, so the typer never dereferences an out-of-range index."""
    n_types = len(module.types)
    n_funcs = module.num_imported_functions + len(module.functions)
    for i, func in enumerate(module.functions):
        if func.type_index >= n_types:
            raise ValidationError(
                f"function {i}: type index {func.type_index} out of "
                f"range ({n_types} types)")
    for imp in module.imports:
        if imp.kind == "func" and imp.desc >= n_types:
            raise ValidationError(
                f"import {imp.module}.{imp.name}: type index {imp.desc} "
                f"out of range ({n_types} types)")
    for exp in module.exports:
        if exp.kind == "func" and exp.index >= n_funcs:
            raise ValidationError(
                f"export {exp.name!r}: function index {exp.index} out "
                f"of range ({n_funcs} functions)")
    if module.start is not None and module.start >= n_funcs:
        raise ValidationError(
            f"start function index {module.start} out of range")
    for i, elem in enumerate(module.elements):
        for func_index in elem.func_indices:
            if func_index >= n_funcs:
                raise ValidationError(
                    f"element segment {i}: function index {func_index} "
                    f"out of range ({n_funcs} functions)")
