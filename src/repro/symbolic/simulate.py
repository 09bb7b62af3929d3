"""Trace replay: lifting runtime traces to symbolic machine states.

Implements §3.4.3 (Table 3 operational semantics) on top of the hook
events produced by the instrumented contract:

* replay starts at the **action function** (the dispatcher prefix is
  skipped, §3.4.2) with the Local section initialised from the
  :class:`~repro.symbolic.calling.SeedLayout`,
* memory instructions use the **concrete addresses** recorded in the
  trace (§3.4.1),
* returns of library APIs are taken from the ``call_post`` hooks, so
  host function bodies are never simulated,
* every conditional state (``br_if``/``if`` and ``eosio_assert``) is
  recorded with its symbolic condition for the constraint flipper,
* float data flow is concretised: float results come from the
  interpreter's own handlers, applied to the traced operands, and a
  trap there ends the replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..instrument.hooks import HookEvent
from ..instrument.instrumenter import Site, SiteTable
from ..resilience import faultinject
from ..resilience.errors import (CampaignError, DivergenceError,
                                 SymbackError)
from ..smt import (BitVecVal, Clz, Ctz, Eq, Extract, Ite, Ne, Not, Popcnt,
                   Rotl, Rotr, SDiv, SGE, SGT, SLE, SLT, SRem, SignExt, Term,
                   UDiv, UGE, UGT, ULE, ULT, URem, ZeroExt, AShr)
from ..wasm.interpreter import Trap, _SIMPLE_OPS
from ..wasm.module import Module
from ..wasm.opcodes import MEMORY_INSTRUCTIONS, is_load, memory_access_size
from ..wasm.validation import _SIGNATURES
from .calling import SeedLayout
from .machine import Frame, MachineState, concrete_term, concrete_value

__all__ = ["BranchRecord", "ReplayResult", "replay_action",
           "locate_action_call", "has_unexplored_flip",
           "branch_coverage_ids"]


@dataclass
class BranchRecord:
    """One conditional state (§3.1) observed during replay."""

    site: Site
    kind: str                 # "br_if" | "if" | "br_table" | "assert"
    condition: Term | None    # constraint of the taken direction
    flipped: Term | None      # constraint of the unexplored direction
    taken: int                # concrete outcome (0/1, or br_table index)
    path_position: int        # how many path constraints precede it

    @property
    def branch_id(self) -> tuple:
        return (self.site.func_index, self.site.pc, self.taken != 0)

    @property
    def flip_id(self) -> tuple:
        """The branch side a flip of this record aims at."""
        return _flip_side(self.site, self.taken)


def _flip_side(site: Site, taken) -> tuple:
    """The id of the side of ``site`` that the trace did not take."""
    return (site.func_index, site.pc, not bool(taken))


@dataclass
class ReplayResult:
    """Output of one symbolic replay."""

    branches: list[BranchRecord] = field(default_factory=list)
    path: list[Term] = field(default_factory=list)
    covered: set[tuple] = field(default_factory=set)
    layout: SeedLayout | None = None
    state: MachineState | None = None
    reached_action: bool = False
    error: str | None = None
    checkpoints: int = 0      # sentinel cross-checks that passed


def locate_action_call(events: list[HookEvent], sites: SiteTable,
                       apply_index: int) -> tuple[int, int, list[int]] | None:
    """Find the dispatcher's indirect call into the action function.

    Returns ``(event index of the callee's begin, action function
    index, concrete argument values)`` or None when the trace never
    dispatches (e.g. the guard rejected the action).

    This is the §3.4.2 pattern match: EOSIO SDK dispatchers reach the
    action function through ``call_indirect`` inside ``apply``.
    """
    for i, event in enumerate(events):
        if event.kind != "instr":
            continue
        site = sites[event.site_id]
        if site.func_index != apply_index:
            continue
        if site.instr.op != "call_indirect":
            continue  # §3.4.2: the SDK dispatch is an *indirect* call
        # The next "begin" event (if any) is the callee.
        for j in range(i + 1, len(events)):
            nxt = events[j]
            if nxt.kind == "begin":
                return (j, nxt.func_id, list(event.operands[:-1]))
            if nxt.kind == "instr":
                break  # import call; keep scanning
    return None


def has_unexplored_flip(events: list[HookEvent], sites: SiteTable,
                        apply_index: int, import_names: dict[int, str],
                        explored: set[tuple]) -> bool:
    """Whether the trace's action window holds a branch side outside
    ``explored``, read off the trace without replaying it.

    The window is the one :func:`replay_action` replays: from the
    action function's begin event to the ``end`` that closes it.  A
    ``br_if``/``if`` offers the side it did not take and a failed
    ``eosio_assert`` call its passing side; ``br_table``, passing
    asserts and an undispatched trace offer none.  The free-variable
    filter and early replay aborts are not modelled, so a True may
    still lead to no flip query, but a False never hides one.
    """
    located = locate_action_call(events, sites, apply_index)
    if located is None:
        return False
    depth = 1
    for event in events[located[0] + 1:]:
        kind = event.kind
        if kind == "begin":
            depth += 1
        elif kind == "end":
            depth -= 1
            if not depth:
                return False
        elif kind == "instr":
            site = sites[event.site_id]
            op = site.instr.op
            if op in ("br_if", "if"):
                taken = event.operands[-1]
            elif op == "call" and import_names.get(
                    site.instr.args[0]) == "eosio_assert" \
                    and not event.operands[0]:
                taken = 0
            else:
                continue
            if _flip_side(site, taken) not in explored:
                return True
    return False


def replay_action(module: Module, sites: SiteTable,
                  events: list[HookEvent], layout: SeedLayout,
                  apply_index: int,
                  import_names: dict[int, str] | None = None,
                  divergence_check: bool = True) -> ReplayResult:
    """Symbolically replay the action-function window of a trace.

    A malformed trace window, or a trap where the traced run stopped,
    ends only this replay (recorded in ``ReplayResult.error``, with the
    branches before it kept); an unexpected simulator bug surfaces as a
    typed :class:`~repro.resilience.SymbackError` so the fuzzing loop
    can contain it and degrade to black-box mode.

    With ``divergence_check`` (the default) the divergence sentinel
    cross-checks the machine's concrete shadow state — constant terms,
    which the SMT layer folds eagerly — against the recorded concrete
    operands at branch, memory-op and host-call checkpoints, raising a
    typed :class:`~repro.resilience.DivergenceError` on the first
    mismatch instead of letting the oracles consume an unsound replay.
    """
    faultinject.inject("symback")
    result = ReplayResult(layout=layout)
    if import_names is None:
        import_names = {
            i: imp.name
            for i, imp in enumerate(module.imported_functions())}
    located = locate_action_call(events, sites, apply_index)
    if located is None:
        return result
    begin_index, action_func, concrete_args = located
    result.reached_action = True
    state = MachineState()
    result.state = state
    frame = layout.init_frame(action_func, concrete_args, state.memory)
    _extend_declared_locals(module, action_func, frame)
    state.frames.append(frame)
    replayer = _Replayer(module, sites, state, result, import_names,
                         divergence_check=divergence_check)
    for event in events[begin_index + 1:]:
        try:
            done = replayer.step(event)
        except _ReplayAbort as abort:
            result.error = str(abort)
            break
        except CampaignError:
            raise
        except Exception as exc:
            raise SymbackError.wrap(exc)
        if done:
            break
    return result


def branch_coverage_ids(sites: SiteTable,
                        events: list[HookEvent]) -> set[tuple]:
    """Distinct-branch ids of a whole trace (used for RQ1 coverage,
    independent of the symbolic window)."""
    covered: set[tuple] = set()
    for event in events:
        if event.kind != "instr":
            continue
        site = sites[event.site_id]
        op = site.instr.op
        if op in ("br_if", "if"):
            covered.add((site.func_index, site.pc,
                         bool(event.operands[-1])))
        elif op == "br_table":
            covered.add((site.func_index, site.pc,
                         int(event.operands[-1])))
    return covered


class _ReplayAbort(Exception):
    """Internal: the replay cannot continue (malformed trace window,
    or the traced run trapped)."""


@dataclass
class _PendingCall:
    target: int
    args: list
    is_import: bool
    entered: bool = False


class _Replayer:
    def __init__(self, module: Module, sites: SiteTable,
                 state: MachineState, result: ReplayResult,
                 import_names: dict[int, str],
                 divergence_check: bool = True):
        self.module = module
        self.sites = sites
        self.state = state
        self.result = result
        self.import_names = import_names
        self.import_count = module.num_imported_functions
        self.pending: list[_PendingCall] = []
        self.base_depth = 1  # the action function's frame
        self.divergence_check = divergence_check

    # -- the divergence sentinel ---------------------------------------------
    def _shadow_check(self, site: Site, value, traced, *,
                      as_bool: bool = False, what: str = "value") -> None:
        """Cross-check a concrete shadow value against the trace.

        ``value`` is the symbolic machine's view (a term or int); when
        it is fully concrete it *must* equal the concrete operand the
        interpreter recorded at the same point — anything else means
        the simulation has drifted off the executed path and every
        later oracle verdict would be unsound.
        """
        if not self.divergence_check or not isinstance(traced, int):
            return
        shadow = concrete_value(value)
        if shadow is None:
            return  # genuinely symbolic: nothing concrete to compare
        if as_bool:
            mismatch = bool(shadow) != bool(traced)
        else:
            width = value.width if isinstance(value, Term) else 64
            mask = (1 << width) - 1
            mismatch = (shadow & mask) != (traced & mask)
        if mismatch:
            raise DivergenceError(
                f"concrete shadow {shadow} disagrees with traced "
                f"{traced} for {what}", func_index=site.func_index,
                pc=site.pc, opcode=site.instr.op, shadow=int(shadow),
                traced=int(traced))
        self.result.checkpoints += 1

    # -- event dispatch ------------------------------------------------------
    def step(self, event: HookEvent) -> bool:
        """Process one event; returns True when the action function
        window is complete."""
        if event.kind == "begin":
            self._on_begin(event)
            return False
        if event.kind == "end":
            return self._on_end(event)
        if event.kind == "post":
            self._on_post(event)
            return False
        site = self.sites[event.site_id]
        self._on_instr(site, event.operands)
        return False

    def _on_begin(self, event: HookEvent) -> None:
        if self.pending and not self.pending[-1].entered:
            call = self.pending[-1]
            call.entered = True
            frame = Frame(event.func_id, call.args)
            _extend_declared_locals(self.module, event.func_id, frame)
            self.state.frames.append(frame)
        else:
            # A begin with no pending call (should not happen inside
            # the window); open an empty frame to stay balanced.
            self.state.push_frame(event.func_id, [])

    def _on_end(self, event: HookEvent) -> bool:
        if self.state.depth <= self.base_depth:
            return True  # the action function finished
        frame = self.state.frames.pop()
        arity = len(self.module.function_type(frame.func_index).results)
        returns = frame.stack[-arity:] if arity else []
        self.state.returns.append(returns)
        return False

    def _on_post(self, event: HookEvent) -> None:
        if not self.pending:
            return
        call = self.pending.pop()
        frame = self.state.frame
        if call.is_import or not call.entered:
            # Library API: take the concrete returns from the hook
            # (§3.4.3: no simulation of host bodies).
            results = self.module.function_type(call.target).results
            for valtype, value in zip(results, event.operands):
                frame.push(concrete_term(valtype.name, value))
        else:
            for value in self.state.pop_returns():
                frame.push(value)

    # -- instruction semantics (Table 3) ------------------------------------------
    def _on_instr(self, site: Site, operands: tuple) -> None:
        instr = site.instr
        op = instr.op
        frame = self.state.frame
        if op == "call" or op == "call_indirect":
            self._on_call(site, operands)
            return
        handler_name = _HANDLERS.get(op)
        if handler_name is not None:
            getattr(self, handler_name)(site, instr, operands, frame)
            return
        if op.startswith(("i32.", "i64.")):
            self._int_op(site, instr, operands, frame)
        else:
            raise _ReplayAbort(f"no replay rule for {op}")

    def _on_call(self, site: Site, operands: tuple) -> None:
        instr = site.instr
        frame = self.state.frame
        if instr.op == "call_indirect":
            frame.pop()  # the table slot expression
            # Target resolves at the next begin; record a placeholder.
            params = self.module.types[instr.args[0]].params
            args = frame.pop_n(len(params))
            self.pending.append(_PendingCall(-1, args, False))
            return
        target = instr.args[0]
        func_type = self.module.function_type(target)
        args = frame.pop_n(len(func_type.params))
        if target < self.import_count:
            name = self.import_names.get(target, "?")
            self._on_import_call(site, name, args, operands)
            self.pending.append(_PendingCall(target, args, True))
        else:
            self.pending.append(_PendingCall(target, args, False))

    def _on_import_call(self, site: Site, name: str, args: list,
                        operands: tuple) -> None:
        # Host-call arguments are the densest concrete checkpoints:
        # the interpreter recorded the exact values it passed, so any
        # constant-term argument must match position for position.
        for position, (arg, traced) in enumerate(zip(args, operands)):
            self._shadow_check(site, arg, traced,
                               what=f"{name} argument {position}")
        if name == "eosio_assert":
            condition = _as_bool(args[0])
            passed = bool(operands[0])
            position = len(self.result.path)
            if passed:
                self.result.path.append(condition)
                self.result.branches.append(BranchRecord(
                    site, "assert", condition, None, 1, position))
            else:
                # The paper's flip: require μ_ŝ[0] == 1.
                self.result.branches.append(BranchRecord(
                    site, "assert", Not(condition), condition,
                    0, position))

    # -- structured / variable instructions ------------------------------------------
    def _h_const(self, site, instr, operands, frame):
        frame.push(concrete_term(instr.op[:3], instr.args[0]))

    def _h_local_get(self, site, instr, operands, frame):
        frame.push(frame.local_get(instr.args[0]))

    def _h_local_set(self, site, instr, operands, frame):
        frame.local_set(instr.args[0], frame.pop())

    def _h_local_tee(self, site, instr, operands, frame):
        frame.local_set(instr.args[0], frame.top())

    def _h_global_get(self, site, instr, operands, frame):
        frame.push(self.state.global_get(instr.args[0]))

    def _h_global_set(self, site, instr, operands, frame):
        self.state.global_set(instr.args[0], frame.pop())

    def _h_drop(self, site, instr, operands, frame):
        frame.pop()

    def _h_select(self, site, instr, operands, frame):
        cond = frame.pop()
        second = frame.pop()
        first = frame.pop()
        first, second = _harmonise(first, second)
        frame.push(Ite(_as_bool(cond), first, second))

    def _h_nop(self, site, instr, operands, frame):
        pass

    def _h_unreachable(self, site, instr, operands, frame):
        pass  # the trace ends right after; nothing to update

    def _h_return(self, site, instr, operands, frame):
        pass  # end_function label follows and unwinds the frame

    def _h_br(self, site, instr, operands, frame):
        pass  # jump destinations are omitted (§3.4.3)

    def _h_br_if(self, site, instr, operands, frame):
        condition = frame.pop()
        self._shadow_check(site, condition, operands[-1], as_bool=True,
                           what="br_if condition")
        self._record_branch(site, "br_if", condition, bool(operands[-1]))

    def _h_if(self, site, instr, operands, frame):
        condition = frame.pop()
        self._shadow_check(site, condition, operands[-1], as_bool=True,
                           what="if condition")
        self._record_branch(site, "if", condition, bool(operands[-1]))

    def _h_br_table(self, site, instr, operands, frame):
        index = frame.pop()
        self._shadow_check(site, index, operands[-1],
                           what="br_table index")
        taken = int(operands[-1])
        position = len(self.result.path)
        constraint = Eq(_fit(index, 32), BitVecVal(taken, 32))
        if constraint.op not in ("true",):
            self.result.path.append(constraint)
        self.result.branches.append(BranchRecord(
            site, "br_table", constraint, None, taken, position))
        self.result.covered.add((site.func_index, site.pc, taken))

    def _record_branch(self, site: Site, kind: str, condition,
                       taken: bool) -> None:
        boolean = _as_bool(condition)
        taken_constraint = boolean if taken else Not(boolean)
        flipped = Not(boolean) if taken else boolean
        position = len(self.result.path)
        self.result.path.append(taken_constraint)
        self.result.branches.append(BranchRecord(
            site, kind, taken_constraint, flipped, int(taken), position))
        self.result.covered.add((site.func_index, site.pc, taken))

    def _h_memory_size(self, site, instr, operands, frame):
        frame.push(BitVecVal(4096, 32))  # the paper's constant (§3.4.3)

    def _h_memory_grow(self, site, instr, operands, frame):
        frame.pop()
        frame.push(BitVecVal(4096, 32))

    # -- memory (Δ.load / Δ.store, §3.4.1) ------------------------------------------------
    def _h_load(self, site, instr, operands, frame):
        address_expr = frame.pop()  # the symbolic address expression
        self._shadow_check(site, address_expr, operands[0],
                           what="load address")
        address = int(operands[0]) + instr.args[1]  # concrete + offset
        size = memory_access_size(instr.op)
        value = self.state.memory.load(address, size)
        frame.push(_extend_loaded(instr.op, value))

    def _h_store(self, site, instr, operands, frame):
        value = frame.pop()
        address_expr = frame.pop()  # address expression
        self._shadow_check(site, address_expr, operands[0],
                           what="store address")
        if instr.op.startswith(("i32", "i64")):
            self._shadow_check(site, value, operands[1],
                               what="store value")
        address = int(operands[0]) + instr.args[1]
        size = memory_access_size(instr.op)
        if isinstance(value, Term):
            narrowed = Extract(size * 8 - 1, 0, _fit(value, max(
                size * 8, value.width)))
        else:
            narrowed = BitVecVal(int(value), size * 8)
        self.state.memory.store(address, size, narrowed)

    # -- integer ALU --------------------------------------------------------------------------
    def _int_op(self, site, instr, operands, frame):
        op = instr.op
        prefix, _, name = op.partition(".")
        width = 32 if prefix == "i32" else 64
        if name == "eqz":
            x = _fit(frame.pop(), width)
            frame.push(_bool_to_i32(Eq(x, BitVecVal(0, width))))
            return
        if name in _RELOPS:
            rhs = _fit(frame.pop(), width)
            lhs = _fit(frame.pop(), width)
            frame.push(_bool_to_i32(_RELOPS[name](lhs, rhs)))
            return
        if name in _BINOPS:
            rhs = _fit(frame.pop(), width)
            lhs = _fit(frame.pop(), width)
            frame.push(_BINOPS[name](lhs, rhs))
            return
        if name in ("clz", "ctz", "popcnt"):
            x = _fit(frame.pop(), width)
            fn = {"clz": Clz, "ctz": Ctz, "popcnt": Popcnt}[name]
            frame.push(fn(x))
            return
        if name == "wrap_i64":
            frame.push(Extract(31, 0, _fit(frame.pop(), 64)))
            return
        if name in ("extend_i32_s", "extend_i32_u"):
            x = _fit(frame.pop(), 32)
            frame.push(SignExt(32, x) if name.endswith("_s")
                       else ZeroExt(32, x))
            return
        raise _ReplayAbort(f"no integer replay rule for {op}")

    # -- float data flow: concrete, from the traced operands -------------------------------
    def _h_concrete(self, site, instr, operands, frame):
        """Run the interpreter's handler on the traced operands, so a
        float result is the one execution computed (the SMT layer has
        no FP theory)."""
        pops, pushes = _SIGNATURES[instr.op]
        frame.pop_n(len(pops))
        stack = list(operands)
        try:
            _SIMPLE_OPS[instr.op](None, instr, stack, None)
        except Trap as trap:
            # The traced run stopped here too: end the replay and keep
            # the branches recorded before it.
            raise _ReplayAbort(f"{instr.op} traps: {trap}") from None
        frame.push(concrete_term(pushes[0].name, stack.pop()))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

_HANDLERS = {
    "i32.const": "_h_const", "i64.const": "_h_const",
    "f32.const": "_h_const", "f64.const": "_h_const",
    "local.get": "_h_local_get", "local.set": "_h_local_set",
    "local.tee": "_h_local_tee", "global.get": "_h_global_get",
    "global.set": "_h_global_set", "drop": "_h_drop",
    "select": "_h_select", "nop": "_h_nop",
    "unreachable": "_h_unreachable", "return": "_h_return",
    "br": "_h_br", "br_if": "_h_br_if", "if": "_h_if",
    "br_table": "_h_br_table", "memory.size": "_h_memory_size",
    "memory.grow": "_h_memory_grow",
    "block": "_h_nop", "loop": "_h_nop",
}
for _op in MEMORY_INSTRUCTIONS:
    _HANDLERS[_op] = "_h_load" if is_load(_op) else "_h_store"
# Every other instruction a float flows into or out of keeps its
# result concrete.
for _op, (_pops, _pushes) in _SIGNATURES.items():
    if any(valtype.is_float for valtype in _pops + _pushes):
        _HANDLERS.setdefault(_op, "_h_concrete")

_BINOPS = {
    "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b, "and": lambda a, b: a & b,
    "or": lambda a, b: a | b, "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b, "shr_u": lambda a, b: a >> b,
    "shr_s": AShr, "rotl": Rotl, "rotr": Rotr,
    "div_u": UDiv, "rem_u": URem, "div_s": SDiv, "rem_s": SRem,
}
_RELOPS = {
    "eq": Eq, "ne": Ne, "lt_u": ULT, "gt_u": UGT, "le_u": ULE,
    "ge_u": UGE, "lt_s": SLT, "gt_s": SGT, "le_s": SLE, "ge_s": SGE,
}


def _fit(value, width: int) -> Term:
    """Coerce a value to a ``width``-bit term."""
    if not isinstance(value, Term):
        return BitVecVal(int(value), width)
    if value.width == width:
        return value
    if value.width > width:
        return Extract(width - 1, 0, value)
    return ZeroExt(width - value.width, value)


def _harmonise(first, second) -> tuple[Term, Term]:
    first = first if isinstance(first, Term) else BitVecVal(int(first), 64)
    second = second if isinstance(second, Term) else BitVecVal(int(second), 64)
    width = max(first.width, second.width)
    return _fit(first, width), _fit(second, width)


def _bool_to_i32(condition: Term) -> Term:
    return Ite(condition, BitVecVal(1, 32), BitVecVal(0, 32))


def _as_bool(value) -> Term:
    """Recover a boolean from an i32 truth value, simplifying the
    common ``Ite(c, 1, 0)`` shape produced by comparisons."""
    if not isinstance(value, Term):
        from ..smt import BoolVal
        return BoolVal(bool(value))
    if value.is_bool():
        return value
    if (value.op == "ite" and value.args[1].is_const()
            and value.args[2].is_const()):
        then_v = value.args[1].const_value()
        else_v = value.args[2].const_value()
        if then_v == 1 and else_v == 0:
            return value.args[0]
        if then_v == 0 and else_v == 1:
            return Not(value.args[0])
    return Ne(value, BitVecVal(0, value.width))


def _extend_loaded(op: str, value: Term) -> Term:
    """Apply the load's sign/zero extension to the target width."""
    target = 64 if op.startswith("i64") or op.startswith("f64") else 32
    if value.width == target:
        return value
    extra = target - value.width
    return SignExt(extra, value) if op.endswith("_s") else ZeroExt(extra, value)


def _extend_declared_locals(module: Module, func_index: int,
                            frame: Frame) -> None:
    """Append the function's declared (non-param) locals as zeroes of
    the right width."""
    if module.is_imported_function(func_index):
        return
    func = module.local_function(func_index)
    for valtype in func.locals:
        frame.locals.append(BitVecVal(0, valtype.bits))
    # Harmonise widths of parameter slots with the declared types.
    params = module.types[func.type_index].params
    for i, valtype in enumerate(params):
        if i < len(frame.locals):
            frame.locals[i] = _fit(frame.locals[i], valtype.bits)
