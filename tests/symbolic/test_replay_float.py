"""Replay of float data flow, checked against execution.

The SMT layer has no FP theory, so replay keeps every float result
concrete: it runs the interpreter's own handler on the traced operands.
Each hand-built trace below, in the shape the instrumenter records,
runs one op with a float operand or result, compares its result's bits
by ``eq`` with what execution gives (a float result is stored and
reloaded as an integer first) and branches on the outcome.  The
divergence sentinel then checks the replayed branch against the traced
one.
"""

import math
import struct

import pytest

from repro.eosio import AbiAction, AbiParam
from repro.instrument.hooks import HookEvent
from repro.instrument.instrumenter import Site, SiteTable
from repro.symbolic import SeedLayout, flip_queries, replay_action
from repro.wasm import Instance, Instr, ModuleBuilder

ACTION, APPLY = 0, 1
RECEIVER, AMOUNT = 7, 3
ADDRESS = 16
ALIGN = {"f32": 2, "f64": 3}
BITS = {"f32": ("<f", "<I", "i32"), "f64": ("<d", "<Q", "i64")}


def _module():
    """An action function (receiver, amount) and a dispatcher; replay
    reads only their signatures and declared locals."""
    builder = ModuleBuilder()
    builder.function("action", params=["i64", "i64"])
    builder.function("apply", params=["i64", "i64", "i64"])
    return builder.build()


class _Trace:
    """A site table and the hook events of one hand-built trace, from
    the dispatch into the action function on."""

    def __init__(self):
        self.sites = SiteTable()
        self.events = []
        self.pc = 0
        self.instr(APPLY, "call_indirect", (RECEIVER, AMOUNT, 0), 0)
        self.events.append(HookEvent("begin", None, ACTION, ()))

    def instr(self, func, op, operands=(), *args):
        site = Site("instr", func, self.pc, Instr(op, *args))
        self.pc += 1
        self.events.append(HookEvent("instr", self.sites.add(site), None,
                                     tuple(operands)))

    def action(self, op, operands=(), *args):
        self.instr(ACTION, op, operands, *args)

    def replay(self):
        layout = SeedLayout(AbiAction("go", (AbiParam("amount", "uint64"),)),
                            [AMOUNT])
        return replay_action(_module(), self.sites, self.events, layout,
                             APPLY)


def executed(op, types, operands, result):
    """What the interpreter gives for ``op`` on ``operands``."""
    builder = ModuleBuilder()
    f = builder.function("f", params=types, results=[result])
    for index in range(len(types)):
        f.local_get(index)
    f.emit(op)
    builder.export_function("f", f)
    return Instance(builder.build()).invoke("f", list(operands))[0]


def _bits(valtype, value):
    """``value`` as the integer type of its width, and that type."""
    if valtype not in BITS:
        return valtype, value
    float_fmt, int_fmt, int_type = BITS[valtype]
    return int_type, struct.unpack(int_fmt, struct.pack(float_fmt, value))[0]


def _checked_trace(op, types, operands, result):
    """Compute ``op`` on ``operands`` and branch on whether its bits
    equal the executed ones; a float result goes through memory."""
    value = executed(op, types, operands, result)
    int_type, bits = _bits(result, value)
    trace = _Trace()
    if result in BITS:
        trace.action("i32.const", (), ADDRESS)
    for valtype, operand in zip(types, operands):
        trace.action(f"{valtype}.const", (), operand)
    trace.action(op, operands)
    if result in BITS:
        trace.action(f"{result}.store", (ADDRESS, value), ALIGN[result], 0)
        trace.action("i32.const", (), ADDRESS)
        trace.action(f"{int_type}.load", (ADDRESS,), ALIGN[result], 0)
    trace.action(f"{int_type}.const", (), bits)
    trace.action(f"{int_type}.eq", (bits, bits))
    trace.action("br_if", (1,), 0)
    trace.events.append(HookEvent("end", None, ACTION, ()))
    return trace


def _assert_replays_as_executed(trace, checkpoints):
    replay = trace.replay()
    assert replay.error is None
    assert replay.checkpoints == checkpoints
    [branch] = replay.branches
    assert (branch.kind, branch.taken) == ("br_if", 1)
    assert branch.condition.op == "true"


@pytest.mark.parametrize("op, operands", [
    ("f64.div", (0.0, 0.0)),
    ("f64.min", (1.0, math.nan)),
])
def test_a_nan_result_replays_with_the_executed_bits(op, operands):
    assert math.isnan(executed(op, ["f64", "f64"], operands, "f64"))
    trace = _checked_trace(op, ["f64", "f64"], operands, "f64")
    # Store and load addresses, then the branch.
    _assert_replays_as_executed(trace, checkpoints=3)


ORDINARY = [
    # binary
    ("f64.add", ["f64", "f64"], (1.5, 2.25), "f64"),
    ("f32.mul", ["f32", "f32"], (1.5, -2.0), "f32"),
    # unary
    ("f64.sqrt", ["f64"], (2.0,), "f64"),
    ("f32.nearest", ["f32"], (2.5,), "f32"),
    # compare
    ("f64.lt", ["f64", "f64"], (1.0, 2.0), "i32"),
    ("f32.ge", ["f32", "f32"], (1.0, 2.0), "i32"),
    # convert, both directions
    ("f64.convert_i32_s", ["i32"], (0xFFFFFFFF,), "f64"),
    ("f32.convert_i64_u", ["i64"], ((1 << 40) + 1,), "f32"),
    ("i32.trunc_f64_s", ["f64"], (-3.7,), "i32"),
    ("i64.trunc_f32_u", ["f32"], (1e10,), "i64"),
    # demote / promote
    ("f32.demote_f64", ["f64"], (0.1,), "f32"),
    ("f64.promote_f32", ["f32"], (0.15625,), "f64"),
    # reinterpret, both directions
    ("i64.reinterpret_f64", ["f64"], (-2.5,), "i64"),
    ("i32.reinterpret_f32", ["f32"], (1.5,), "i32"),
    ("f64.reinterpret_i64", ["i64"], (0x400921FB54442D18,), "f64"),
    ("f32.reinterpret_i32", ["i32"], (0x3FC00000,), "f32"),
]


@pytest.mark.parametrize("op, types, operands, result", ORDINARY,
                         ids=[case[0] for case in ORDINARY])
def test_each_op_class_replays_as_executed(op, types, operands, result):
    trace = _checked_trace(op, types, operands, result)
    _assert_replays_as_executed(trace,
                                checkpoints=3 if result in BITS else 1)


def test_a_trap_ends_the_replay_and_keeps_the_branches_before_it():
    trace = _Trace()
    # amount == 5, not taken: a branch on the symbolic parameter.
    trace.action("local.get", (), 1)
    trace.action("i64.const", (), 5)
    trace.action("i64.eq", (AMOUNT, 5))
    trace.action("br_if", (0,), 0)
    # The traced run traps here, so the trace ends here.
    trace.action("f64.const", (), math.nan)
    trace.action("i32.trunc_f64_s", (math.nan,))
    replay = trace.replay()
    assert "i32.trunc_f64_s" in replay.error
    [branch] = replay.branches
    assert (branch.kind, branch.taken) == ("br_if", 0)
    assert len(replay.path) == 1
    assert len(flip_queries(replay)) == 1
