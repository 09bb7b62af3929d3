"""Equal hook firings of one contract binding share one ``HookEvent``.

The recorder ``hook_event_builder`` returns keeps one event per
distinct firing, so a trace holds many references to few events.
Nothing observable may change: a trace still has one entry per firing,
equal to the event a fresh-event sink records, and a float operand
keeps its sign and NaN payload.  Every test runs under both engines.
"""

from __future__ import annotations

import math
import struct

import pytest

import repro.eosio.chain as chain_module
from repro import build_rq1_contracts
from repro.eosio import Chain, WasmContract
from repro.harness import run_wasai
from repro.instrument import (BEGIN_FUNCTION, END_FUNCTION, HookEvent,
                              instrument_module, parse_hook_name)
from repro.wasm import ExecutionLimits, ModuleBuilder

MAZE_SEED = 1
MAZE_INDEX = 3
NAN_PAYLOADS = {"f64": (0x7FF8000000000001, 0x7FF8000000000002),
                "f32": (0x7FC00001, 0x7FC00002)}


@pytest.fixture(params=[False, True], ids=["interpreter", "translator"])
def limits(request):
    return ExecutionLimits(translate=request.param)


def fresh_event_builder(hook_name: str):
    """The reference sink: a new ``HookEvent`` for every firing."""
    if hook_name in (BEGIN_FUNCTION, END_FUNCTION):
        label = "begin" if hook_name == BEGIN_FUNCTION else "end"
        return lambda args: HookEvent(label, None, args[0], ())
    kind, _ = parse_hook_name(hook_name)
    label = "instr" if kind == "trace" else "post"
    return lambda args: HookEvent(label, args[0], None, tuple(args[1:]))


def maze_campaign(limits):
    contract = build_rq1_contracts(count=MAZE_INDEX + 1,
                                   seed=MAZE_SEED)[MAZE_INDEX]
    return run_wasai(contract.module, contract.abi, rng_seed=100 + MAZE_INDEX,
                     limits=limits)


def deploy(module, limits) -> Chain:
    instrumented, site_table = instrument_module(module)
    chain = Chain(limits=limits)
    chain.set_contract("probe", WasmContract(instrumented, None, site_table))
    return chain


def probe_trace(chain: Chain) -> list[HookEvent]:
    result = chain.push_action("probe", "go", ["probe"], b"")
    assert result.success, result.error
    (record,) = result.records
    return record.wasm_trace


def test_trace_equals_the_fresh_event_sink(limits, monkeypatch):
    shared = maze_campaign(limits).report.observations
    monkeypatch.setattr(chain_module, "hook_event_builder",
                        fresh_event_builder)
    fresh = maze_campaign(limits).report.observations
    assert len(shared) == len(fresh)
    for got, want in zip(shared, fresh):
        assert len(got.events) == len(want.events)
        assert got.events == want.events


def test_equal_integer_firings_append_one_object(limits):
    builder = ModuleBuilder()
    apply_f = builder.function("apply", params=["i64", "i64", "i64"])
    apply_f.local_get(2).i64_const(5).emit("i64.add").emit("drop")
    builder.export_function("apply", apply_f)
    chain = deploy(builder.build(), limits)
    first, second = probe_trace(chain), probe_trace(chain)
    assert first == second
    assert all(a is b for a, b in zip(first, second))
    operands = [event.operands for event in first if event.operands]
    assert len(operands) >= 2      # the add's (i64, i64) and the drop's i64


def _float_probe(width: str):
    """A contract whose ``keep`` drops its one ``width`` parameter,
    called with 0.0, -0.0 and two NaNs of different payloads."""
    float_format, bits_format = ("<d", "<Q") if width == "f64" \
        else ("<f", "<I")
    nans = [struct.unpack(float_format, struct.pack(bits_format, bits))[0]
            for bits in NAN_PAYLOADS[width]]
    builder = ModuleBuilder()
    keep = builder.function("keep", params=[width])
    keep.local_get(0).emit("drop")
    apply_f = builder.function("apply", params=["i64", "i64", "i64"])
    for value in (0.0, -0.0, *nans):
        apply_f.emit(f"{width}.const", value).call(keep)
    builder.export_function("apply", apply_f)
    return builder.build()


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@pytest.mark.parametrize("width", ["f64", "f32"])
def test_float_firings_keep_sign_and_payload(limits, monkeypatch, width):
    recorded = []
    real_builder = chain_module.hook_event_builder

    def spying_builder(hook_name):
        record = real_builder(hook_name)

        def spy(args):
            event = record(args)
            recorded.append((hook_name, list(args), event))
            return event
        return spy

    monkeypatch.setattr(chain_module, "hook_event_builder", spying_builder)
    probe_trace(deploy(_float_probe(width), limits))
    firings = [(args, event) for hook_name, args, event in recorded
               if hook_name == f"trace_{width}"]
    # Each value fires the call site and then the drop site in ``keep``.
    assert len(firings) == 8
    drop_site = firings[1][0][0]
    fired = [args[1] for args, _ in firings if args[0] == drop_site]
    assert len({_bits(value) for value in fired}) == 4
    assert math.copysign(1.0, fired[0]) == -math.copysign(1.0, fired[1])
    assert all(math.isnan(value) for value in fired[2:])
    for args, event in firings:
        (want,) = args[1:]
        (got,) = event.operands
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert _bits(got) == _bits(want)


def test_campaign_events_are_distinct_objects_per_value(limits):
    events = [event for observation in maze_campaign(limits)
              .report.observations for event in observation.events]
    assert events
    assert len({id(event) for event in events}) == len(set(events))
