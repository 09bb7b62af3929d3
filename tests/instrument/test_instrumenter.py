"""Tests for the contract-level instrumentation (C1)."""

import pytest

from repro.instrument import (BEGIN_FUNCTION, END_FUNCTION, HOOK_MODULE,
                              HookEvent, hook_event_builder,
                              instrument_module)
from repro.wasm import (FuncType, HostFunc, I32, I64, Instance, ModuleBuilder,
                        encode_module, parse_module, validate_module)


def build_adder():
    builder = ModuleBuilder()
    builder.add_memory(1)
    f = builder.function("add", params=["i32", "i32"], results=["i32"])
    f.local_get(0).local_get(1).emit("i32.add")
    builder.export_function("add", f)
    return builder.build()


def run_instrumented(module, export, args):
    """Instantiate an instrumented module with recording hooks."""
    instrumented, sites = instrument_module(module)
    validate_module(instrumented)
    events: list[HookEvent] = []
    imports = {}
    for imp in instrumented.imports:
        if imp.module == HOOK_MODULE:
            func_type = instrumented.types[imp.desc]
            def make(name):
                make_event = hook_event_builder(name)
                return lambda inst, a: events.append(make_event(a)) or []
            imports[(imp.module, imp.name)] = HostFunc(func_type,
                                                       make(imp.name))
    instance = Instance(instrumented, imports)
    results = instance.invoke(export, args)
    return results, events, sites


def test_instrumented_module_still_computes():
    results, events, sites = run_instrumented(build_adder(), "add", [2, 3])
    assert results == [5]


def test_instrumented_module_validates():
    instrumented, _ = instrument_module(build_adder())
    validate_module(instrumented)


def test_instrumented_module_encodes_and_parses():
    instrumented, _ = instrument_module(build_adder())
    assert parse_module(encode_module(instrumented)).functions


def test_begin_end_labels_bracket_execution():
    _, events, _ = run_instrumented(build_adder(), "add", [1, 1])
    assert events[0].kind == "begin"
    assert events[-1].kind == "end"


def test_operands_are_duplicated():
    _, events, sites = run_instrumented(build_adder(), "add", [7, 9])
    instr_events = [e for e in events if e.kind == "instr"]
    ops = [(sites[e.site_id].instr.op, e.operands) for e in instr_events]
    assert ops == [("local.get", ()), ("local.get", ()),
                   ("i32.add", (7, 9))]


def test_site_table_points_into_original_module():
    module = build_adder()
    _, events, sites = run_instrumented(module, "add", [1, 2])
    add_site = sites[[e for e in events if e.kind == "instr"][-1].site_id]
    original = module.functions[0].body[add_site.pc]
    assert original.op == "i32.add"


def test_call_gets_pre_and_post_hooks():
    builder = ModuleBuilder()
    double = builder.function("double", params=["i32"], results=["i32"])
    double.local_get(0).i32_const(2).emit("i32.mul")
    outer = builder.function("outer", params=["i32"], results=["i32"])
    outer.local_get(0)
    outer.call(double)
    builder.export_function("outer", outer)
    results, events, sites = run_instrumented(builder.build(), "outer", [21])
    assert results == [42]
    call_events = [e for e in events if e.kind == "instr"
                   and sites[e.site_id].instr.op == "call"]
    post_events = [e for e in events if e.kind == "post"]
    assert call_events[0].operands == (21,)   # call_pre: the argument
    assert post_events[0].operands == (42,)   # call_post: the return
    # The callee's begin/end labels nest between pre and post.
    begin_positions = [i for i, e in enumerate(events) if e.kind == "begin"]
    assert len(begin_positions) == 2


def test_memory_instruction_captures_concrete_address():
    builder = ModuleBuilder()
    builder.add_memory(1)
    f = builder.function("f", results=["i32"])
    f.i32_const(64).i32_const(7).emit("i32.store", 2, 0)
    f.i32_const(64).emit("i32.load", 2, 0)
    builder.export_function("f", f)
    results, events, sites = run_instrumented(builder.build(), "f", [])
    assert results == [7]
    store_event = [e for e in events if e.kind == "instr"
                   and sites[e.site_id].instr.op == "i32.store"][0]
    assert store_event.operands == (64, 7)  # address and value
    load_event = [e for e in events if e.kind == "instr"
                  and sites[e.site_id].instr.op == "i32.load"][0]
    assert load_event.operands == (64,)


def test_branch_condition_captured():
    builder = ModuleBuilder()
    f = builder.function("f", params=["i32"], results=["i32"])
    f.emit("block", None)
    f.local_get(0)
    f.emit("br_if", 0)
    f.emit("end")
    f.i32_const(5)
    builder.export_function("f", f)
    _, events, sites = run_instrumented(builder.build(), "f", [1])
    br_event = [e for e in events if e.kind == "instr"
                and sites[e.site_id].instr.op == "br_if"][0]
    assert br_event.operands == (1,)


def test_loop_iterations_fire_hooks_each_time():
    builder = ModuleBuilder()
    f = builder.function("f", params=["i32"], results=["i32"],
                         locals_=["i32"])
    f.emit("block", None)
    f.emit("loop", None)
    f.local_get(1).local_get(0).emit("i32.ge_u").emit("br_if", 1)
    f.local_get(1).i32_const(1).emit("i32.add").local_set(1)
    f.emit("br", 0)
    f.emit("end")
    f.emit("end")
    f.local_get(1)
    builder.export_function("f", f)
    results, events, sites = run_instrumented(builder.build(), "f", [3])
    assert results == [3]
    adds = [e for e in events if e.kind == "instr"
            and sites[e.site_id].instr.op == "i32.add"]
    assert len(adds) == 3
    assert [e.operands for e in adds] == [(0, 1), (1, 1), (2, 1)]


def test_mixed_type_operands_spill_correctly():
    builder = ModuleBuilder()
    builder.add_memory(1)
    f = builder.function("f", results=["i64"])
    f.i32_const(8).i64_const(0xDEADBEEF).emit("i64.store", 3, 0)
    f.i32_const(8).emit("i64.load", 3, 0)
    builder.export_function("f", f)
    results, events, sites = run_instrumented(builder.build(), "f", [])
    assert results == [0xDEADBEEF]
    store = [e for e in events if e.kind == "instr"
             and sites[e.site_id].instr.op == "i64.store"][0]
    assert store.operands == (8, 0xDEADBEEF)


def test_original_module_not_mutated():
    module = build_adder()
    before = [list(f.body) for f in module.functions]
    instrument_module(module)
    after = [list(f.body) for f in module.functions]
    assert before == after


def test_uninstrumented_imports_preserved():
    builder = ModuleBuilder()
    log = builder.import_function("env", "printi", params=["i64"])
    f = builder.function("f")
    f.i64_const(1)
    f.emit("call", log)
    builder.export_function("f", f)
    module = builder.build()
    instrumented, _ = instrument_module(module)
    env_imports = [i for i in instrumented.imports if i.module == "env"]
    assert len(env_imports) == 1
    # The call to the original import must keep index 0.
    calls = [i for i in instrumented.functions[0].body if i.op == "call"]
    # Last call in body targets printi (index 0); hook calls target
    # higher indices.
    assert any(c.args[0] == 0 for c in calls)


def test_table_entries_remapped():
    builder = ModuleBuilder()
    f = builder.function("f", results=["i32"])
    f.i32_const(3)
    builder.add_table_entry(0, f)
    builder.export_function("f", f)
    module = builder.build()
    instrumented, _ = instrument_module(module)
    hook_count = sum(1 for i in instrumented.imports
                     if i.module == HOOK_MODULE)
    assert instrumented.elements[0].func_indices == [hook_count]
