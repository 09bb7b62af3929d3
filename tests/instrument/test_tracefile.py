"""Tests for offline trace files and hook naming (§3.3.1)."""

import pytest

from repro.instrument import (BEGIN_FUNCTION, END_FUNCTION, HookEvent,
                              TraceStore, hook_event_builder,
                              hook_func_type, parse_hook_name,
                              post_hook_name, read_trace_ir,
                              trace_hook_name, write_trace_ir)
from repro.resilience import TraceCorruption
from repro.wasm import F32, F64, FuncType, I32, I64


def instr(site_id, *operands):
    return HookEvent("instr", site_id, None, operands)


def test_hook_names():
    assert trace_hook_name([]) == "trace"
    assert trace_hook_name([I32, I64]) == "trace_i32_i64"
    assert post_hook_name([]) == "post"
    assert post_hook_name([F64]) == "post_f64"


def test_hook_name_parse_roundtrip():
    for types in ([], [I32], [I64, F32], [I32, I32, I32]):
        name = trace_hook_name(types)
        kind, parsed = parse_hook_name(name)
        assert kind == "trace"
        assert list(parsed) == types


def test_hook_func_types():
    assert hook_func_type("trace_i64") == FuncType((I32, I64), ())
    assert hook_func_type(BEGIN_FUNCTION) == FuncType((I32,), ())
    assert hook_func_type("post") == FuncType((I32,), ())


def test_unknown_hook_rejected():
    with pytest.raises(ValueError):
        parse_hook_name("mystery_i32")


def test_hook_event_decoding():
    begin = hook_event_builder(BEGIN_FUNCTION)([7])
    assert begin.kind == "begin"
    assert begin.func_id == 7
    assert hook_event_builder(END_FUNCTION)([7]).kind == "end"
    event = hook_event_builder("trace_i32_i32")([3, 10, 20])
    assert event.kind == "instr"
    assert event.site_id == 3
    assert event.operands == (10, 20)
    post = hook_event_builder("post_i64")([5, 99])
    assert post.kind == "post"
    assert post.operands == (99,)
    with pytest.raises(ValueError):
        hook_event_builder("mystery_i32")


def test_hook_events_compare_by_value():
    assert instr(3, 10, 20) == instr(3, 10, 20)
    assert hash(instr(3, 10, 20)) == hash(instr(3, 10, 20))
    assert instr(3, 10, 20) != instr(3, 10, 21)
    assert instr(3) != HookEvent("post", 3, None, ())
    assert HookEvent("begin", None, 3, ()) != HookEvent("end", None, 3, ())
    assert len({instr(1, 2), instr(1, 2), instr(2, 2)}) == 2


def test_trace_store_per_thread_isolation(tmp_path):
    """The C1 requirement: traces from parallel executions must not
    interleave; each thread's buffer flushes to its own file."""
    store = TraceStore(tmp_path)
    store.append("thread-a", instr(1))
    store.append("thread-b", instr(2))
    store.append("thread-a", instr(3))
    path_a = store.finalize("thread-a")
    path_b = store.finalize("thread-b")
    assert path_a != path_b
    events_a = read_trace_ir(path_a)
    assert [e.site_id for e in events_a] == [1, 3]
    assert [e.site_id for e in read_trace_ir(path_b)] == [2]


def test_trace_store_finalize_clears_buffer(tmp_path):
    store = TraceStore(tmp_path)
    store.append("t", instr(1))
    store.finalize("t")
    assert store.pending_tokens() == []
    assert read_trace_ir(store.finalize("t")) == []


def test_write_is_atomic_no_temp_residue(tmp_path):
    """After a successful write the directory holds exactly the trace
    file — the temp staging file has been renamed away, never left."""
    path = tmp_path / "t.tir"
    write_trace_ir(path, [instr(0, 1)])
    write_trace_ir(path, [instr(0, 2)])  # overwrite in place
    assert [p.name for p in tmp_path.iterdir()] == ["t.tir"]
    assert read_trace_ir(path)[0].operands == (2,)


def test_trace_ir_file_roundtrip(tmp_path):
    written = [instr(0, 42), HookEvent("begin", None, 1, ()),
               HookEvent("post", 2, None, (-7,)),
               HookEvent("end", None, 1, ())]
    path = tmp_path / "t.tir"
    write_trace_ir(path, written)
    events = read_trace_ir(path)
    assert [e.kind for e in events] == ["instr", "begin", "post", "end"]
    assert events[0].operands == (42,)
    assert events[2].operands == (-7,)
    assert events == written


def test_trace_ir_corruption_carries_path(tmp_path):
    path = tmp_path / "t.tir"
    write_trace_ir(path, [instr(0, 42)])
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceCorruption) as info:
        read_trace_ir(path)
    assert info.value.path == str(path)
    with pytest.raises(TraceCorruption):
        read_trace_ir(tmp_path / "missing.tir")


def test_trace_store_ir_format(tmp_path):
    store = TraceStore(tmp_path)
    store.append("t", instr(5))
    store.append("t", HookEvent("post", 5, None, (9,)))
    path = store.finalize("t")
    assert path.suffix == ".tir"
    events = read_trace_ir(path)
    assert [e.kind for e in events] == ["instr", "post"]
