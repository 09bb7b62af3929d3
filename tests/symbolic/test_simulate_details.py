"""Focused replay tests: br_table, select, globals, nested local calls.

These instruction shapes do not all occur in the generated benchmark
contracts, so they get dedicated hand-built contracts here to pin the
Table 3 semantics.
"""

import pytest

from repro.engine.deploy import deploy_target, setup_chain
from repro.eosio import Abi, Asset, Encoder, N, Name, TRANSFER_SIGNATURE
from repro.eosio.host import HOST_API_SIGNATURES
from repro.smt import evaluate
from repro.symbolic import SeedLayout, replay_action
from repro.wasm import FuncType, I32, I64, Instr, ModuleBuilder


def build_contract(body_emitter, helper_emitter=None):
    """Dispatcher + one eosponser whose body ``body_emitter`` writes.

    The eosponser signature matches the generated contracts:
    (self i64, from i64, to i64, quantity_ptr i32, memo_ptr i32).
    """
    builder = ModuleBuilder()
    builder.add_memory(1)

    def imp(api):
        params, results = HOST_API_SIGNATURES[api]
        return builder.import_function(
            "env", api, [t.name for t in params],
            [r.name for r in results])

    read_data = imp("read_action_data")
    data_size = imp("action_data_size")
    imp("eosio_assert")
    builder.add_global("i64", mutable=True, init=0)

    helper = None
    if helper_emitter is not None:
        helper = builder.function("helper", params=["i64"],
                                  results=["i64"])
        helper_emitter(helper)

    transfer = builder.function(
        "transfer_impl", params=["i64", "i64", "i64", "i32", "i32"],
        locals_=["i64"])
    body_emitter(transfer, helper)

    apply_f = builder.function("apply", params=["i64", "i64", "i64"],
                               locals_=["i32"])
    apply_f.emit("call", data_size).local_set(3)
    apply_f.i32_const(1024).local_get(3).emit("call", read_data)
    apply_f.emit("drop")
    apply_f.local_get(2).i64_const(N("transfer")).emit("i64.eq")
    apply_f.emit("if", None)
    apply_f.local_get(0)
    apply_f.i32_const(1024).emit("i64.load", 3, 0)
    apply_f.i32_const(1024).emit("i64.load", 3, 8)
    apply_f.i32_const(1024 + 16)
    apply_f.i32_const(1024 + 32)
    apply_f.i32_const(0)
    apply_f.emit("call_indirect", -1)
    apply_f.emit("end")
    builder.add_table_entry(0, transfer)
    builder.export_function("apply", apply_f)
    module = builder.build()
    sig = module.add_type(FuncType((I64, I64, I64, I32, I32), ()))
    for func in module.functions:
        for i, instr in enumerate(func.body):
            if instr.op == "call_indirect" and instr.args[0] < 0:
                func.body[i] = Instr("call_indirect", sig)
    return module, Abi.from_signatures({"transfer": TRANSFER_SIGNATURE})


def replay_with(module, abi, amount="0.0005 EOS", memo="abc"):
    chain = setup_chain()
    target = deploy_target(chain, "victim", module, abi)
    data = (Encoder().name("player").name("victim")
            .asset(Asset.from_string(amount)).string(memo).bytes())
    result = chain.push_action("eosio.token", "transfer", ["player"],
                               data)
    record = [r for r in result.all_records()
              if r.receiver == target.account and r.wasm_trace][0]
    events = record.wasm_trace
    layout = SeedLayout(abi.action("transfer"),
                        [Name("player"), Name("victim"),
                         Asset.from_string(amount), memo])
    replay = replay_action(module, target.site_table, events, layout,
                           target.apply_index, target.import_names)
    return replay, result


def test_br_table_replay_pins_index():
    def body(f, helper):
        # br_table over (amount % 3).
        f.emit("block", None)
        f.emit("block", None)
        f.emit("block", None)
        f.local_get(3).emit("i64.load", 3, 0)
        f.i64_const(3).emit("i64.rem_u")
        f.emit("i32.wrap_i64")
        f.emit("br_table", (0, 1), 2)
        f.emit("end")
        f.emit("return")
        f.emit("end")
        f.emit("return")
        f.emit("end")
    module, abi = build_contract(body)
    replay, result = replay_with(module, abi, amount="0.0005 EOS")
    assert replay.reached_action and replay.error is None
    tables = [b for b in replay.branches if b.kind == "br_table"]
    assert len(tables) == 1
    assert tables[0].taken == 5 % 3
    # The path constraint fixes the symbolic index to the taken arm.
    assert evaluate(tables[0].condition, {"rho2_amount": 5}) is True
    assert evaluate(tables[0].condition, {"rho2_amount": 6}) is False


def test_select_replay():
    def body(f, helper):
        # local5 = select(from, to, amount > 100); store to memory.
        f.local_get(1)
        f.local_get(2)
        f.local_get(3).emit("i64.load", 3, 0)
        f.i64_const(100).emit("i64.gt_u")
        f.emit("select")
        f.local_set(5)
        f.i32_const(0).local_get(5).emit("i64.store", 3, 0)
    module, abi = build_contract(body)
    replay, _ = replay_with(module, abi, amount="0.0500 EOS")  # 500>100
    stored = replay.state.memory.load(0, 8)
    got = evaluate(stored, {"rho0": 111, "rho1": 222,
                            "rho2_amount": 500})
    assert got == 111  # amount > 100 selects `from`


def test_global_set_get_replay():
    def body(f, helper):
        f.local_get(1)
        f.emit("global.set", 0)
        f.emit("global.get", 0)
        f.local_set(5)
        f.i32_const(8).local_get(5).emit("i64.store", 3, 0)
    module, abi = build_contract(body)
    replay, _ = replay_with(module, abi)
    stored = replay.state.memory.load(8, 8)
    assert evaluate(stored, {"rho0": 0xBEEF}) == 0xBEEF


def test_nested_local_call_replay():
    def helper_emitter(h):
        # helper(x) = x * 2 + 1
        h.local_get(0).i64_const(2).emit("i64.mul")
        h.i64_const(1).emit("i64.add")

    def body(f, helper):
        f.local_get(1)
        f.call(helper)
        f.local_set(5)
        f.i32_const(16).local_get(5).emit("i64.store", 3, 0)

    module, abi = build_contract(body, helper_emitter)
    replay, _ = replay_with(module, abi)
    stored = replay.state.memory.load(16, 8)
    # The symbolic return of the helper flows through μ_r (§3.4.3).
    assert evaluate(stored, {"rho0": 21}) == 43


def test_recursive_local_call_replay():
    def helper_emitter(h):
        # helper(x) = x == 0 ? 0 : helper(x-1) + 1  (identity on small x)
        h.local_get(0)
        h.emit("i64.eqz")
        h.emit("if", "i64")
        h.i64_const(0)
        h.emit("else")
        h.local_get(0).i64_const(1).emit("i64.sub")
        h.call("helper")
        h.i64_const(1).emit("i64.add")
        h.emit("end")

    def body(f, helper):
        f.i64_const(3)
        f.call(helper)
        f.local_set(5)
        f.i32_const(24).local_get(5).emit("i64.store", 3, 0)

    module, abi = build_contract(body, helper_emitter)
    replay, _ = replay_with(module, abi)
    assert replay.error is None
    stored = replay.state.memory.load(24, 8)
    assert stored.const_value() == 3
