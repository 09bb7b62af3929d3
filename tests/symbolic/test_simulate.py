"""Tests for trace replay (Table 3 semantics) and constraint flipping.

Uses a hand-built dispatcher contract (independent of benchgen) so the
expected symbolic artefacts are known exactly.
"""

import pytest

from repro.engine.deploy import deploy_target, setup_chain
from repro.eosio import (Abi, Asset, Encoder, N, Name, TRANSFER_SIGNATURE,
                         issue_to)
from repro.smt import SAT, Solver, evaluate
from repro.symbolic import (SeedLayout, branch_coverage_ids, flip_queries,
                            locate_action_call, replay_action, solve_flips)
from repro.wasm import ModuleBuilder
from repro.wasm.module import Module
from repro.wasm.opcodes import Instr
from repro.wasm.types import FuncType, I32, I64


def build_manual_contract() -> tuple[Module, Abi]:
    """apply() deserialises a transfer and dispatches indirectly to an
    eosponser that branches on amount and asserts on memo byte 0."""
    builder = ModuleBuilder()
    builder.add_memory(1)
    from repro.eosio.host import HOST_API_SIGNATURES

    def imp(api):
        params, results = HOST_API_SIGNATURES[api]
        return builder.import_function(
            "env", api, [t.name for t in params], [r.name for r in results])

    read_data = imp("read_action_data")
    data_size = imp("action_data_size")
    eosio_assert = imp("eosio_assert")
    builder.add_data(256, b"bad memo\x00")

    transfer = builder.function(
        "transfer_impl", params=["i64", "i64", "i64", "i32", "i32"],
        locals_=["i64"])
    # if (amount > 100): stash amount; else nop
    transfer.local_get(3).emit("i64.load", 3, 0).local_set(5)
    transfer.local_get(5).i64_const(100).emit("i64.gt_u")
    transfer.emit("if", None)
    transfer.i32_const(0).local_get(5).emit("i64.store", 3, 64)
    transfer.emit("end")
    # eosio_assert(memo[0] == 'k')
    transfer.local_get(4).emit("i32.load8_u", 0, 1)
    transfer.i32_const(ord("k")).emit("i32.eq")
    transfer.i32_const(256)
    transfer.emit("call", eosio_assert)

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
    # Fix the call_indirect type marker.
    sig = module.add_type(FuncType((I64, I64, I64, I32, I32), ()))
    for func in module.functions:
        for i, instr in enumerate(func.body):
            if instr.op == "call_indirect" and instr.args[0] < 0:
                func.body[i] = Instr("call_indirect", sig)
    abi = Abi.from_signatures({"transfer": TRANSFER_SIGNATURE})
    return module, abi


@pytest.fixture(scope="module")
def deployed():
    chain = setup_chain()
    module, abi = build_manual_contract()
    target = deploy_target(chain, "victim", module, abi)
    issue_to(chain, "eosio.token", "victim", "100.0000 EOS")
    return chain, module, abi, target


def run_transfer(chain, target, amount: str, memo: str):
    data = (Encoder().name("player").name("victim")
            .asset(Asset.from_string(amount)).string(memo).bytes())
    result = chain.push_action("eosio.token", "transfer", ["player"], data)
    record = [r for r in result.all_records()
              if r.receiver == target.account and r.wasm_trace][0]
    return record.wasm_trace, result


def make_layout(abi, amount: str, memo: str):
    return SeedLayout(abi.action("transfer"),
                      [Name("player"), Name("victim"),
                       Asset.from_string(amount), memo])


def test_locate_action_call(deployed):
    chain, module, abi, target = deployed
    events, _ = run_transfer(chain, target, "0.0200 EOS", "kilo")
    located = locate_action_call(events, target.site_table,
                                 target.apply_index)
    assert located is not None
    _, func_id, args = located
    # 3 imports + transfer_impl at local index 0.
    assert func_id == module.num_imported_functions
    assert args[0] == N("victim")     # self
    assert args[1] == N("player")    # from
    assert args[3] == 1024 + 16       # quantity pointer


def test_replay_records_branch_and_assert(deployed):
    chain, module, abi, target = deployed
    events, _ = run_transfer(chain, target, "0.0200 EOS", "kilo")
    layout = make_layout(abi, "0.0200 EOS", "kilo")
    replay = replay_action(module, target.site_table, events, layout,
                           target.apply_index, target.import_names)
    assert replay.reached_action
    assert replay.error is None
    kinds = [b.kind for b in replay.branches]
    assert kinds == ["if", "assert"]
    branch = replay.branches[0]
    assert branch.taken == 1  # 200 > 100
    # The branch condition constrains the symbolic amount.
    assert evaluate(branch.condition, {"rho2_amount": 200}) is True
    assert evaluate(branch.condition, {"rho2_amount": 5}) is False


def test_replay_memory_uses_concrete_addresses(deployed):
    chain, module, abi, target = deployed
    events, _ = run_transfer(chain, target, "0.0200 EOS", "kilo")
    layout = make_layout(abi, "0.0200 EOS", "kilo")
    replay = replay_action(module, target.site_table, events, layout,
                           target.apply_index, target.import_names)
    # The i64.store stashed the symbolic amount at address 64.
    stored = replay.state.memory.load(64, 8)
    assert evaluate(stored, {"rho2_amount": 200}) == 200


def test_failed_assert_generates_flippable_constraint(deployed):
    chain, module, abi, target = deployed
    events, result = run_transfer(chain, target, "0.0200 EOS", "zzzz")
    assert not result.success  # the memo assert fired
    layout = make_layout(abi, "0.0200 EOS", "zzzz")
    replay = replay_action(module, target.site_table, events, layout,
                           target.apply_index, target.import_names)
    asserts = [b for b in replay.branches if b.kind == "assert"]
    assert asserts[-1].taken == 0
    assert asserts[-1].flipped is not None
    queries = flip_queries(replay)
    seeds = solve_flips(queries, layout, "transfer")
    fixed = [s for s in seeds if s.values[3].startswith("k")]
    assert fixed, "the solver should rewrite memo[0] to 'k'"


def test_flip_solves_branch_to_other_side(deployed):
    chain, module, abi, target = deployed
    events, _ = run_transfer(chain, target, "0.0200 EOS", "kilo")
    layout = make_layout(abi, "0.0200 EOS", "kilo")
    replay = replay_action(module, target.site_table, events, layout,
                           target.apply_index, target.import_names)
    queries = flip_queries(replay)
    seeds = solve_flips(queries, layout, "transfer")
    amounts = [s.values[2].amount for s in seeds]
    assert any(a <= 100 for a in amounts), amounts


def test_flip_queries_respect_explored_set(deployed):
    chain, module, abi, target = deployed
    events, _ = run_transfer(chain, target, "0.0200 EOS", "kilo")
    layout = make_layout(abi, "0.0200 EOS", "kilo")
    replay = replay_action(module, target.site_table, events, layout,
                           target.apply_index, target.import_names)
    all_queries = flip_queries(replay)
    explored = {(q.branch.site.func_index, q.branch.site.pc,
                 not bool(q.branch.taken)) for q in all_queries}
    assert flip_queries(replay, explored) == []


def test_branch_coverage_ids(deployed):
    chain, module, abi, target = deployed
    big, _ = run_transfer(chain, target, "0.0200 EOS", "kilo")
    small, _ = run_transfer(chain, target, "0.0001 EOS", "kilo")
    cover_big = branch_coverage_ids(target.site_table, big)
    cover_small = branch_coverage_ids(target.site_table, small)
    # Same sites, opposite directions on the amount branch.
    assert cover_big != cover_small
    assert len(cover_big | cover_small) > len(cover_big)


def test_replay_ignores_traces_without_dispatch(deployed):
    chain, module, abi, target = deployed
    # Push an unknown action: the dispatcher never call_indirects.
    result = chain.push_action(target.account, "unknownact", ["player"],
                               b"")
    record = [r for r in result.all_records()
              if r.receiver == target.account][0]
    events = record.wasm_trace
    layout = make_layout(abi, "1.0000 EOS", "kilo")
    replay = replay_action(module, target.site_table, events, layout,
                           target.apply_index, target.import_names)
    assert not replay.reached_action
    assert replay.branches == []
