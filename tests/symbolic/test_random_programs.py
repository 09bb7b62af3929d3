"""Randomised differential testing: interpreter vs symbolic replay.

Generates random straight-line integer programs over the eosponser's
inputs, executes them concretely, replays the trace symbolically, and
checks that the final value the program stores agrees with the
symbolic expression evaluated at the inputs.  This sweeps the whole
pipeline — builder, encoder, instrumenter, interpreter, hook capture,
Table 3 replay semantics and the term simplifier — through operator
mixes the hand-written tests do not reach.
"""

import random

import pytest

from repro.engine.deploy import deploy_target, setup_chain
from repro.eosio import Abi, Asset, Encoder, N, Name, TRANSFER_SIGNATURE
from repro.eosio.host import HOST_API_SIGNATURES
from repro.smt import evaluate
from repro.symbolic import SeedLayout, replay_action
from repro.wasm import FuncType, I32, I64, Instr, ModuleBuilder

# Ops safe in any operand order (no trapping): op -> stack delta source.
BINOPS = ["i64.add", "i64.sub", "i64.mul", "i64.and", "i64.or",
          "i64.xor", "i64.shl", "i64.shr_u", "i64.shr_s", "i64.rotl",
          "i64.rotr"]
UNOPS = ["i64.popcnt", "i64.clz", "i64.ctz"]
RELOPS = ["i64.eq", "i64.ne", "i64.lt_u", "i64.gt_s", "i64.le_u"]


def random_body(f, rng: random.Random) -> None:
    """Emit a random expression over (from, to, amount) into local 5,
    then store it at address 0."""
    depth = 0

    def push_leaf():
        nonlocal depth
        choice = rng.random()
        if choice < 0.3:
            f.local_get(rng.choice([1, 2]))
        elif choice < 0.5:
            f.local_get(3)
            f.emit("i64.load", 3, 0)
        else:
            f.i64_const(rng.getrandbits(rng.choice([4, 16, 48])))
        depth += 1

    push_leaf()
    for _ in range(rng.randrange(3, 14)):
        kind = rng.random()
        if kind < 0.55 or depth < 2:
            push_leaf()
            f.emit(rng.choice(BINOPS))
            depth -= 1
        elif kind < 0.75:
            f.emit(rng.choice(UNOPS))
        elif kind < 0.9:
            push_leaf()
            f.emit(rng.choice(RELOPS))
            f.emit("i64.extend_i32_u")
            depth -= 1
        else:
            f.local_set(5)
            f.local_get(5)
    f.local_set(5)
    f.i32_const(0).local_get(5).emit("i64.store", 3, 0)


def build_random_contract(seed: int):
    rng = random.Random(seed)
    builder = ModuleBuilder()
    builder.add_memory(1)

    def imp(api):
        params, results = HOST_API_SIGNATURES[api]
        return builder.import_function(
            "env", api, [t.name for t in params],
            [r.name for r in results])

    read_data = imp("read_action_data")
    data_size = imp("action_data_size")
    transfer = builder.function(
        "transfer_impl", params=["i64", "i64", "i64", "i32", "i32"],
        locals_=["i64"])
    random_body(transfer, rng)
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


@pytest.mark.parametrize("program_seed", range(25))
def test_random_program_differential(program_seed):
    module, abi = build_random_contract(program_seed)
    rng = random.Random(program_seed + 10_000)
    amount = rng.randrange(1, 1 << 33)  # within the player's funding
    chain = setup_chain()
    target = deploy_target(chain, "victim", module, abi)
    data = (Encoder().name("player").name("victim")
            .asset(Asset(amount)).string("m").bytes())
    result = chain.push_action("eosio.token", "transfer", ["player"],
                               data)
    assert result.success, result.error
    record = [r for r in result.all_records()
              if r.receiver == target.account and r.wasm_trace][0]
    events = record.wasm_trace
    layout = SeedLayout(abi.action("transfer"),
                        [Name("player"), Name("victim"),
                         Asset(amount), "m"])
    replay = replay_action(module, target.site_table, events, layout,
                           target.apply_index, target.import_names)
    assert replay.reached_action
    assert replay.error is None
    # The symbolic store at address 0 under the concrete inputs must
    # equal what the interpreter actually wrote.
    symbolic = replay.state.memory.load(0, 8)
    expected = int.from_bytes(
        bytes(_victim_memory(chain, target)[0:8]), "little")
    got = evaluate(symbolic, {
        "rho0": int(Name("player")), "rho1": int(Name("victim")),
        "rho2_amount": amount,
        "rho2_symbol": Asset(amount).symbol.raw,
        "rho3_byte0": ord("m"),
    })
    assert got == expected, f"program {program_seed} diverged"


def _victim_memory(chain, target):
    """Re-execute concretely to read the final memory (the chain does
    not retain instance memory, so rebuild the instance)."""
    from repro.eosio.chain import ApplyContext, Action
    from repro.eosio.host import build_host_imports
    from repro.wasm import Instance
    contract = chain.get_contract(target.account)
    # Find the last transfer action data pushed.
    last = None
    for tx in reversed(chain.transaction_log):
        for rec in tx.records:
            if rec.receiver == target.account:
                last = rec
                break
        if last:
            break
    action = Action(last.code, last.action_name, [], last.data)
    ctx = ApplyContext(chain, target.account, last.code, action, True)
    imports = build_host_imports(chain, ctx)
    for imp in contract.module.imports:
        if imp.module == "wasabi":
            imports[(imp.module, imp.name)] = contract._hook(
                chain, ctx, imp.name, contract.module.types[imp.desc])
    instance = Instance(contract.module, imports)
    instance.invoke("apply", [ctx.receiver, ctx.code, ctx.action_name])
    return instance.memory
