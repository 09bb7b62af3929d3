"""Differential testing: translated vs generic interpreter.

The direct-threaded translation layer (``repro.wasm.translate``) is an
optimisation, not a second semantics: every observable — traces, trap
types and messages, remaining fuel, memory, verdicts — must be
byte-identical to the generic reference interpreter in
``repro.wasm.interpreter``.  These tests run the Table 4/5 corpus and
the hostile corpora through both engines and assert exactly that.
"""

from __future__ import annotations

from itertools import accumulate

import pytest

from repro.benchgen.corpus import build_table4_corpus, obfuscated_variant
from repro.benchgen.hostile import (build_hostile_corpus,
                                    build_resource_hostile_modules)
from repro.engine.deploy import deploy_target, setup_chain
from repro.eosio.abi import Abi
from repro.eosio.chain import Action, ApplyContext, WasmContract
from repro.eosio.errors import ChainError
from repro.eosio.host import build_host_imports
from repro.eosio.name import N
from repro.harness import run_wasai
from repro.instrument import HOOK_MODULE, instrument_module
from repro.wasm import (ExecutionLimits, HostFunc, Instance, ModuleBuilder,
                        Trap, parse_module, validate_module)
from repro.wasm.translate import _inside_idiom, translated_function


@pytest.fixture(scope="module")
def corpus():
    return build_table4_corpus(scale=0.01)


def _campaign_fingerprint(module, abi, translate: bool):
    """Everything observable from one WASAI campaign."""
    run = run_wasai(module, abi,
                    limits=ExecutionLimits(translate=translate))
    findings = {vuln_type: (finding.detected, finding.evidence)
                for vuln_type, finding in run.scan.findings.items()}
    return (findings, tuple(run.scan.divergences),
            run.report.iterations, tuple(sorted(run.report.covered)))


def _apply_fingerprint(module, abi, translate: bool, instrumentation=None,
                       **limits):
    """One apply() of the instrumented contract under ``limits`` (fields
    of ExecutionLimits): the full hook trace, the host-call journal,
    the outcome, the remaining fuel and the memory.  ``instrumentation``
    is ``instrument_module(module)``, when the caller already has it."""
    instrumented, site_table = instrumentation or instrument_module(module)
    contract = WasmContract(instrumented, abi, site_table)
    limits = ExecutionLimits(translate=translate, **limits)
    chain = setup_chain(limits=limits)
    account = chain.set_contract("victim", contract)
    action = Action(account, N("transfer"), [account], b"\x00" * 32)
    ctx = ApplyContext(chain, account, account, action, False)
    imports = build_host_imports(chain, ctx)
    for imp in instrumented.imports:
        if imp.kind == "func" and imp.module == "wasabi":
            imports[(imp.module, imp.name)] = contract._hook(
                chain, ctx, imp.name, instrumented.types[imp.desc])
    instance = Instance(instrumented, imports, limits=limits)
    error = None
    try:
        instance.invoke("apply", [ctx.receiver, ctx.code, ctx.action_name])
    except (ChainError, Trap) as exc:
        error = f"{type(exc).__name__}: {exc}"
    return (tuple(ctx.wasm_trace), tuple(ctx.host_calls), error,
            instance.fuel, bytes(instance.memory))


def test_table4_corpus_verdicts_identical(corpus):
    assert corpus, "corpus builder returned no samples"
    for sample in corpus[:8]:
        generic = _campaign_fingerprint(sample.module, sample.contract.abi,
                                        translate=False)
        translated = _campaign_fingerprint(sample.module,
                                           sample.contract.abi,
                                           translate=True)
        assert generic == translated, \
            f"campaign diverged on {sample.vuln_type}/{sample.variant}"


def test_table5_obfuscated_verdicts_identical(corpus):
    for sample in [obfuscated_variant(s) for s in corpus[:4]]:
        generic = _campaign_fingerprint(sample.module, sample.contract.abi,
                                        translate=False)
        translated = _campaign_fingerprint(sample.module,
                                           sample.contract.abi,
                                           translate=True)
        assert generic == translated, \
            f"campaign diverged on obfuscated {sample.vuln_type}"


def test_apply_traces_byte_identical(corpus):
    """The per-action hook trace — not just the verdict — must match."""
    for sample in corpus[:6]:
        generic = _apply_fingerprint(sample.module, sample.contract.abi,
                                     translate=False)
        translated = _apply_fingerprint(sample.module, sample.contract.abi,
                                        translate=True)
        assert generic == translated, \
            f"apply trace diverged on {sample.vuln_type}"
        assert generic[0], "expected a non-empty hook trace"


# -- traps inside a hook idiom ------------------------------------------
# The translator runs each instrumenter hook idiom (k operand spills, the
# site constant, k loads, the hook call, k reloads) as one fused step
# that falls back to the long form when a metering check lands inside
# it.  These sweeps move a fuel, deadline or trace-budget trap across
# every instruction of whole applies, so they land at every offset of
# every idiom run, and hold both engines to the same trap, partial
# trace, remaining fuel and memory.

def _straight_line_contract():
    """An ``apply`` that runs straight through (and through one call),
    whose hook idioms spill k = 0 (``i32.const``, ``local.get``), 1
    (``local.set``, ``i32.eqz``, ``drop``, the call and its return), 2
    (``i32.add``, ``i32.store``) and 3 (``select``) operands."""
    builder = ModuleBuilder()
    builder.add_memory(1)
    double = builder.function("double", params=["i32"], results=["i32"])
    double.local_get(0).i32_const(2).emit("i32.mul")
    apply = builder.function("apply", params=["i64", "i64", "i64"],
                             locals_=["i32"])
    apply.i32_const(64).i32_const(7).call(double).i32_const(9)
    apply.emit("i32.add").emit("i32.store", 2, 0)
    apply.i32_const(3).emit("i32.eqz").local_set(3)
    apply.local_get(3).i32_const(5).i32_const(1).emit("select")
    apply.emit("drop")
    builder.export_function("apply", apply)
    return builder.build(), Abi()


@pytest.fixture(scope="module")
def instrumented_contracts(corpus):
    contracts = [_straight_line_contract()] + [
        (sample.module, sample.contract.abi) for sample in corpus[:3]]
    return [(module, abi, instrument_module(module))
            for module, abi in contracts]


def _assert_engines_agree(module, abi, instrumentation, **limits):
    generic = _apply_fingerprint(module, abi, False, instrumentation,
                                 **limits)
    translated = _apply_fingerprint(module, abi, True, instrumentation,
                                    **limits)
    assert generic == translated, f"engines diverged under {limits}"
    return generic


def _fuel_used(module, abi, instrumentation) -> int:
    remaining = _apply_fingerprint(module, abi, False, instrumentation)[3]
    return ExecutionLimits().fuel - remaining


def test_straight_line_contract_fuses_every_hook_idiom():
    module, _ = _straight_line_contract()
    instrumented, _ = instrument_module(module)
    hooks = {index: imp.name for index, imp in enumerate(
        instrumented.imported_functions()) if imp.module == HOOK_MODULE}
    assert {"trace", "trace_i32", "trace_i32_i32", "trace_i32_i32_i32",
            "post_i32"} <= set(hooks.values())
    for func in instrumented.functions:
        code = translated_function(instrumented, func)
        hook_calls = [pc for pc, instr in enumerate(func.body)
                      if instr.op == "call" and instr.args[0] in hooks]
        assert hook_calls
        # A fused idiom's hook call has no step of its own.
        assert all(code.steps[pc] is _inside_idiom for pc in hook_calls)


def test_fuel_runs_out_inside_hook_idioms_identically(
        instrumented_contracts):
    for module, abi, instrumentation in instrumented_contracts:
        used = _fuel_used(module, abi, instrumentation)
        for fuel in range(used + 2):
            outcome = _assert_engines_agree(module, abi, instrumentation,
                                            fuel=fuel)
            trapped = outcome[2] is not None \
                and outcome[2].startswith("TrapOutOfFuel")
            assert trapped == (fuel < used)


@pytest.mark.parametrize("deadline_s", [-1.0, 3600.0])
def test_deadline_probe_inside_hook_idioms_identically(
        instrumented_contracts, deadline_s):
    """With 2048 + q fuel the first ``fuel & 2047`` deadline probe
    falls on the q-th instruction: an expired deadline traps there, a
    distant one lets the run go on past the probe."""
    for module, abi, instrumentation in instrumented_contracts:
        used = _fuel_used(module, abi, instrumentation)
        for q in range(1, used + 1):
            outcome = _assert_engines_agree(
                module, abi, instrumentation, fuel=2048 + q,
                deadline_s=deadline_s)
            if deadline_s < 0:
                assert outcome[2].startswith("TrapDeadline")
                assert outcome[3] == 2048
            else:
                assert outcome[3] == 2048 + q - used


def test_trace_budgets_trip_at_every_hook_identically(
        instrumented_contracts):
    for module, abi, instrumentation in instrumented_contracts:
        events = _apply_fingerprint(module, abi, False, instrumentation)[0]
        totals = list(accumulate(16 + 8 * (1 + len(event.operands))
                                 for event in events))
        cases = [{"max_trace_events": count}
                 for count in range(len(events) + 1)]
        cases += [{"max_trace_bytes": total - below}
                  for total in totals for below in (1, 0)]
        for limits in cases:
            outcome = _assert_engines_agree(module, abi, instrumentation,
                                            **limits)
            if outcome[2] is not None \
                    and outcome[2].startswith("TrapResourceLimit"):
                assert len(outcome[0]) < len(events)


@pytest.mark.parametrize("name,module",
                         build_resource_hostile_modules())
def test_resource_hostile_traps_identical(name, module):
    outcomes = {}
    for translate in (False, True):
        limits = ExecutionLimits(fuel=20_000, max_memory_pages=64,
                                 translate=translate)
        instance = Instance(module, limits=limits)
        try:
            result = instance.invoke("attack", [])
            outcome = ("ok", tuple(result))
        except Trap as exc:
            outcome = (type(exc).__name__, str(exc))
        outcomes[translate] = (outcome, instance.fuel,
                               len(instance.memory))
    assert outcomes[False] == outcomes[True], f"diverged on {name}"


def _null_imports(module):
    """Permissive host stubs so import-bearing mutants can execute."""
    imports = {}
    for imp in module.imports:
        if imp.kind != "func":
            continue
        func_type = module.types[imp.desc]
        results = tuple(0.0 if t.is_float else 0
                        for t in func_type.results)
        imports[(imp.module, imp.name)] = HostFunc(
            func_type, lambda inst, args, _r=results: list(_r))
    return imports


def test_hostile_mutants_differential():
    """Structural mutants that survive parsing and validation must
    execute identically under both engines."""
    checked = 0
    for sample in build_hostile_corpus(mutants=120):
        try:
            module = parse_module(sample.data)
            validate_module(module)
        except Exception:
            continue
        imports = _null_imports(module)
        exports = [e for e in module.exports if e.kind == "func"][:2]
        for export in exports:
            func_type = module.function_type(export.index)
            args = [0.0 if t.is_float else 0 for t in func_type.params]
            outcomes = {}
            for translate in (False, True):
                limits = ExecutionLimits(fuel=50_000,
                                         max_memory_pages=64,
                                         translate=translate)
                try:
                    instance = Instance(module, imports, limits=limits)
                    result = instance.invoke(export.name, list(args))
                    outcome = ("ok", tuple(result), instance.fuel)
                except Trap as exc:
                    outcome = (type(exc).__name__, str(exc))
                except Exception as exc:
                    outcome = ("error", type(exc).__name__)
                outcomes[translate] = outcome
            assert outcomes[False] == outcomes[True], \
                f"mutant {sample.name}:{export.name} diverged"
            checked += 1
    assert checked > 0, "no hostile mutant survived to be executed"


def test_translation_cache_memoises(monkeypatch):
    """Translations live on the instance that runs them: repeated
    applies through one ``InstanceTemplate`` translate each executed
    function once, a deployment on a fresh chain translates afresh
    (even of the same instrumented module, redeployed from its
    ``Instrumentation``), and no translated step carries closure
    cells."""
    import repro.wasm.translate as translate
    calls = []
    original = translate.translated_function

    def counting(module, func):
        calls.append(id(func))
        return original(module, func)
    monkeypatch.setattr(translate, "translated_function", counting)
    sample = build_table4_corpus(scale=0.01)[0]

    def deploy_and_apply(times, instrumentation=None):
        chain = setup_chain(limits=ExecutionLimits(translate=True))
        target = deploy_target(chain, "victim", sample.module,
                               sample.contract.abi, instrumentation)
        for _ in range(times):
            chain.push_action(target.account, N("transfer"),
                              [target.account], b"\x00" * 32)
        contract = chain.get_contract(target.account)
        return (target.instrumentation, contract.module,
                contract._template.instance._translations)

    instrumentation, module, translations = deploy_and_apply(3)
    assert translations
    assert sorted(calls) == sorted(translations)
    local = {id(func) for func in module.functions}
    assert set(translations) <= local
    compiled = [code for code in translations.values() if code is not None]
    assert compiled
    for code in compiled:
        assert all(step.__closure__ is None for step in code.steps)

    first = sorted(calls)
    calls.clear()
    _, again, fresh = deploy_and_apply(3, instrumentation)
    assert again is module      # the first deploy's instrumentation
    assert fresh is not translations
    assert sorted(calls) == sorted(fresh) == first
