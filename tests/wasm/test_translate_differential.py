"""Differential testing: translated vs generic interpreter.

The direct-threaded translation layer (``repro.wasm.translate``) is an
optimisation, not a second semantics: every observable — traces, trap
types and messages, remaining fuel, memory, verdicts — must be
byte-identical to the generic reference interpreter in
``repro.wasm.interpreter``.  These tests run the Table 4/5 corpus and
the hostile corpora through both engines and assert exactly that.
"""

from __future__ import annotations

import pytest

from repro.benchgen.corpus import build_table4_corpus, obfuscated_variant
from repro.benchgen.hostile import (build_hostile_corpus,
                                    build_resource_hostile_modules)
from repro.engine.deploy import deploy_target, setup_chain
from repro.eosio.chain import Action, ApplyContext, WasmContract
from repro.eosio.errors import ChainError
from repro.eosio.host import build_host_imports
from repro.eosio.name import N
from repro.harness import run_wasai
from repro.instrument import instrument_module
from repro.wasm import (ExecutionLimits, HostFunc, Instance, Trap,
                        parse_module, validate_module)


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


def _apply_fingerprint(module, abi, translate: bool):
    """One apply() of the instrumented contract: the full hook trace,
    the host-call journal, the outcome and the remaining fuel."""
    instrumented, site_table = instrument_module(module)
    contract = WasmContract(instrumented, abi, site_table)
    limits = ExecutionLimits(translate=translate)
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
