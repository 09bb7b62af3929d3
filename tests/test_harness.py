"""Tests for the evaluation harness."""

import gc
import itertools
import types
import weakref

import pytest

import repro.engine.deploy as deploy
import repro.engine.fuzzer as fuzzer
from repro import ContractConfig, build_rq1_contracts, generate_contract
from repro.benchgen import build_table4_corpus
from repro.harness import (evaluate_corpus, run_eosafe, run_eosfuzzer,
                           run_wasai)
from repro.parallel import CampaignTask, run_campaign_task
from repro.resilience import DeadlineExceeded
from repro.scanner import synthesize_exploits, verify_exploit


@pytest.fixture(scope="module")
def contract():
    return generate_contract(ContractConfig(seed=4, fake_eos_guard=False))


def test_run_wasai_returns_complete_run(contract):
    run = run_wasai(contract.module, contract.abi, timeout_ms=8_000)
    assert run.report.iterations > 0
    assert run.scan.detected("fake_eos")
    assert run.target.account == run.report.target_account


def test_run_eosfuzzer_uses_eosfuzzer_oracles(contract):
    run = run_eosfuzzer(contract.module, contract.abi, timeout_ms=8_000)
    finding = run.scan.findings["missauth"]
    assert "no MissAuth oracle" in finding.evidence


def test_run_eosafe_is_static(contract):
    result = run_eosafe(contract.module)
    assert result.detected("fake_eos")


def test_runs_are_deterministic(contract):
    first = run_wasai(contract.module, contract.abi, timeout_ms=6_000,
                      rng_seed=9)
    second = run_wasai(contract.module, contract.abi, timeout_ms=6_000,
                       rng_seed=9)
    assert first.report.iterations == second.report.iterations
    assert first.report.covered == second.report.covered
    assert first.scan.detected_types() == second.scan.detected_types()


def test_evaluate_corpus_builds_all_tables():
    samples = build_table4_corpus(scale=0.004)
    tables = evaluate_corpus(samples, timeout_ms=6_000)
    assert set(tables) == {"wasai", "eosfuzzer", "eosafe"}
    for table in tables.values():
        assert table.total().total == len(samples)


def test_evaluate_corpus_tool_subset():
    samples = build_table4_corpus(scale=0.004)
    tables = evaluate_corpus(samples, tools=("eosafe",),
                             timeout_ms=6_000)
    assert set(tables) == {"eosafe"}


def _cyclic_garbage(call) -> int:
    """How many objects only the garbage collector can free once
    ``call()`` has returned and its result is dropped."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(scope="module")
def maze():
    return build_rq1_contracts(count=3, seed=1)[0]


@pytest.fixture(scope="module")
def table4_exploit():
    for sample in build_table4_corpus(scale=0.004):
        if not sample.label:
            continue
        run = run_wasai(sample.module, sample.contract.abi,
                        timeout_ms=8_000)
        exploits = synthesize_exploits(run.report, run.scan)
        if exploits:
            return exploits[0], sample
    pytest.fail("no Table 4 finding produced an exploit")


@pytest.mark.parametrize("tool", [run_wasai, run_eosfuzzer],
                         ids=["run_wasai", "run_eosfuzzer"])
def test_finished_campaign_leaves_no_cyclic_garbage(tool, maze):
    """A campaign's chain, transaction log, linear memories and
    translations die with it, freed by reference counting."""
    assert _cyclic_garbage(lambda: tool(maze.module, maze.abi)) == 0


def test_campaign_cut_short_leaves_no_cyclic_garbage(maze, monkeypatch):
    """The same holds when the caller's deadline cuts the campaign
    short after the contract ran.  The fuzzer's wall clock reads 0 s
    four times (campaign start, the check before set-up, the checks
    before rounds one and two), then 2 s, past the 1 s deadline."""
    readings = itertools.chain([0.0] * 4, itertools.repeat(2.0))
    monkeypatch.setattr(fuzzer, "time",
                        types.SimpleNamespace(time=lambda: next(readings)))
    messages = []

    def cut_short():
        try:
            run_wasai(maze.module, maze.abi, deadline_epoch_s=1.0)
        except DeadlineExceeded as exc:
            messages.append(str(exc))
    assert _cyclic_garbage(cut_short) == 0
    assert messages == ["[deadline] caller deadline passed mid-campaign "
                        "after 2 rounds"]


def test_exploit_replay_leaves_no_cyclic_garbage(table4_exploit):
    exploit, sample = table4_exploit
    verified = []
    assert _cyclic_garbage(lambda: verified.append(verify_exploit(
        exploit, sample.module, sample.contract.abi))) == 0
    assert verified == [True]


def _instrumented_modules(monkeypatch) -> list:
    """Weak references to every module ``instrument_module`` returns
    from now on, recorded where the benchmark tracer patches it."""
    refs = []
    original = deploy.instrument_module

    def recording(module):
        instrumented, site_table = original(module)
        refs.append(weakref.ref(instrumented))
        return instrumented, site_table
    monkeypatch.setattr(deploy, "instrument_module", recording)
    return refs


def test_instrumented_module_dies_with_its_campaign(maze, monkeypatch):
    """No process-wide state keeps an instrumented module: reference
    counting frees it once its campaign task returns, and once a
    ``run_wasai`` caller drops the run."""
    refs = _instrumented_modules(monkeypatch)
    task = CampaignTask(maze.module, maze.abi, ("wasai", "eosfuzzer"),
                        timeout_ms=6_000, rng_seed=1)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = run_campaign_task(task)
        assert set(result.scans) == {"wasai", "eosfuzzer"}
        assert len(refs) == 1 and refs[0]() is None
        run = run_wasai(maze.module, maze.abi, timeout_ms=6_000)
        assert len(refs) == 2 and refs[1]() is not None
        del run
        assert refs[1]() is None
    finally:
        if enabled:
            gc.enable()


def test_exploit_replay_reuses_the_campaign_instrumentation(
        contract, monkeypatch):
    """``wasai scan --exploits`` replays each finding on a fresh chain
    with the campaign's instrumented module instead of a new rewrite."""
    run = run_wasai(contract.module, contract.abi, timeout_ms=8_000)
    exploits = synthesize_exploits(run.report, run.scan)
    assert exploits
    refs = _instrumented_modules(monkeypatch)
    assert all(verify_exploit(exploit, contract.module, contract.abi,
                              instrumentation=run.target.instrumentation)
               for exploit in exploits)
    assert refs == []
