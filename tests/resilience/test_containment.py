"""End-to-end containment: injected stage faults must be retried,
degraded or quarantined — and must never disturb fault-free samples.

The corpus subset here is four samples (two fake_eos, two fake_notif);
sample keys follow ``{vuln_type}[{index}]``, so ``fake_eos[0]`` scopes
a fault to the first sample only.
"""

import pytest

from repro import (ContractConfig, Fault, ResiliencePolicy, ThroughputStats,
                   build_table4_corpus, generate_contract,
                   install_fault_plan)
from repro.harness import evaluate_corpus, run_wasai

TIMEOUT_MS = 6_000
TOOLS = ("wasai", "eosfuzzer", "eosafe")


@pytest.fixture(scope="module")
def samples():
    return build_table4_corpus(scale=0.004)[:4]


@pytest.fixture(scope="module")
def clean_tables(samples):
    return evaluate_corpus(samples, tools=TOOLS, timeout_ms=TIMEOUT_MS)


def _assert_other_rows_identical(tables, clean_tables, faulted="fake_eos"):
    for tool, table in tables.items():
        for vuln_type, confusion in table.per_type.items():
            if vuln_type == faulted:
                continue
            assert confusion == clean_tables[tool].per_type[vuln_type], \
                f"{tool}/{vuln_type} drifted under an unrelated fault"


# Which tools reach which pipeline stage (eosafe is static: scan only).
STAGE_TOOLS = {
    "instrument": ("wasai", "eosfuzzer"),
    "deploy": ("wasai", "eosfuzzer"),
    "fuzz": ("wasai", "eosfuzzer"),
    "scan": ("wasai", "eosfuzzer", "eosafe"),
}


@pytest.mark.parametrize("stage", sorted(STAGE_TOOLS))
def test_hard_stage_fault_skips_only_that_sample(stage, samples,
                                                clean_tables):
    install_fault_plan(Fault(stage=stage, kind="error",
                             match="fake_eos[0]",
                             message=f"{stage} is down"))
    tables = evaluate_corpus(samples, tools=TOOLS, timeout_ms=TIMEOUT_MS)
    for tool in STAGE_TOOLS[stage]:
        reasons = tables[tool].skipped.get("fake_eos", [])
        assert len(reasons) == 1
        assert f"{stage} is down" in reasons[0]
        assert "fake_eos[0]" in reasons[0]
        assert tables[tool].total().total == len(samples) - 1
        assert "skipped" in tables[tool].format()
    for tool in set(TOOLS) - set(STAGE_TOOLS[stage]):
        assert not tables[tool].skipped
        assert tables[tool].total().total == len(samples)
    _assert_other_rows_identical(tables, clean_tables)


@pytest.mark.parametrize("stage", ["symback", "solve"])
def test_symbolic_stage_fault_degrades_instead_of_skipping(
        stage, samples, clean_tables):
    install_fault_plan(Fault(stage=stage, kind="error"))
    tables = evaluate_corpus(samples, tools=TOOLS, timeout_ms=TIMEOUT_MS)
    for tool, table in tables.items():
        assert not table.skipped
        assert table.total().total == len(samples)
    # Black-box campaigns and the baselines never consult the symbolic
    # side, so their rows cannot move.
    for tool in ("eosfuzzer", "eosafe"):
        for vuln_type, confusion in tables[tool].per_type.items():
            assert confusion == clean_tables[tool].per_type[vuln_type]


def test_transient_fault_is_retried_and_leaves_no_trace(samples,
                                                        clean_tables):
    install_fault_plan(Fault(stage="scan", kind="transient", times=1,
                             match="fake_eos[0]"))
    perf = ThroughputStats()
    tables = evaluate_corpus(samples, tools=TOOLS, timeout_ms=TIMEOUT_MS,
                             perf=perf)
    assert perf.retries >= 1
    for tool, table in tables.items():
        assert not table.skipped
        assert table.format() == clean_tables[tool].format()


def test_solver_loss_degrades_to_black_box_and_still_detects():
    """The ISSUE acceptance path: a sample whose solver always fails
    must complete via black-box degradation (and the blatant fake_eos
    hole is still reachable without symbolic feedback)."""
    install_fault_plan(Fault(stage="solve", kind="error"))
    contract = generate_contract(ContractConfig(seed=4,
                                                fake_eos_guard=False))
    run = run_wasai(contract.module, contract.abi, timeout_ms=8_000)
    assert run.report.degraded
    assert any("degraded to black-box" in note
               for note in run.report.contained)
    assert run.report.iterations > 0
    assert run.scan.detected("fake_eos")


def _fuzz_seed4_contract():
    contract = generate_contract(ContractConfig(seed=4,
                                                fake_eos_guard=False))
    return run_wasai(contract.module, contract.abi, timeout_ms=8_000,
                     rng_seed=3).report


def test_every_observation_reaches_the_symback_chokepoint():
    """A trace with nothing left to flip is not replayed, but it still
    passes the symback fault chokepoint, once per observation."""
    plan = install_fault_plan(Fault(stage="symback", kind="count"))
    report = _fuzz_seed4_contract()
    assert (plan.hits("symback"), len(report.observations)) == (97, 97)


@pytest.mark.parametrize("after, expected", [
    (5, (True, 81, 151, 15)),
    (40, (True, 70, 129, 15)),
    (200, (False, 53, 97, 15)),
])
def test_symback_faults_land_on_the_same_observations(after, expected):
    """(degraded, iterations, observations, covered) under a symback
    fault window, pinned to what the campaign gave when every trace
    was replayed: skipping replays moves no fault."""
    install_fault_plan(Fault(stage="symback", kind="error", after=after,
                             times=3))
    report = _fuzz_seed4_contract()
    assert (report.degraded, report.iterations, len(report.observations),
            len(report.covered)) == expected


def test_fuzzer_contains_trap_storms():
    install_fault_plan(Fault(stage="trap", kind="trap_storm", times=2))
    contract = generate_contract(ContractConfig(seed=4,
                                                fake_eos_guard=False))
    run = run_wasai(contract.module, contract.abi, timeout_ms=8_000)
    assert sum("execute:" in note for note in run.report.contained) == 2
    assert not run.report.degraded
    assert run.scan.detected("fake_eos")


def test_crashing_sample_is_quarantined_and_listed(samples):
    """A sample that crashes its worker three times lands in quarantine
    and shows up in the metrics table — never silently dropped."""
    install_fault_plan(Fault(stage="fuzz", kind="crash",
                             match="fake_eos[0]"))
    policy = ResiliencePolicy(max_retries=2, quarantine_after=3)
    perf = ThroughputStats()
    tables = evaluate_corpus(samples[:2], tools=("wasai",),
                             timeout_ms=TIMEOUT_MS, jobs=2,
                             policy=policy, perf=perf)
    table = tables["wasai"]
    assert table.total().total == 1          # the healthy sample
    reasons = table.skipped["fake_eos"]
    assert len(reasons) == 1
    assert "quarantined after 3 failures" in reasons[0]
    assert "fake_eos[0]" in reasons[0]
    assert "quarantined after 3 failures" in table.format()
    assert perf.failures == 3
    assert perf.retries == 2
    assert perf.quarantined == 1


def test_task_timeout_is_typed_and_counted_as_skipped(samples):
    install_fault_plan(Fault(stage="scan", kind="hang", hang_s=30.0,
                             match="fake_eos[0]"))
    policy = ResiliencePolicy(max_retries=0)
    perf = ThroughputStats()
    tables = evaluate_corpus(samples[:2], tools=("eosafe",),
                             timeout_ms=TIMEOUT_MS, jobs=2,
                             task_timeout_s=1.5, policy=policy, perf=perf)
    table = tables["eosafe"]
    assert table.total().total == 1
    reasons = table.skipped["fake_eos"]
    assert len(reasons) == 1 and "timeout after 1.5s" in reasons[0]
    assert perf.failures == 1
    assert perf.quarantined == 0
