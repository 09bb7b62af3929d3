"""Integration tests for the WASAI fuzzing loop (Algorithm 1)."""

import random

import pytest

from repro.benchgen import ContractConfig, generate_contract
from repro.engine import WasaiFuzzer, deploy_target, setup_chain
from repro.scanner import scan_report


def fuzz(config: ContractConfig, timeout_ms=15_000, seed=11,
         feedback=True):
    chain = setup_chain()
    generated = generate_contract(config)
    target = deploy_target(chain, config.account, generated.module,
                           generated.abi)
    fuzzer = WasaiFuzzer(chain, target, rng=random.Random(seed),
                         timeout_ms=timeout_ms, feedback=feedback)
    report = fuzzer.run()
    return generated, target, report


def test_campaign_produces_observations():
    _, _, report = fuzz(ContractConfig(seed=1))
    assert report.iterations > 10
    assert report.observations
    kinds = {o.payload_kind for o in report.observations}
    assert {"legit", "fake_notif"} <= kinds


def test_eosponser_located_from_legit_payment():
    generated, target, report = fuzz(ContractConfig(seed=2))
    assert report.eosponser_id is not None
    # It must be a local function of the module (not an import).
    assert report.eosponser_id >= target.module.num_imported_functions


def test_coverage_timeline_is_monotonic():
    _, _, report = fuzz(ContractConfig(seed=3, maze_depth=3))
    counts = [c for _, c in report.coverage_timeline]
    assert counts == sorted(counts)
    times = [t for t, _ in report.coverage_timeline]
    assert times == sorted(times)


def test_feedback_increases_coverage():
    config = ContractConfig(seed=4, maze_depth=4)
    _, _, with_feedback = fuzz(config, timeout_ms=30_000)
    _, _, without = fuzz(config, timeout_ms=30_000, feedback=False)
    assert with_feedback.adaptive_seeds > 0
    assert len(with_feedback.covered) > len(without.covered)


def test_transaction_dependency_resolved_via_dbg():
    # db_dependency=True means the eosponser asserts on a table only
    # init writes; the DBG must schedule init so transfer progresses.
    config = ContractConfig(seed=5, db_dependency=True,
                            reward_scheme="inline")
    _, target, report = fuzz(config, timeout_ms=30_000)
    deep = [o for o in report.observations
            if o.action_name == "transfer" and o.success
            and any(c.api == "send_inline" for c in o.record.host_calls)]
    assert deep, "transfer never got past the db-dependency assert"


def test_adaptive_seeds_solve_verification_guards():
    from repro.benchgen import inject_verification, VerificationSpec
    config = ContractConfig(seed=6, reward_scheme="inline")
    generated = generate_contract(config)
    spec = VerificationSpec(amount=31_415_926)
    module = inject_verification(generated.module, spec)
    chain = setup_chain()
    target = deploy_target(chain, "victim", module, generated.abi)
    fuzzer = WasaiFuzzer(chain, target, rng=random.Random(7),
                         timeout_ms=30_000)
    report = fuzzer.run()
    passing = [o for o in report.observations
               if o.action_name == "transfer" and o.success
               and o.payload_kind == "legit"]
    assert passing, "the solver should synthesise the exact quantity"
    amounts = {o.executed_params[2].amount for o in passing}
    assert 31_415_926 in amounts


def test_solver_budget_limits_feedback():
    config = ContractConfig(seed=8, maze_depth=3)
    chain = setup_chain()
    generated = generate_contract(config)
    target = deploy_target(chain, "victim", generated.module,
                           generated.abi)
    fuzzer = WasaiFuzzer(chain, target, rng=random.Random(9),
                         timeout_ms=15_000, smt_max_conflicts=1)
    report = fuzzer.run()  # must not crash with a tiny budget
    assert report.iterations > 0


def test_report_observations_of_filters():
    _, _, report = fuzz(ContractConfig(seed=10))
    legit = report.observations_of("legit")
    assert all(o.payload_kind == "legit" for o in legit)


def test_float_param_action_does_not_end_the_campaign():
    """A float64 action parameter, which the contract never dispatches,
    used to end the campaign with ``unsupported ABI type 'float64'``:
    the fuzzer built a seed layout for every observation, outside its
    feedback containment."""
    from repro.eosio import AbiAction, AbiParam
    from repro.harness import run_wasai
    generated = generate_contract(ContractConfig(seed=4))
    generated.abi.actions["setrate"] = AbiAction(
        "setrate", (AbiParam("rate", "float64"),))
    run = run_wasai(generated.module, generated.abi, timeout_ms=4000)
    assert any(o.action_name == "setrate"
               for o in run.report.observations)
    assert not run.report.contained


def test_scan_integrates_with_fuzzer():
    generated, target, report = fuzz(
        ContractConfig(seed=12, fake_eos_guard=False))
    result = scan_report(report, target)
    assert result.detected("fake_eos")
    assert generated.ground_truth["fake_eos"]
