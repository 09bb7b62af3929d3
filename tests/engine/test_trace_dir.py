"""Test the offline trace-file redirect inside the fuzzer (§3.3.1)."""

import random

from repro.benchgen import ContractConfig, generate_contract
from repro.engine import WasaiFuzzer, deploy_target, setup_chain
from repro.scanner import scan_report


def test_fuzzer_with_offline_traces(tmp_path):
    config = ContractConfig(seed=41, fake_eos_guard=False)
    generated = generate_contract(config)
    chain = setup_chain()
    target = deploy_target(chain, "victim", generated.module,
                           generated.abi)
    fuzzer = WasaiFuzzer(chain, target, rng=random.Random(1),
                         timeout_ms=8_000, trace_dir=tmp_path)
    report = fuzzer.run()
    trace_files = list(tmp_path.glob("trace-*.tir"))
    assert trace_files, "each observation should flush an offline file"
    assert len(trace_files) == len(report.observations)
    # Detection works identically through the offline path.
    assert scan_report(report, target).detected("fake_eos")
