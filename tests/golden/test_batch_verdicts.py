"""Golden batch verdicts: per-sample outcomes pinned to a committed file.

Tables 4, 5 (obfuscated) and 6 (verification) at a small fixed scale
run through ``evaluate_corpus`` with all three tools, trace capture and
a journal.  Each table's ``format()`` is pinned, and so is every
sample's outcome per tool, read back from the journal: the five oracle
bits, the covered-branch count, whether the campaign degraded, the
error type and stage, and the sha256 of the trace-IR pack.  For one
contract the whole campaign doc is pinned under three injected faults
and as a breaker-forced black-box task.

A refactor that claims to change no verdict must leave this file
untouched.  An intended change regenerates it and the diff shows what
moved::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden -q
"""

import base64
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro import (Fault, build_table4_corpus, clear_fault_plan,
                   install_fault_plan, obfuscated_variant,
                   verification_variant)
from repro.benchgen import VULN_TYPES
from repro.engine import configure_instrumentation_cache
from repro.harness import evaluate_corpus
from repro.parallel import CampaignTask, run_campaign_task
from repro.resilience import (CampaignJournal, campaign_result_to_doc,
                              campaign_task_key)
from repro.sharedcache import configure_shared_cache, shared_cache_dir
from repro.smt import configure_solver_cache

GOLDEN = Path(__file__).with_name("batch_verdicts.json")
SCALE = 0.004
TIMEOUT_MS = 6_000
TOOLS = ("wasai", "eosfuzzer", "eosafe")
RNG_SEED = 7    # evaluate_corpus's default; sample i runs with seed 7 + i
VARIANTS = {"table4": lambda sample: sample,
            "table5": obfuscated_variant,
            "table6": verification_variant}
FAULT_RUNS = {
    "solve_error": (Fault(stage="solve", kind="error"), False),
    "scan_transient": (Fault(stage="scan", kind="transient", times=1),
                       False),
    "deploy_error": (Fault(stage="deploy", kind="error"), False),
    "blackbox": (None, True),
}


@pytest.fixture(autouse=True)
def fresh_caches():
    """Cache counters are part of a campaign doc: start every run cold
    in memory and with no shared disk tier, and restore afterwards."""
    disk = shared_cache_dir()
    configure_shared_cache(None)
    configure_instrumentation_cache(enabled=True)
    configure_solver_cache(enabled=True)
    clear_fault_plan()
    yield
    clear_fault_plan()
    configure_instrumentation_cache(enabled=True)
    configure_solver_cache(enabled=True)
    configure_shared_cache(disk)


def _check(section: str, actual) -> None:
    """Compare ``actual`` with the golden section (or rewrite it)."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden[section] = actual
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                          + "\n")
    assert section in golden, (f"{GOLDEN.name} lacks {section!r}; "
                               "regenerate with REPRO_REGEN_GOLDEN=1")
    assert actual == golden[section]


def _tool_outcome(doc: dict, tool: str) -> str:
    """One line per sample and tool; "-" marks an absent value."""
    scan = doc["scans"].get(tool)
    error = doc["errors"].get(tool)
    trace = doc.get("traces", {}).get(tool)
    detected = "-" if scan is None else "".join(
        str(int(scan["findings"][vuln]["detected"])) for vuln in VULN_TYPES)
    covered = doc["coverage"].get(tool, {}).get("covered", "-")
    return " ".join((
        f"detected={detected}",
        f"covered={covered}",
        f"degraded={int(tool in doc['degraded'])}",
        "error=" + ("-" if error is None
                    else f"{error['type']}@{error['stage']}"),
        "trace=" + ("-" if trace is None else hashlib.sha256(
            base64.b64decode(trace)).hexdigest()),
    ))


def test_batch_verdicts_match_golden(tmp_path):
    corpus = build_table4_corpus(scale=SCALE)
    actual = {"bit_order": list(VULN_TYPES)}
    for table, variant in VARIANTS.items():
        samples = [variant(sample) for sample in corpus]
        journal = CampaignJournal(tmp_path / f"{table}.jsonl")
        tables = evaluate_corpus(samples, tools=TOOLS,
                                 timeout_ms=TIMEOUT_MS, rng_seed=RNG_SEED,
                                 capture_traces=True, journal=journal)
        entries = journal.load()
        outcomes = {}
        for index, sample in enumerate(samples):
            task = CampaignTask(sample.module, sample.contract.abi, TOOLS,
                                TIMEOUT_MS, RNG_SEED + index)
            doc = entries[campaign_task_key(task)]["result"]
            outcomes[f"{sample.vuln_type}[{index}]"] = {
                tool: _tool_outcome(doc, tool) for tool in TOOLS}
        actual[table] = {
            "tables": {tool: tables[tool].format().splitlines()
                       for tool in TOOLS},
            "samples": outcomes,
        }
    _check("batch", actual)


def test_fault_campaign_docs_match_golden():
    sample = build_table4_corpus(scale=SCALE)[0]
    actual = {}
    for name, (fault, blackbox) in FAULT_RUNS.items():
        configure_instrumentation_cache(enabled=True)
        configure_solver_cache(enabled=True)
        task = CampaignTask(sample.module, sample.contract.abi, TOOLS,
                            TIMEOUT_MS, RNG_SEED,
                            sample_key=f"{sample.vuln_type}[0]",
                            blackbox=blackbox, capture_traces=True)
        try:
            if fault is not None:
                install_fault_plan(fault)
            doc = campaign_result_to_doc(run_campaign_task(task))
        finally:
            clear_fault_plan()
        del doc["stage_seconds"], doc["worker_id"]
        if "traces" in doc:
            doc["traces"] = {
                tool: hashlib.sha256(base64.b64decode(blob)).hexdigest()
                for tool, blob in doc["traces"].items()}
        actual[name] = doc
    _check("campaigns", actual)
