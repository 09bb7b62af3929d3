"""The append-only checkpoint journal."""

import json

from repro import ContractConfig, generate_contract
from repro.parallel.campaigns import CampaignResult, CampaignTask
from repro.resilience import CampaignJournal
from repro.resilience.journal import (campaign_result_from_doc,
                                      campaign_result_to_doc,
                                      campaign_task_key)
from repro.scanner.detectors import ScanResult, VulnerabilityFinding


def _scan() -> ScanResult:
    scan = ScanResult(target_account=42)
    scan.findings["fake_eos"] = VulnerabilityFinding(
        "fake_eos", True, "transfer accepted from eosponser")
    scan.findings["rollback"] = VulnerabilityFinding("rollback", False)
    return scan


def _result() -> CampaignResult:
    return CampaignResult(scans={"wasai": _scan()},
                          stage_seconds={"fuzz": 1.5},
                          errors={"eosafe": {"type": "ScanError",
                                             "stage": "scan",
                                             "message": "[scan] boom"}},
                          degraded=("wasai",),
                          retries=1)


def test_record_load_round_trip(tmp_path):
    journal = CampaignJournal(tmp_path / "journal.jsonl")
    journal.record("k1", campaign_result_to_doc(_result()))
    entries = journal.load()
    assert set(entries) == {"k1"}
    revived = campaign_result_from_doc(entries["k1"]["result"])
    assert revived.scans["wasai"].detected("fake_eos")
    assert not revived.scans["wasai"].detected("rollback")
    assert revived.scans["wasai"].findings["fake_eos"].evidence \
        == "transfer accepted from eosponser"
    assert revived.stage_seconds == {"fuzz": 1.5}
    assert revived.errors["eosafe"]["stage"] == "scan"
    assert revived.degraded == ("wasai",)
    assert revived.retries == 1


def test_last_entry_wins(tmp_path):
    journal = CampaignJournal(tmp_path / "journal.jsonl")
    journal.record("k", {"scans": {}, "retries": 0})
    journal.record("k", {"scans": {}, "retries": 7})
    assert journal.load()["k"]["result"]["retries"] == 7


def test_load_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = CampaignJournal(path)
    journal.record("good", {"scans": {}})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "key": "torn", "resu')  # killed mid-write
    assert set(journal.load()) == {"good"}


def test_load_skips_foreign_versions_and_noise(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text('\n'.join([
        '{"base": 123}',
        '{"v": 99, "key": "future", "result": {}}',
        '[1, 2, 3]',
        '',
        '{"v": 1, "key": "ok", "result": {"scans": {}}}',
    ]) + '\n')
    assert set(CampaignJournal(path).load()) == {"ok"}


def test_missing_file_loads_empty(tmp_path):
    assert CampaignJournal(tmp_path / "absent.jsonl").load() == {}


def test_journal_lines_are_plain_json(tmp_path):
    path = tmp_path / "journal.jsonl"
    CampaignJournal(path).record("k", campaign_result_to_doc(_result()))
    for line in path.read_text().splitlines():
        assert json.loads(line)["v"] == 1


def test_campaign_task_key_tracks_result_determinants():
    contract = generate_contract(ContractConfig(seed=4))
    other = generate_contract(ContractConfig(seed=5,
                                             fake_eos_guard=False))

    def task(**overrides):
        fields = dict(module=contract.module, abi=contract.abi,
                      tools=("wasai",), timeout_ms=6000.0, rng_seed=7)
        fields.update(overrides)
        return CampaignTask(**fields)

    base = campaign_task_key(task())
    assert campaign_task_key(task()) == base  # stable
    assert campaign_task_key(task(rng_seed=8)) != base
    assert campaign_task_key(task(timeout_ms=7000.0)) != base
    assert campaign_task_key(task(tools=("wasai", "eosafe"))) != base
    assert campaign_task_key(task(address_pool=True)) != base
    assert campaign_task_key(task(module=other.module)) != base
    # ... but not things that cannot change the result:
    assert campaign_task_key(task(sample_key="renamed[0]")) == base


# One decoded verdict doc with every field set.  Stored verdicts,
# ``<store>.jsonl`` lines and ``--journal`` lines are this encoding, so
# it is pinned byte for byte.  The doc also carries keys that older
# lines hold: the four ``*_cache_*`` counters and ``worker_id``, and
# the four ``*_disk_*`` counters before them; it loads and re-encodes
# without them.
_FULL_DOC = {
    "scans": {"wasai": {"account": 42, "divergences": ["f3+7"],
                        "findings": {
                            "fake_eos": {"detected": True,
                                         "evidence": "transfer accepted"},
                            "rollback": {"detected": False,
                                         "evidence": ""}}}},
    "stage_seconds": {"setup": 0.25, "fuzz": 1.5},
    "instr_cache_hits": 1, "instr_cache_misses": 2,
    "solver_cache_hits": 3, "solver_cache_misses": 4,
    "instr_disk_hits": 5, "instr_disk_misses": 6,
    "solver_disk_hits": 7, "solver_disk_misses": 8,
    "worker_id": 4242,
    "errors": {"eosafe": {"type": "ScanError", "stage": "scan",
                          "message": "boom"}},
    "degraded": ["wasai"], "retries": 1,
    "coverage": {"wasai": {"iterations": 6, "covered": 16,
                           "timeline": [[43.0, 3]]}},
    "traces": {"wasai": "AHBhY2s="},
    "provenance": {"oracle_version": 2, "source": "fresh"},
}


def test_result_doc_encoding_is_pinned():
    result = campaign_result_from_doc(_FULL_DOC)
    assert result.traces == {"wasai": b"\x00pack"}
    assert json.dumps(campaign_result_to_doc(result), sort_keys=True) == (
        '{"coverage": {"wasai": {"covered": 16, "iterations": 6, '
        '"timeline": [[43.0, 3]]}}, "degraded": ["wasai"], "errors": '
        '{"eosafe": {"message": "boom", "stage": "scan", "type": '
        '"ScanError"}}, "provenance": {"oracle_version": 2, "source": '
        '"fresh"}, "retries": 1, "scans": {"wasai": {"account": 42, '
        '"divergences": ["f3+7"], "findings": {"fake_eos": {"detected": '
        'true, "evidence": "transfer accepted"}, "rollback": {"detected": '
        'false, "evidence": ""}}}}, "stage_seconds": {"fuzz": 1.5, '
        '"setup": 0.25}, "traces": {"wasai": "AHBhY2s="}}')
