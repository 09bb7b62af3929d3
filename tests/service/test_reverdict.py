"""Re-verdict pipeline: capture, replay, drift audit, quarantine.

These drive a real in-memory ScanService with trace capture on: real
campaigns store trace-IR packs, then re-verdict sweeps and drift
audits run over them with zero re-fuzzing.
"""

import time

import pytest

from repro.scanner import ORACLE_VERSION
from repro.service import ScanService, ScanServiceConfig
from repro.service.reverdict import audit_traces, reverdict_store
from repro.traceir import TRACEIR_VERSION

from .conftest import FAST_TIMEOUT_MS, contract_bytes


def _service(**config_kwargs) -> ScanService:
    service = ScanService(
        store=":memory:",
        config=ScanServiceConfig(workers=1, poll_s=0.02,
                                 default_timeout_ms=FAST_TIMEOUT_MS,
                                 capture_traces=True, **config_kwargs))
    service.start()
    return service


def _wait_terminal(service: ScanService, job_id: str,
                   timeout_s: float = 60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = service.job(job_id)
        if job is not None and job.terminal:
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never became terminal")


def _scan_one(service: ScanService, seed: int) -> str:
    data, abi = contract_bytes(seed=seed)
    submission = service.submit_bytes(data, abi)
    job = _wait_terminal(service, submission.job.job_id)
    assert job.state == "done"
    return job.scan_key


def _sans_provenance(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("provenance", None)
    return doc


def test_reverdict_reproduces_verdict_modulo_provenance():
    service = _service()
    try:
        key = _scan_one(service, seed=0)
        before = service.store.verdict_record(key)
        assert service.store.get_trace(key) is not None

        report = service.reverdict(oracle_version=ORACLE_VERSION + 1)
        assert report.replayed == 1
        assert report.rewritten == 1
        assert report.matched == 1
        assert report.drift == 0
        assert report.corrupt == 0

        after = service.store.verdict_record(key)
        assert after["result"]["provenance"] == {
            "oracle_version": ORACLE_VERSION + 1,
            "traceir_version": TRACEIR_VERSION,
            "oracles": ["fake_eos", "fake_notif", "missauth",
                        "blockinfodep", "rollback"],
            "source": "replay",
        }
        assert (_sans_provenance(after["result"])
                == _sans_provenance(before["result"]))
    finally:
        service.drain()


def test_insufficient_surface_requeued_not_drift():
    """A v2 pack stored *without* the semantic surface predates what
    the semantic families need: the sweep must count it insufficient
    and re-queue a fresh scan — never report drift, never rewrite."""
    service = _service()
    try:
        key = _scan_one(service, seed=0)
        row = service.store.get_trace(key)
        # Strip the semantic surface, as a pack captured before the
        # surface existed would be.
        from repro.traceir import decode_pack, encode_pack
        import dataclasses
        pack = decode_pack(row["blob"])
        bare = dataclasses.replace(pack, semantic=None)
        service.store.put_trace(key, row["module_hash"], row["tool"],
                                encode_pack(bare),
                                row["traceir_version"])

        report = service.reverdict(oracles="all")
        assert report.insufficient == 1
        assert report.replayed == 0
        assert report.drift == 0
        assert report.rewritten == 0
        incident = report.incidents[0]
        assert incident["kind"] == "insufficient_surface"
        assert incident["scan_key"] == key

        # The pack is gone and the verdict dropped, so resubmission
        # misses the dedup cache and fuzzes fresh.
        assert service.store.get_trace(key) is None
        assert service.store.verdict_record(key) is None
        assert service.stats()["traceir"]["insufficient_surface"] == 1
        data, abi = contract_bytes(seed=0)
        resubmission = service.submit_bytes(data, abi)
        assert resubmission.outcome == "queued"
        job = _wait_terminal(service, resubmission.job.job_id)
        assert job.state == "done"
    finally:
        service.drain()


def test_reverdict_with_semantic_families_rewrites_provenance():
    service = _service()
    try:
        key = _scan_one(service, seed=0)
        report = service.reverdict(oracles="all")
        assert report.replayed == 1
        assert report.insufficient == 0
        after = service.store.verdict_record(key)
        provenance = after["result"]["provenance"]
        assert provenance["source"] == "replay"
        assert "token_arith" in provenance["oracles"]
        assert "data_consistency" in provenance["oracles"]
    finally:
        service.drain()


def test_reverdict_job_through_scheduler():
    service = _service()
    try:
        _scan_one(service, seed=0)
        submission = service.submit_reverdict()
        job = _wait_terminal(service, submission.job.job_id)
        assert job.state == "done"
        assert job.result_doc["replayed"] == 1
        assert job.result_doc["drift"] == 0
        assert job.result_doc["oracle_version"] == ORACLE_VERSION
        stats = service.stats()["traceir"]
        assert stats["traces_stored"] == 1
        assert stats["reverdicts"] == 1
        assert stats["trace_corruptions"] == 0
        assert stats["verdict_drift"] == 0
    finally:
        service.drain()


def test_corrupt_trace_quarantined_and_module_rescannable():
    service = _service()
    try:
        key = _scan_one(service, seed=0)
        row = service.store.get_trace(key)
        blob = bytearray(row["blob"])
        blob[len(blob) // 2] ^= 0xFF
        # Re-store so the *store* checksum is valid but the codec's
        # section CRC is not: corruption the traces table can't see.
        service.store.put_trace(key, row["module_hash"], row["tool"],
                                bytes(blob), row["traceir_version"])

        report = service.reverdict()
        assert report.corrupt == 1
        assert report.replayed == 0
        incident = report.incidents[0]
        assert incident["kind"] == "trace_corruption"
        assert incident["scan_key"] == key

        assert service.store.get_trace(key) is None
        assert service.store.verdict_record(key) is None
        assert service.store.get_quarantine(key)
        assert service.stats()["traceir"]["trace_corruptions"] == 1

        # With the verdict dropped, the same bytes miss the dedup
        # cache and queue a fresh campaign.
        data, abi = contract_bytes(seed=0)
        resubmission = service.submit_bytes(data, abi)
        assert resubmission.outcome == "queued"
        job = _wait_terminal(service, resubmission.job.job_id)
        assert job.state == "done"
    finally:
        service.drain()


def test_store_rebuild_keeps_the_sweeps_rewrite_and_drop(tmp_path):
    service = ScanService(
        store=str(tmp_path / "s.db"),
        config=ScanServiceConfig(workers=1, poll_s=0.02,
                                 default_timeout_ms=FAST_TIMEOUT_MS,
                                 capture_traces=True))
    service.start()
    try:
        kept, dropped = _scan_one(service, seed=0), _scan_one(service,
                                                               seed=1)
        row = service.store.get_trace(dropped)
        blob = bytearray(row["blob"])
        blob[len(blob) // 2] ^= 0xFF
        service.store.put_trace(dropped, row["module_hash"], row["tool"],
                                bytes(blob), row["traceir_version"])
        report = service.reverdict(oracle_version=ORACLE_VERSION + 1)
        assert report.corrupt == 1 and report.rewritten == 1
        rewritten = service.store.get_verdict(kept)

        # The rebuild replays the verdict log: the rewrite survives,
        # the dropped verdict stays dropped and its module re-scans.
        assert service._recover_store("drill") == 1
        assert service.store.get_verdict(kept) == rewritten
        assert service.store.get_verdict(dropped) is None
        data, abi = contract_bytes(seed=1)
        assert service.submit_bytes(data, abi).outcome == "queued"
    finally:
        service.stop(wait_s=5)


def test_audit_detects_tampered_verdict_without_rewriting():
    service = _service()
    try:
        key = _scan_one(service, seed=0)
        record = service.store.verdict_record(key)
        tampered = dict(record["result"])
        tampered["scans"] = dict(tampered["scans"])
        (tool,) = tampered["scans"].keys()
        tampered["scans"][tool] = dict(tampered["scans"][tool])
        tampered["scans"][tool]["findings"] = {}
        service.store.put_verdict(key, record["module_hash"],
                                  record["config"], tampered)

        report = service.audit_drift(sample=4)
        assert report.drift == 1
        assert report.rewritten == 0
        incident = report.incidents[0]
        assert incident["kind"] == "verdict_drift"
        assert incident["scan_key"] == key
        assert incident["before"]["findings"] == {}
        assert incident["after"]["findings"]

        # Audit observes; it never repairs.  The tampered verdict is
        # still what the store serves.
        assert (service.store.verdict_record(key)["result"]["scans"]
                [tool]["findings"] == {})
        stats = service.stats()["traceir"]
        assert stats["verdict_drift"] == 1
        assert stats["drift_audits"] == 1
        assert any(i["kind"] == "verdict_drift"
                   for i in stats["drift_incidents"])
    finally:
        service.drain()


def test_audit_cursor_rotates_through_keys():
    service = _service()
    try:
        _scan_one(service, seed=0)
        _scan_one(service, seed=1)
        store = service.store
        report1, cursor = audit_traces(store, sample=1, cursor=0)
        assert report1.replayed == 1
        report2, cursor = audit_traces(store, sample=1, cursor=cursor)
        assert report2.replayed == 1
        assert cursor == 0  # wrapped: both keys visited exactly once
        assert report1.matched + report2.matched == 2
    finally:
        service.drain()


def test_orphaned_trace_counted_not_rewritten():
    service = _service()
    try:
        key = _scan_one(service, seed=0)
        service.store.delete_verdict(key)
        report = reverdict_store(service.store)
        assert report.replayed == 1
        assert report.orphaned == 1
        assert report.rewritten == 0
        assert service.store.verdict_record(key) is None
    finally:
        service.drain()


def test_background_auditor_counts_rounds():
    service = _service(drift_audit_s=0.05, drift_audit_sample=2)
    try:
        _scan_one(service, seed=0)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if service.stats()["traceir"]["drift_audits"] >= 2:
                break
            time.sleep(0.05)
        stats = service.stats()["traceir"]
        assert stats["drift_audits"] >= 2
        assert stats["verdict_drift"] == 0
    finally:
        service.drain()


def test_capture_off_stores_no_traces():
    service = ScanService(
        store=":memory:",
        config=ScanServiceConfig(workers=1, poll_s=0.02,
                                 default_timeout_ms=FAST_TIMEOUT_MS))
    service.start()
    try:
        key = _scan_one(service, seed=0)
        assert service.store.get_trace(key) is None
        report = service.reverdict()
        assert report.replayed == 0
        assert service.stats()["traceir"]["traces_stored"] == 0
    finally:
        service.drain()
