"""Storage integrity: row checksums, corruption detection, the
quarantine-and-rebuild path and the disk budget.

Corruption is seeded through the deterministic ``store`` data-plane
fault (the write lands with a poisoned checksum, exactly like bit rot
under the row) — no sleeps, no randomness.
"""

import pytest

from repro.resilience import Fault, install_fault_plan
from repro.service import (ArtifactStore, ScanService, ScanServiceConfig,
                           StoreBudgetExceeded, StoreCorruption,
                           content_checksum)


def test_content_checksum_is_length_prefixed():
    # "ab"+"c" and "a"+"bc" concatenate identically; the length prefix
    # must still tell them apart (classic ambiguity bug).
    assert content_checksum("ab", "c") != content_checksum("a", "bc")
    assert content_checksum(b"x", "y") == content_checksum(b"x", "y")


def test_clean_roundtrip_verifies(tmp_path):
    store = ArtifactStore(tmp_path / "a.db")
    store.put_module("h1", b"\x00asm")
    store.put_verdict("k1", "h1", {"tool": "wasai"}, {"scans": {}})
    assert store.get_module("h1") == b"\x00asm"
    assert store.get_verdict("k1") == {"scans": {}}
    report = store.verify_integrity()
    assert all(not entry["corrupt"] for entry in report.values())
    store.close()


def test_corrupt_row_raises_typed_on_read(tmp_path):
    store = ArtifactStore(tmp_path / "a.db")
    install_fault_plan(Fault(stage="store", kind="corrupt", times=1))
    store.put_verdict("k1", "h1", {}, {"scans": {}})
    with pytest.raises(StoreCorruption) as excinfo:
        store.get_verdict("k1")
    assert excinfo.value.table == "verdicts"
    # Other rows are untouched.
    store.put_module("h2", b"ok")
    assert store.get_module("h2") == b"ok"
    report = store.verify_integrity()
    assert len(report["verdicts"]["corrupt"]) == 1
    assert not report["modules"]["corrupt"]
    store.close()


def test_drain_checkpoints_are_checksummed(tmp_path):
    store = ArtifactStore(tmp_path / "a.db")
    store.put_pending("k0", {"module_hash": "h0"})
    install_fault_plan(Fault(stage="store", kind="corrupt", times=1))
    store.put_pending("k1", {"module_hash": "h1"})
    assert store.counts()["pending"] == 2
    assert store.verify_integrity()["pending"]["corrupt"] == ["k1"]
    with pytest.raises(StoreCorruption) as excinfo:
        store.pending()
    assert excinfo.value.table == "pending"
    store.close()


def test_mangled_sqlite_image_raises_typed(tmp_path):
    path = tmp_path / "a.db"
    store = ArtifactStore(path)
    store.put_module("h1", b"data")
    store.close()
    raw = bytearray(path.read_bytes())
    raw[0:16] = b"not a database!!"
    path.write_bytes(bytes(raw))
    with pytest.raises(StoreCorruption):
        reopened = ArtifactStore(path)
        reopened.get_module("h1")


def test_disk_budget_is_typed_backpressure(tmp_path):
    budget = 128 * 1024     # leaves headroom over the empty-schema size
    store = ArtifactStore(tmp_path / "a.db", max_bytes=budget)
    with pytest.raises(StoreBudgetExceeded) as excinfo:
        store.put_module("big", b"\x7f" * (512 * 1024))
    assert excinfo.value.budget_bytes == budget
    # The store keeps serving within budget.
    store.put_module("small", b"ok")
    assert store.get_module("small") == b"ok"
    store.close()


def _seeded_service(tmp_path) -> tuple[ScanService, str]:
    """A stopped service whose store holds one logged verdict whose
    at-rest row is corrupt (seeded via the store fault)."""
    service = ScanService(
        store=str(tmp_path / "s.db"),
        config=ScanServiceConfig(workers=1))
    verdict = {"scans": {}, "degraded": [], "errors": {}}
    install_fault_plan(Fault(stage="store", kind="corrupt", times=1))
    service.store.put_verdict("key-1", "hash-1", {"tool": "wasai"},
                              verdict)
    return service, "key-1"


def test_service_quarantines_and_rebuilds_from_journal(tmp_path):
    service, key = _seeded_service(tmp_path)
    try:
        # The healing wrapper detects the corrupt row mid-read, swaps
        # in a fresh store rebuilt from the verdict log and retries.
        doc = service._healed(lambda: service.store.get_verdict(key))
        assert doc == {"scans": {}, "degraded": [], "errors": {}}
        corpses = list(tmp_path.glob("s.db.corrupt-*"))
        assert len(corpses) == 1        # the corrupt image, kept aside
        resilience = service.stats()["resilience"]
        assert resilience["integrity_repairs"] == 1
        assert resilience["store_recoveries"] == 1
        # The rebuilt store is fully clean.
        report = service.store.verify_integrity()
        assert all(not entry["corrupt"] for entry in report.values())
    finally:
        service.store.close()


def test_integrity_sweep_repairs_on_demand(tmp_path):
    service, key = _seeded_service(tmp_path)
    try:
        sweep = service.integrity_sweep(repair=True)
        assert sweep["repaired"] is True
        assert sweep["corrupt_rows"] == 0
        assert service.store.get_verdict(key) is not None
        # A second sweep finds a clean store and repairs nothing.
        again = service.integrity_sweep(repair=True)
        assert again["repaired"] is False
        assert again["corrupt_rows"] == 0
    finally:
        service.store.close()


def test_disk_budget_sheds_submission_typed(tmp_path, sample_contract):
    from repro.service import QueueFull
    data, abi = sample_contract
    service = ScanService(
        store=str(tmp_path / "s.db"),
        config=ScanServiceConfig(workers=1, store_max_bytes=4096))
    try:
        with pytest.raises(QueueFull) as excinfo:
            service.submit_bytes(data, abi)
        assert excinfo.value.kind == "disk"
        assert excinfo.value.retry_after_s > 0
        assert service.stats()["shed"] == 1
    finally:
        service.store.close()
