"""ArtifactStore: content addressing, round-trips, persistence."""

import threading

from repro.scanner.detectors import ScanResult, VulnerabilityFinding
from repro.parallel.campaigns import CampaignResult
from repro.resilience import (campaign_result_from_doc,
                              campaign_result_to_doc)
from repro.service import ArtifactStore


def _result(detected: bool = True) -> CampaignResult:
    scan = ScanResult(target_account=7)
    scan.findings["fake_eos"] = VulnerabilityFinding(
        "fake_eos", detected, "evidence line")
    return CampaignResult(
        scans={"wasai": scan},
        stage_seconds={"setup": 0.1, "fuzz": 0.5, "scan": 0.01},
        coverage={"wasai": {"iterations": 42, "covered": 9,
                            "timeline": [[0.0, 1], [1.5, 9]]}})


def test_module_round_trip_and_idempotence():
    store = ArtifactStore(":memory:")
    store.put_module("h1", b"\x00asm contents")
    store.put_module("h1", b"different")  # first write wins
    assert store.get_module("h1") == b"\x00asm contents"
    assert store.get_module("missing") is None
    assert store.counts()["modules"] == 1


def test_verdict_round_trip_is_byte_identical():
    store = ArtifactStore(":memory:")
    doc = campaign_result_to_doc(_result())
    store.put_verdict("key", "h1", {"tool": "wasai"}, doc)
    fetched = store.get_verdict("key")
    assert fetched == doc
    rehydrated = campaign_result_from_doc(fetched)
    assert rehydrated.scans["wasai"] == _result().scans["wasai"]
    assert rehydrated.coverage == _result().coverage


def test_coverage_and_quarantine_tables():
    store = ArtifactStore(":memory:")
    timeline = {"wasai": {"timeline": [[0.0, 1], [2.0, 5]]}}
    store.put_coverage("key", timeline)
    assert store.get_coverage("key") == timeline
    store.put_quarantine("bad", "h2", ["crash", "crash again"])
    assert store.get_quarantine("bad") == ["crash", "crash again"]
    assert store.quarantined_keys() == ["bad"]


def test_persistence_across_reopen(tmp_path):
    path = tmp_path / "artifacts.db"
    store = ArtifactStore(path)
    doc = campaign_result_to_doc(_result())
    store.put_module("h1", b"bytes")
    store.put_verdict("key", "h1", {"tool": "wasai"}, doc)
    store.close()
    reopened = ArtifactStore(path)
    assert reopened.get_module("h1") == b"bytes"
    assert reopened.get_verdict("key") == doc
    reopened.close()


def test_concurrent_writers_do_not_corrupt(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts.db")
    errors = []

    def write(index: int) -> None:
        try:
            for i in range(20):
                store.put_module(f"h{index}-{i}", b"x" * 64)
        except Exception as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(n,))
               for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert store.counts()["modules"] == 80
    store.close()


def _doc(version: int, source: str = "fresh", **per_run) -> dict:
    """A verdict doc stamped like a fresh scan or a re-verdict."""
    return {"scans": {}, "provenance": {"oracle_version": version,
                                        "source": source}, **per_run}


def test_replay_brings_each_key_to_its_last_logged_state(tmp_path):
    source = ArtifactStore(tmp_path / "source.db")
    source.put_verdict("a", "ha", {}, _doc(2))
    source.put_verdict("b", "hb", {}, _doc(2))
    source.put_verdict("a", "ha", {}, _doc(99, "replay"))  # re-verdict
    source.delete_verdict("b")                              # drop
    entries = list(source.log.load().values())
    replica = ArtifactStore(tmp_path / "replica.db")
    replica.put_verdict("a", "ha", {}, _doc(2, worker_id=7))
    replica.put_verdict("b", "hb", {}, _doc(2))
    assert replica.replay(entries) == 2        # a rewritten, b dropped
    assert replica.get_verdict("a") == _doc(99, "replay")
    assert replica.get_verdict("b") is None
    assert replica.replay(entries) == 0        # already converged
    # Replaying never writes the replica's own log.
    assert len(replica.log.path.read_text().splitlines()) == 2
    # A rebuild from the source's own log restores the last states.
    rebuilt = ArtifactStore(tmp_path / "rebuilt.db")
    assert rebuilt.replay(source.log.load().values()) == 1
    assert rebuilt.get_verdict("a") == _doc(99, "replay")
    assert rebuilt.get_verdict("b") is None


def test_an_older_line_never_reverts_a_reverdict(tmp_path):
    # Two stores scanned the same key; their docs differ only in
    # per-run fields.  Store a then re-verdicts it.
    a = ArtifactStore(tmp_path / "a.db")
    b = ArtifactStore(tmp_path / "b.db")
    a.put_verdict("k", "h", {}, _doc(2, worker_id=1))
    b.put_verdict("k", "h", {}, _doc(2, worker_id=2))
    assert a.replay(b.log.load().values()) == 0  # a peer's scan never lands
    a.put_verdict("k", "h", {}, _doc(99, "replay"))
    a.compact_log()
    assert b.replay(a.log.load().values()) == 1  # the rewrite reaches b
    # b's log replayed again leaves the rewrite standing, and so does
    # another store's drop of an older row.
    c = ArtifactStore(tmp_path / "c.db")
    c.put_verdict("k", "h", {}, _doc(2))
    c.delete_verdict("k")
    for peer in (b, c):
        assert a.replay(peer.log.load().values()) == 0
        assert a.get_verdict("k") == _doc(99, "replay")
    assert b.get_verdict("k") == _doc(99, "replay")
    # Only a newer re-verdict rewrites a held row.
    b.put_verdict("k", "h", {}, _doc(100, "replay"))
    assert a.replay(b.log.load().values()) == 1
    assert a.get_verdict("k") == _doc(100, "replay")


def test_compaction_keeps_the_last_line_per_key(tmp_path):
    store = ArtifactStore(tmp_path / "s.db")
    for key in "abc":
        store.put_verdict(key, "h", {}, _doc(2))
    store.put_verdict("a", "h", {}, _doc(99, "replay"))
    assert store.compact_log() == 1
    fresh = [f"new-{index}" for index in range(4)]
    for key in fresh + ["d"]:
        store.put_verdict(key, "h", {}, _doc(2))
    assert store.compact_log() == 0
    entries = store.log.load()
    assert set(entries) == {"a", "b", "c", "d", *fresh}
    assert entries["a"]["result"]["verdict"]["result"] \
        == _doc(99, "replay")
