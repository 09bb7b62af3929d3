"""The coordinator/worker seam: hash-ring placement, the in-process
backend's typed death, steal semantics, and a child-process node
reached over real HTTP.
"""

import time

import pytest

from repro.service import (BackendUnavailable, HashRing,
                           InProcessBackend, NodePartitioned,
                           ProcessBackend, ScanService,
                           ScanServiceConfig, ServiceApi, module_hash_of)

from .conftest import FAST_TIMEOUT_MS, contract_bytes


def _service(**overrides) -> ScanService:
    knobs = dict(workers=1, max_depth=16, poll_s=0.02,
                 default_timeout_ms=FAST_TIMEOUT_MS)
    knobs.update(overrides)
    return ScanService(config=ScanServiceConfig(**knobs))


# -- the ring ---------------------------------------------------------------

def test_ring_placement_is_deterministic_and_join_order_free():
    forward = HashRing(["n0", "n1", "n2"])
    shuffled = HashRing(["n2", "n0", "n1"])
    keys = [f"module-{i:04d}" for i in range(300)]
    assert [forward.owner(k) for k in keys] \
        == [shuffled.owner(k) for k in keys]


def test_ring_membership_change_remaps_only_moved_arcs():
    before = HashRing(["n0", "n1", "n2"])
    after = HashRing(["n0", "n1", "n2", "n3"])
    keys = [f"module-{i:04d}" for i in range(1000)]
    moved = [k for k in keys if before.owner(k) != after.owner(k)]
    # Ideal is 1/4 of the keyspace; anything near a full reshuffle
    # means placement depends on more than (membership, replicas).
    assert 0 < len(moved) < 500
    # Every remapped key landed on the new node: the old nodes'
    # remaining arcs were untouched, which is what makes rebalancing
    # on membership change deterministic and minimal.
    assert all(after.owner(k) == "n3" for k in moved)
    # Removal is the exact inverse.
    shrunk = HashRing(["n0", "n1", "n2", "n3"])
    shrunk.remove("n3")
    assert [shrunk.owner(k) for k in keys] \
        == [before.owner(k) for k in keys]


def test_ring_owners_walk_is_the_distinct_failover_order():
    ring = HashRing(["n0", "n1", "n2"])
    walk = ring.owners("some-module", 3)
    assert sorted(walk) == ["n0", "n1", "n2"]
    assert walk[0] == ring.owner("some-module")


def test_empty_ring_is_typed_unavailable():
    with pytest.raises(BackendUnavailable):
        HashRing([]).owner("key")


def test_module_hash_of_is_the_stable_shard_key(sample_contract):
    data, _abi = sample_contract
    key = module_hash_of(data)
    assert key == module_hash_of(data)
    other, _abi2 = contract_bytes(seed=1)
    assert key != module_hash_of(other)


# -- in-process backend -----------------------------------------------------

def test_inprocess_backend_round_trip():
    backend = InProcessBackend("n0", _service())
    backend.start()
    try:
        data, abi = contract_bytes(seed=0)
        doc = backend.submit(data, abi, client="seam")
        deadline = time.monotonic() + 60
        while doc.get("state") not in ("done", "failed"):
            assert time.monotonic() < deadline
            time.sleep(0.02)
            doc = backend.job(doc["id"])
        assert doc["state"] == "done" and doc.get("result")
        assert backend.health()["status"] in ("ok", "idle")
        assert backend.queue_depth() == 0
    finally:
        backend.stop()


def test_inprocess_job_doc_is_the_http_job_doc():
    backend = InProcessBackend("n0", _service())
    backend.start()
    try:
        data, abi = contract_bytes(seed=0)
        job_id = backend.submit(data, abi)["id"]
        deadline = time.monotonic() + 60
        while backend.job(job_id)["state"] != "done":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        status, body = ServiceApi(backend.service).handle(
            "GET", f"/scans/{job_id}")
        assert status == 200 and "verdict" in body
        assert backend.job(job_id) == body
    finally:
        backend.stop()


def test_killed_inprocess_backend_is_typed_unavailable():
    backend = InProcessBackend("n0", _service())
    backend.start()
    backend.kill()
    assert not backend.alive
    data, abi = contract_bytes(seed=0)
    with pytest.raises(BackendUnavailable):
        backend.submit(data, abi)
    with pytest.raises(BackendUnavailable):
        backend.health()
    # Partition control must keep working on an unreachable node so
    # chaos can always heal what it broke.
    backend.set_partitioned(True, "drill")
    backend.set_partitioned(False)


def test_steal_takes_only_unclaimed_jobs_and_stamps_thief_claims():
    # Workers never started: every submission stays queued and
    # unclaimed, so the steal accounting is fully deterministic.
    service = _service()
    backend = InProcessBackend("n0", service)
    docs = [backend.submit(*contract_bytes(seed=seed), client="load")
            for seed in range(3)]
    assert backend.queue_depth() == 3
    recipes = backend.steal(2, thief="fleet:n1")
    assert len(recipes) == 2 and backend.queue_depth() == 1
    for recipe in recipes:
        # Self-contained: module bytes + ABI + config travel with it.
        assert recipe["module"] and recipe["abi"]
        assert recipe["scan_key"] and recipe["config"]
        victim_copy = service.job(recipe["job_id"])
        assert victim_copy.state == "stolen"
        assert victim_copy.claim.startswith("fleet:n1#")
        assert victim_copy.terminal
    stolen_ids = {recipe["job_id"] for recipe in recipes}
    survivor = [doc for doc in docs
                if doc["id"] not in stolen_ids]
    assert len(survivor) == 1
    assert service.job(survivor[0]["id"]).state == "queued"
    assert service.stats()["fleet"]["stolen_away"] == 2


def test_partitioned_service_refuses_writes_serves_stale_reads():
    service = _service()
    backend = InProcessBackend("n0", service)
    backend.start()
    try:
        data, abi = contract_bytes(seed=0)
        doc = backend.submit(data, abi)
        backend.set_partitioned(True, "minority side of a split")
        with pytest.raises(NodePartitioned) as excinfo:
            backend.submit(*contract_bytes(seed=1))
        assert excinfo.value.retry_after_s > 0
        health = backend.health()
        assert health["status"] == "partitioned"
        assert health["stale"] is True and not health["accepting"]
        # Reads keep flowing — stale-marked, never refused.
        assert backend.job(doc["id"]) is not None
        assert backend.stats()["stale"] is True
        backend.set_partitioned(False)
        assert backend.health()["stale"] is False
    finally:
        backend.stop()


# -- child-process backend --------------------------------------------------

def test_process_backend_boots_scans_and_dies_for_real(tmp_path):
    backend = ProcessBackend(
        "p0", str(tmp_path),
        config=dict(workers=1, max_depth=8, poll_s=0.02,
                    default_timeout_ms=FAST_TIMEOUT_MS))
    backend.start()
    try:
        assert backend.alive
        assert backend.health()["status"] in ("ok", "idle")
        data, abi = contract_bytes(seed=0)
        doc = backend.submit(data, abi, client="proc")
        deadline = time.monotonic() + 90
        while doc.get("state") not in ("done", "failed"):
            assert time.monotonic() < deadline
            time.sleep(0.05)
            doc = backend.job(doc["id"])
        assert doc["state"] == "done"
        backend.kill()              # SIGKILL: real process death
        assert not backend.alive
        with pytest.raises(BackendUnavailable):
            backend.health()
    finally:
        backend.stop()
