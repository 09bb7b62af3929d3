"""Fleet coordinator invariants: exactly-once under membership
change, zombie-claim discard after a steal, and replica catch-up over
a truncated verdict log.

The fleet here is three in-process nodes — the same backends the
``fleet`` chaos schedule drives — so every scenario runs real
scheduler/store/log code with no sockets and no sleeps beyond
actual campaign time.
"""

import time

import pytest

from repro.benchgen import ContractConfig, generate_contract
from repro.service import (BackendUnavailable, FleetConfig,
                           InProcessBackend, QueueFull, QuotaExceeded,
                           ScanFleet, ScanService, ScanServiceConfig,
                           TenantBook, UnknownApiKey)
from repro.wasm import encode_module

from .conftest import FAST_TIMEOUT_MS

_WAIT_S = 90.0


def _contract(seed: int) -> tuple[bytes, str]:
    # Bounded maze depth (unlike conftest.contract_bytes) because the
    # shard-placement search below probes many seeds.
    generated = generate_contract(
        ContractConfig(seed=seed, fake_eos_guard=False,
                       maze_depth=2 + seed % 4))
    return encode_module(generated.module), generated.abi.to_json()


def _node(name: str, tmp_path, workers: int = 1) -> InProcessBackend:
    service = ScanService(
        store=str(tmp_path / f"{name}.db"),
        config=ScanServiceConfig(workers=workers, max_depth=32,
                                 poll_s=0.02,
                                 default_timeout_ms=FAST_TIMEOUT_MS))
    return InProcessBackend(name, service)


def _seeds_for(fleet: ScanFleet, node: str, count: int,
               start: int) -> list[int]:
    seeds, seed = [], start
    while len(seeds) < count:
        data, _abi = _contract(seed)
        if fleet.owner_of(data)[1] == node:
            seeds.append(seed)
        seed += 1
        assert seed - start < 500, "pathologically skewed ring"
    return seeds


@pytest.fixture
def fleet(tmp_path):
    backends = [_node(f"n{i}", tmp_path) for i in range(3)]
    fleet = ScanFleet(backends, config=FleetConfig(
        steal_threshold=2, steal_batch=4))
    yield fleet
    fleet.stop()


# -- routing ----------------------------------------------------------------

def test_submissions_route_to_ring_owner_and_dedup_stays_sharded(fleet):
    fleet.start()
    first = {}
    for node in ("n0", "n1", "n2"):
        seed = _seeds_for(fleet, node, 1, start=0)[0]
        data, abi = _contract(seed)
        doc = fleet.submit(data, abi, client="route")
        assert doc["node"] == node
        first[node] = (seed, doc["fleet_id"])
    seed, fleet_id = first["n0"]
    done = fleet.wait(fleet_id, timeout_s=_WAIT_S)
    assert done["state"] == "done"
    again = fleet.submit(*_contract(seed), client="route-redo")
    assert again["node"] == "n0" and again["outcome"] == "cached"
    assert again["result"] == done["result"]


# -- exactly-once under membership change -----------------------------------

@pytest.mark.parametrize("kill_timing", ["inflight", "queued"])
def test_node_kill_fails_over_each_job_exactly_once(fleet,
                                                    kill_timing):
    victim = "n1"
    if kill_timing == "inflight":
        # Workers everywhere: the victim is mid-campaign when killed.
        fleet.start()
    else:
        # Workers only on the survivors: every victim job is still
        # queued (and unclaimed) at kill time — fully deterministic.
        for name, backend in fleet.backends.items():
            if name != victim:
                backend.start()
    seeds = _seeds_for(fleet, victim, 3, start=0)
    docs = [fleet.submit(*_contract(seed), client="kill-load")
            for seed in seeds]
    pre_terminal = {doc["fleet_id"]
                    for doc in docs
                    if fleet._jobs[doc["fleet_id"]].terminal_doc}
    fleet.backends[victim].kill()
    assert fleet.check_nodes() == [victim]
    for doc in docs:
        final = fleet.wait(doc["fleet_id"], timeout_s=_WAIT_S)
        assert final["state"] == "done"
        assert final["node"] != victim
        record = fleet._jobs[doc["fleet_id"]]
        expected = 0 if doc["fleet_id"] in pre_terminal else 1
        assert record.failovers == expected, \
            f"{doc['fleet_id']} failed over {record.failovers}x"
        # The survivor that answered is the ring's post-change owner.
        key = record.recipe["module_hash"]
        assert final["node"] == fleet.ring.owner(key)
        # Terminal answers are cached fleet-side: ask again, get the
        # identical doc even though the original node is gone.
        assert fleet.job(doc["fleet_id"]) == final
    assert fleet.stats()["failovers"] == len(docs) - len(pre_terminal)


def test_steal_then_zombie_claim_is_discarded(fleet):
    # No workers at all: jobs stay queued/unclaimed, so which jobs the
    # steal takes — and what the zombie later touches — is exact.
    victim = "n0"
    seeds = _seeds_for(fleet, victim, 4, start=0)
    docs = [fleet.submit(*_contract(seed), client="steal-load")
            for seed in seeds]
    victim_service = fleet.backends[victim].service
    node_jobs = [victim_service.job(
        fleet._jobs[doc["fleet_id"]].node_job_id) for doc in docs]
    zombie_token = "scan-worker-0#1"   # a long-revoked worker claim
    moved = fleet.rebalance_once()
    assert moved == 4
    for doc, job in zip(docs, node_jobs):
        assert job.state == "stolen" and job.terminal
        assert job.claim is not None and job.claim != zombie_token
        record = fleet._jobs[doc["fleet_id"]]
        assert record.node != victim and record.stolen == 1
        # The zombie wakes up and reports a result for the job it
        # thinks it still owns: the claim check throws it away.
        victim_service._job_failed(job, zombie_token,
                                   "zombie waking up late")
        assert job.state == "stolen", \
            "a revoked claim overwrote a stolen job"
    fleet.start()
    for doc in docs:
        final = fleet.wait(doc["fleet_id"], timeout_s=_WAIT_S)
        assert final["state"] == "done" and final["node"] != victim
    assert fleet.stats()["jobs_stolen"] == 4


# -- replication ------------------------------------------------------------

def test_replica_rejoin_replays_a_truncated_journal(fleet):
    fleet.start()
    seeds = _seeds_for(fleet, "n0", 2, start=0)
    results = {}
    for seed in seeds:
        doc = fleet.submit(*_contract(seed), client="replica")
        results[seed] = fleet.wait(doc["fleet_id"],
                                   timeout_s=_WAIT_S)["result"]
    # First pass ships n0's two verdicts to both peers...
    assert fleet.replicate_once() >= 4
    # ...and the advanced cursor makes the next pass a no-op.
    assert fleet.replicate_once() == 0
    # Now n2 partitions away while n0's log is compacted down to
    # one line (crash-truncation and compaction look identical to the
    # shipping cursor: the file got shorter).
    fleet.partition(["n2"])
    journal_path = fleet.backends["n0"].service.store.log.path
    lines = journal_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) >= 2
    journal_path.write_text(lines[0] + "\n", encoding="utf-8")
    # The cursor is now past EOF: shipping resets to zero and replays
    # the whole log — and idempotent application makes the replay
    # free on peers that already hold the verdict.
    entries, new_cursor = \
        fleet.backends["n0"].ship_journal(10_000_000)
    assert len(entries) == 1
    assert new_cursor == len(lines[0]) + 1
    healed_applied = fleet.heal()
    # The rejoined n2 already replicated both verdicts before the
    # partition, so replaying the truncated log applies nothing
    # new — catch-up converged without double-writing.
    assert healed_applied == 0
    # A verdict scanned while n2 was gone DOES arrive on heal.
    fleet.partition(["n2"])
    extra_seed = _seeds_for(fleet, "n0", 3, start=0)[2]
    doc = fleet.submit(*_contract(extra_seed), client="partition-era")
    final = fleet.wait(doc["fleet_id"], timeout_s=_WAIT_S)
    assert final["node"] != "n2"
    assert fleet.heal() >= 1
    replayed = fleet.backends["n2"].submit(*_contract(extra_seed))
    assert replayed["outcome"] == "cached"
    assert replayed["result"] == final["result"]


def test_replica_picks_up_a_reverdict_rewrite(tmp_path):
    primary = InProcessBackend("p", ScanService(
        store=str(tmp_path / "p.db"),
        config=ScanServiceConfig(workers=1, poll_s=0.02,
                                 default_timeout_ms=FAST_TIMEOUT_MS,
                                 capture_traces=True)))
    replica = _node("r", tmp_path)
    primary.start()
    try:
        doc = primary.submit(*_contract(0))
        doc = primary.service.job(doc["id"])
        deadline = time.monotonic() + _WAIT_S
        while not doc.terminal and time.monotonic() < deadline:
            time.sleep(0.02)
        assert doc.state == "done"
        entries, cursor = primary.ship_journal(0)
        assert replica.apply_replica_verdicts(entries) == 1
        # The sweep rewrites the verdict on the primary only; the next
        # shipped batch carries the rewrite to the replica.
        primary.service.reverdict(oracle_version=99)
        entries, cursor = primary.ship_journal(cursor)
        assert replica.apply_replica_verdicts(entries) == 1
        verdict = replica.service.store.get_verdict(doc.scan_key)
        assert verdict["provenance"]["oracle_version"] == 99
        assert verdict == primary.service.store.get_verdict(doc.scan_key)
    finally:
        primary.stop()
        replica.stop()


def test_a_peers_own_scan_never_reverts_a_reverdict(tmp_path):
    nodes = [InProcessBackend(name, ScanService(
        store=str(tmp_path / f"{name}.db"),
        config=ScanServiceConfig(workers=1, poll_s=0.02,
                                 default_timeout_ms=FAST_TIMEOUT_MS,
                                 capture_traces=True)))
        for name in ("p", "r")]
    for node in nodes:
        node.start()
    try:
        # Both nodes scan the same module (say, routing moved it).
        for node in nodes:
            doc = node.service.job(node.submit(*_contract(0))["id"])
            deadline = time.monotonic() + _WAIT_S
            while not doc.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
            assert doc.state == "done"
        primary, replica = nodes
        # p re-verdicts its copy; the rewrite reaches r...
        primary.service.reverdict(oracle_version=99)
        rewritten = primary.service.store.get_verdict(doc.scan_key)
        assert rewritten["provenance"]["oracle_version"] == 99
        entries, _ = primary.ship_journal(0)
        assert replica.apply_replica_verdicts(entries) == 1
        # ...and r's own scan, reshipped from cursor 0, never reverts
        # it on p (nor does p's reshipped log change r again).
        assert primary.apply_replica_verdicts(
            replica.ship_journal(0)[0]) == 0
        assert replica.apply_replica_verdicts(entries) == 0
        for node in nodes:
            assert node.service.store.get_verdict(doc.scan_key) \
                == rewritten
    finally:
        for node in nodes:
            node.stop()


# -- admission --------------------------------------------------------------

def test_fleet_admission_enforces_keys_rates_and_quotas(tmp_path):
    clock = {"t": 0.0}
    book = TenantBook(require_key=True, clock=lambda: clock["t"])
    book.register("team", "team-key", rate_per_s=1.0, burst=2)
    fleet = ScanFleet([_node("solo", tmp_path)], tenants=book)
    try:
        data, abi = _contract(0)
        for _ in range(2):          # the full burst fits
            fleet.submit(data, abi, api_key="team-key")
        with pytest.raises(QuotaExceeded) as excinfo:
            fleet.submit(data, abi, api_key="team-key")
        assert excinfo.value.kind == "quota"
        assert excinfo.value.retry_after_s == pytest.approx(1.0)
        clock["t"] += 1.0           # one token refills
        doc = fleet.submit(data, abi, api_key="team-key")
        assert doc["tenant"] == "team"
        with pytest.raises(UnknownApiKey):
            fleet.submit(data, abi, api_key=None)
        with pytest.raises(UnknownApiKey):
            fleet.submit(data, abi, api_key="wrong")
        assert book.snapshot()["team"]["admitted"] == 3
        assert book.snapshot()["team"]["shed"] == 1
    finally:
        fleet.stop()


def test_fleet_refunds_a_submission_no_node_accepts(tmp_path):
    book = TenantBook(require_key=True)
    book.register("team", "team-key", max_submissions=1)
    node = _node("solo", tmp_path)
    fleet = ScanFleet([node], tenants=book)
    try:
        data, abi = _contract(0)
        node.service.drain(wait_s=0.1)  # the only owner sheds: 429
        with pytest.raises(QueueFull):
            fleet.submit(data, abi, api_key="team-key")
        node.kill()                     # no live owner at all
        with pytest.raises(BackendUnavailable):
            fleet.submit(data, abi, api_key="team-key")
        # Neither refusal spent the tenant's one submission.
        assert book.snapshot()["team"]["admitted"] == 0
    finally:
        fleet.stop()


def test_partition_refuses_anything_but_a_strict_minority(fleet):
    with pytest.raises(ValueError):
        fleet.partition(["n0", "n1"])
    with pytest.raises(ValueError):
        fleet.partition(["n0", "n1", "n2"])
    fleet.partition(["n2"])         # 1 of 3: allowed
    assert fleet.live_nodes() == ["n0", "n1"]
    fleet.heal()
    assert fleet.live_nodes() == ["n0", "n1", "n2"]
