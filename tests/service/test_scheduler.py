"""ScanService: dedup, single-flight, backpressure, drain/resume.

These run the real pipeline (tiny virtual budgets) against in-memory
or tmp-path stores; fault injection reuses the resilience fixtures to
kill jobs mid-flight deterministically.
"""

import threading
import time

import pytest

from repro.resilience import (Fault, MalformedModule, ResiliencePolicy,
                              clear_fault_plan, install_fault_plan)
from repro.resilience.journal import campaign_result_from_doc
from repro.service import (QueueFull, ScanService, ScanServiceConfig,
                           Submission)

from .conftest import FAST_TIMEOUT_MS, contract_bytes


def _service(tmp_path=None, workers: int = 1, max_depth: int = 8,
             policy: ResiliencePolicy | None = None,
             start: bool = True,
             max_inflight: int | None = None,
             **config_kwargs) -> ScanService:
    store = str(tmp_path / "store.db") if tmp_path else ":memory:"
    service = ScanService(
        store=store,
        config=ScanServiceConfig(workers=workers, max_depth=max_depth,
                                 max_inflight=max_inflight,
                                 poll_s=0.02,
                                 default_timeout_ms=FAST_TIMEOUT_MS,
                                 **config_kwargs),
        policy=policy)
    if start:
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


def test_dedup_hit_returns_byte_identical_scan_result(sample_contract):
    data, abi = sample_contract
    service = _service()
    try:
        first = service.submit_bytes(data, abi)
        assert first.outcome == "queued"
        job = _wait_terminal(service, first.job.job_id)
        assert job.state == "done"

        second = service.submit_bytes(data, abi)
        assert second.outcome == "cached"
        assert second.job.state == "done"
        # The cached verdict is byte-identical: same JSON doc, and the
        # rehydrated ScanResult compares equal field by field.
        assert second.job.result_doc == job.result_doc
        fresh = campaign_result_from_doc(job.result_doc)
        cached = campaign_result_from_doc(second.job.result_doc)
        assert cached.scans["wasai"] == fresh.scans["wasai"]
        assert service.stats()["dedup"]["cache_hits"] == 1
    finally:
        service.stop(wait_s=5)


def test_cache_survives_process_restart(tmp_path, sample_contract):
    data, abi = sample_contract
    service = _service(tmp_path)
    try:
        submission = service.submit_bytes(data, abi)
        _wait_terminal(service, submission.job.job_id)
    finally:
        service.stop(wait_s=5)
    # A "new process": fresh service over the same store file.
    reborn = _service(tmp_path, start=False)
    try:
        hit = reborn.submit_bytes(data, abi)
        assert hit.outcome == "cached"
        assert hit.job.state == "done"
    finally:
        reborn.stop(wait_s=1)


def test_single_flight_coalesces_concurrent_submits(sample_contract):
    data, abi = sample_contract
    # Hold the one campaign open for long enough that every concurrent
    # submission demonstrably lands while it is in flight.
    install_fault_plan(Fault(stage="fuzz", kind="hang", hang_s=0.5,
                             match="burst"))
    service = _service(workers=2)
    submissions: list[Submission] = []
    errors: list[Exception] = []
    gate = threading.Barrier(6)

    def submit():
        try:
            gate.wait(timeout=10)
            submissions.append(service.submit_bytes(data, abi,
                                                    client="burst"))
        except Exception as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    try:
        threads = [threading.Thread(target=submit) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        job_ids = {s.job.job_id for s in submissions}
        assert len(job_ids) == 1  # one job serves all six submissions
        job = _wait_terminal(service, job_ids.pop())
        assert job.state == "done"
        stats = service.stats()
        # Exactly one campaign ran; every other submission coalesced
        # onto it (or, if it finished first, hit the store).
        assert stats["completed"] == 1
        assert stats["dedup"]["coalesce_hits"] == 5
        assert stats["queue_depth"] == 0
    finally:
        service.stop(wait_s=5)


def test_bounded_queue_sheds_typed(sample_contract):
    # Workers never started: jobs stay queued, so the depth bound and
    # the in-flight budget are both reachable deterministically.
    service = _service(workers=1, max_depth=2, max_inflight=2,
                       start=False)
    try:
        for seed in (1, 2):
            data, abi = contract_bytes(seed=seed)
            service.submit_bytes(data, abi)
        data, abi = contract_bytes(seed=3)
        with pytest.raises(QueueFull) as excinfo:
            service.submit_bytes(data, abi)
        assert excinfo.value.kind in ("queue", "inflight")
        assert service.stats()["shed"] == 1
        # A duplicate of an already-queued module still coalesces —
        # dedup is checked before admission control sheds.
        dup_data, dup_abi = contract_bytes(seed=1)
        duplicate = service.submit_bytes(dup_data, dup_abi)
        assert duplicate.outcome == "coalesced"
    finally:
        service.stop(wait_s=1)


def test_hostile_module_rejected_at_admission(sample_contract):
    _, abi = sample_contract
    service = _service(start=False)
    try:
        with pytest.raises(MalformedModule):
            service.submit_bytes(b"\x00asm\x04\x00\x00\x00junk", abi)
        stats = service.stats()
        assert stats["admission_rejected"] == 1
        assert stats["queue_depth"] == 0  # never occupied a worker
    finally:
        service.stop(wait_s=1)


def test_failed_job_retries_then_quarantines(sample_contract):
    data, abi = sample_contract
    # Every fuzz stage for this client dies: the job fails, is retried
    # once (max_retries=1), then crosses the quarantine threshold.
    install_fault_plan(Fault(stage="fuzz", kind="error",
                             match="doomed"))
    policy = ResiliencePolicy(max_retries=1, quarantine_after=2)
    service = _service(policy=policy)
    try:
        submission = service.submit_bytes(data, abi, client="doomed")
        job = _wait_terminal(service, submission.job.job_id)
        assert job.state == "quarantined"
        assert job.attempts == 2
        stats = service.stats()
        assert stats["quarantined"] == 1
        assert service.store.get_quarantine(job.scan_key)
    finally:
        service.stop(wait_s=5)


def test_drain_checkpoints_and_resume_replays_exactly_once(
        tmp_path, sample_contract):
    # A worker "crash" mid-job (simulated ^C from the fault plan) plus
    # two jobs that never got a worker: drain must checkpoint the
    # queued ones, and resume must replay each exactly once.
    service = _service(tmp_path, start=False)
    submitted = {}
    try:
        for seed in (1, 2):
            data, abi = contract_bytes(seed=seed)
            submission = service.submit_bytes(data, abi, client="c")
            submitted[seed] = submission.job.scan_key
        checkpointed = service.drain(wait_s=1)
        assert checkpointed == 2
    finally:
        service.store.close()

    # Daemon restart: same store.
    resumed = _service(tmp_path, start=False)
    try:
        assert resumed.resume() == 2
        assert resumed.stats()["queue_depth"] == 2
        # Replayed jobs carry the same scan keys as the originals.
        with resumed._lock:
            keys = {job.scan_key for job in resumed._jobs.values()}
        assert keys == set(submitted.values())
        # Exactly once: a second resume finds no checkpoint left.
        assert resumed.resume() == 0
        resumed.start()
        with resumed._lock:
            job_ids = list(resumed._jobs)
        for job_id in job_ids:
            assert _wait_terminal(resumed, job_id).state == "done"
    finally:
        resumed.stop(wait_s=5)
    # Third service over the same store: still nothing to replay.
    third = _service(tmp_path, start=False)
    try:
        assert third.resume() == 0
    finally:
        third.store.close()


def test_default_store_checkpoints_at_stop_and_resumes_at_start(
        tmp_path):
    # No option beyond a file store: stop() checkpoints the queued
    # jobs into it, and the next service on that store runs them as
    # part of start().
    service = _service(tmp_path, start=False)
    keys = set()
    try:
        for seed in (1, 2):
            data, abi = contract_bytes(seed=seed)
            keys.add(service.submit_bytes(data, abi).job.scan_key)
    finally:
        assert service.stop(wait_s=1) == 2

    resumed = _service(tmp_path)
    try:
        with resumed._lock:
            jobs = list(resumed._jobs.values())
        assert {job.scan_key for job in jobs} == keys
        for job in jobs:
            assert _wait_terminal(resumed, job.job_id).state == "done"
    finally:
        resumed.stop(wait_s=5)
    third = _service(tmp_path, start=False)
    try:
        assert third.resume() == 0
    finally:
        third.store.close()


def test_reverdict_refusal_is_booked_like_every_shed():
    service = _service(max_depth=1, start=False)
    try:
        service.submit_reverdict()
        with pytest.raises(QueueFull) as excinfo:
            service.submit_reverdict()
        assert excinfo.value.kind == "queue"
        stats = service.stats()
        assert stats["shed"] == 1
        assert stats["shed_by_kind"] == {"queue": 1}
    finally:
        service.stop(wait_s=1)


def test_killed_worker_job_requeued_exactly_once(sample_contract):
    data, abi = sample_contract
    # The first worker to claim a job dies on the spot (a BaseException
    # that sails past every except-Exception layer); the watchdog must
    # reap it, requeue the claimed job exactly once and restart a
    # worker — the job still completes.
    install_fault_plan(Fault(stage="worker", kind="kill", times=1))
    service = _service(workers=1, watchdog_poll_s=0.05,
                       restart_backoff_s=0.0)
    try:
        submission = service.submit_bytes(data, abi)
        job = _wait_terminal(service, submission.job.job_id)
        assert job.state == "done"
        assert job.requeues == 1
        stats = service.stats()
        assert stats["supervisor"]["reaps"]["died"] >= 1
        assert stats["resilience"]["worker_restarts"] >= 1
        assert service.health()["status"] == "ok"
    finally:
        service.stop(wait_s=5)


def test_hung_worker_claim_revoked_and_job_requeued(sample_contract):
    data, abi = sample_contract
    # The first worker wedges past the task deadline; the watchdog
    # abandons it (claim revoked — the zombie's eventual result is
    # discarded) and a replacement finishes the job.
    install_fault_plan(Fault(stage="worker", kind="hang", hang_s=1.0,
                             times=1))
    service = _service(workers=1, task_deadline_s=0.2,
                       watchdog_poll_s=0.05, restart_backoff_s=0.0)
    try:
        submission = service.submit_bytes(data, abi)
        job = _wait_terminal(service, submission.job.job_id)
        assert job.state == "done"
        assert job.requeues == 1
        assert service.stats()["supervisor"]["reaps"]["hung"] >= 1
        fingerprint = job.result_doc
        time.sleep(1.2)             # let the zombie wake and finish
        assert job.state == "done"
        assert job.result_doc == fingerprint   # zombie write discarded
    finally:
        service.stop(wait_s=5)


def test_open_breaker_forces_blackbox_and_never_caches(
        tmp_path, sample_contract):
    data, abi = sample_contract
    # A deterministically dead solver: the first campaign degrades
    # internally, trips the stage breaker (threshold 1), and the *next*
    # job is forced black-box before it even starts.  Neither degraded
    # verdict may be cached — the store would otherwise serve the
    # weaker answer forever.
    install_fault_plan(Fault(stage="solve", kind="error"))
    service = _service(tmp_path, workers=1, breaker_threshold=1,
                       breaker_cooldown_s=60.0)
    try:
        first = service.submit_bytes(data, abi, client="one")
        job1 = _wait_terminal(service, first.job.job_id)
        assert job1.state == "done"
        assert "wasai" in job1.result_doc.get("degraded", [])
        # Degraded inside its own campaign (the breaker was still
        # closed at dispatch): in neither the store nor its log.
        assert service.store.get_verdict(job1.scan_key) is None
        assert job1.scan_key not in service.store.log.load()
        assert service.health()["status"] == "degraded"
        assert "solve" in service.health()["breakers"]["open"]
        assert service.stats()["resilience"]["breaker_trips"] >= 1

        other_data, other_abi = contract_bytes(seed=7)
        second = service.submit_bytes(other_data, other_abi)
        job2 = _wait_terminal(service, second.job.job_id)
        assert job2.state == "done"
        assert "wasai" in job2.result_doc.get("degraded", [])
        # Not cached: a resubmission after recovery gets the full run.
        assert service.store.get_verdict(job2.scan_key) is None
        assert service.stats()["resilience"]["forced_blackbox"] >= 1

        # The solver recovers: the internally degraded answer is not
        # served as the full one — the module is scanned afresh.
        clear_fault_plan()
        again = service.submit_bytes(data, abi, client="one")
        assert again.outcome == "queued"
        assert "degraded" not in (again.job.result_doc or {})
    finally:
        service.stop(wait_s=5)


def test_queued_job_expires_after_ttl(sample_contract):
    data, abi = sample_contract
    service = _service(workers=1, start=False)
    try:
        submission = service.submit_bytes(data, abi, ttl_s=0.05)
        time.sleep(0.1)             # TTL elapses with no worker around
        service.start()             # first queue poll sweeps it
        job = _wait_terminal(service, submission.job.job_id)
        # The TTL is a deadline: one clock, one terminal state.
        assert job.state == "deadline_exceeded"
        assert "deadline" in (job.error or "")
        stats = service.stats()
        assert stats["deadline_exceeded"] == 1
        assert stats["jobs"].get("deadline_exceeded") == 1
    finally:
        service.stop(wait_s=5)


def test_drain_under_load_resumes_every_job_exactly_once(tmp_path):
    """The SIGTERM story under load: drain mid-burst, restart, resume.

    Six distinct contracts, two workers; drain fires while jobs are
    still queued/running.  Every job must end done exactly once —
    finished in generation 1 or checkpointed and replayed in
    generation 2 — with six distinct verdicts in the store and no
    duplicate campaign for any scan key.
    """
    seeds = (1, 2, 3, 4, 5, 6)
    contracts = {seed: contract_bytes(seed=seed) for seed in seeds}
    service = _service(tmp_path, workers=2)
    keys = {}
    try:
        for seed, (data, abi) in contracts.items():
            keys[seed] = service.submit_bytes(data, abi,
                                              client=f"c{seed}").job
        # Drain immediately: the burst is still mostly queued.
        checkpointed = service.drain(wait_s=30)
        done_gen1 = sum(1 for job in keys.values()
                        if job.state == "done")
        # Drain is lossless: every admitted job either finished or was
        # checkpointed (claimed jobs are allowed to finish).
        assert done_gen1 + checkpointed == len(seeds)
        assert checkpointed >= 1    # the drain really hit a loaded queue
    finally:
        service.store.close()

    resumed = _service(tmp_path, workers=2, start=False)
    try:
        assert resumed.resume() == checkpointed
        # Exactly once: an immediate second resume replays nothing.
        assert resumed.resume() == 0
        resumed.start()
        with resumed._lock:
            job_ids = list(resumed._jobs)
        for job_id in job_ids:
            assert _wait_terminal(resumed, job_id).state == "done"
        # Replays dedup against the store, so no scan key ran twice:
        # generation totals add up and the store holds one verdict per
        # distinct contract.
        assert resumed.store.counts()["verdicts"] == len(seeds)
        gen1_keys = {job.scan_key for job in keys.values()}
        with resumed._lock:
            gen2_keys = {job.scan_key
                         for job in resumed._jobs.values()}
        assert gen2_keys <= gen1_keys
        assert resumed.stats()["completed"] == checkpointed
    finally:
        resumed.stop(wait_s=5)


def test_crashed_job_is_contained_and_store_unpolluted(
        tmp_path, sample_contract):
    data, abi = sample_contract
    # KeyboardInterrupt (the resilience suite's simulated mid-job
    # kill) escapes the campaign taxonomy; the worker thread must
    # survive and the job must land in failed, not poison the store.
    install_fault_plan(Fault(stage="fuzz", kind="abort",
                             match="victim"))
    policy = ResiliencePolicy(max_retries=0, quarantine_after=5)
    service = _service(tmp_path, policy=policy)
    try:
        submission = service.submit_bytes(data, abi, client="victim")
        job = _wait_terminal(service, submission.job.job_id)
        assert job.state == "failed"
        assert "KeyboardInterrupt" in (job.error or "")
        assert service.store.get_verdict(job.scan_key) is None
        # The service is still alive: an untainted client succeeds.
        ok = service.submit_bytes(data, abi, client="clean")
        assert _wait_terminal(service, ok.job.job_id).state == "done"
    finally:
        service.stop(wait_s=5)
