"""Overload robustness: deadlines, adaptive admission, brownout.

Three layers under test.  The :class:`OverloadController` is a pure
state machine over a fake clock, so AIMD sizing, the pressure ladder,
drain-rate Retry-After and cost-based shedding are asserted without a
single sleep.  The queue's deadline/TTL sweep runs against an idle
:class:`JobQueue`.  The service-level
tests drive real campaigns (tiny budgets) to pin the end-to-end
contract: an expired caller deadline never buys a fresh campaign, a
browned-out verdict is honestly tagged and never cached, and drain /
resume cannot resurrect a job whose caller stopped waiting.
"""

import time

import pytest

from repro.resilience import Fault, install_fault_plan
from repro.service import ScanService, ScanServiceConfig, ServiceApi
from repro.service.overload import (DEFAULT_RETRY_AFTER_S,
                                   MAX_RETRY_AFTER_S, MIN_RETRY_AFTER_S,
                                   SHED_KINDS, OverloadController)
from repro.service.queue import Job, JobQueue

from .conftest import FAST_TIMEOUT_MS, contract_bytes
from .test_scheduler import _service, _wait_terminal


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _controller(**kwargs) -> "tuple[OverloadController, FakeClock]":
    clock = FakeClock()
    kwargs.setdefault("target_p95_s", 1.0)
    kwargs.setdefault("adjust_interval_s", 1.0)
    controller = OverloadController(8, 16, clock=clock, **kwargs)
    return controller, clock


# -- the controller: AIMD, ladder, Retry-After, cost shed -------------------

def test_aimd_halves_on_breach_and_recovers_additively():
    controller, clock = _controller()
    assert controller.effective_inflight() == 8
    controller.observe_latency(3.0)     # p95 = 3x the 1 s target
    for expected in (4, 2, 1, 1):       # halves, floored at min=1
        clock.advance(1.0)
        controller.update(queue_depth=4, inflight=2)
        assert controller.effective_inflight() == expected
    assert controller.adjustments == 3  # the floor tick changes nothing
    # The breach ages out of the sample window; the limit climbs back
    # one step per adjust interval — additive, not a jump.
    clock.advance(controller.latency_window_s + 1.0)
    seen = []
    for _ in range(8):
        clock.advance(1.0)
        controller.update(queue_depth=0, inflight=0)
        seen.append(controller.effective_inflight())
    assert seen == [2, 3, 4, 5, 6, 7, 8, 8]


def test_effective_depth_scales_with_the_inflight_squeeze():
    controller, clock = _controller()
    assert controller.effective_depth() == 16
    controller.observe_latency(3.0)
    clock.advance(1.0)
    controller.update(queue_depth=0, inflight=1)
    assert controller.effective_inflight() == 4
    assert controller.effective_depth() == 8    # proportional
    for _ in range(4):
        clock.advance(1.0)
        controller.update(queue_depth=0, inflight=1)
    assert controller.effective_depth() == 2    # squeezed to min=1


def test_pressure_ladder_tracks_load_and_breach():
    controller, clock = _controller(target_p95_s=100.0)
    assert controller.update(0, 0) == "normal"
    # capacity = 8 + 16 = 24 while nothing breaches the huge target.
    assert controller.update(10, 5) == "elevated"    # load 0.62
    assert controller.update(16, 7) == "saturated"   # load 0.96
    assert controller.update(16, 8) == "saturated"   # full, no breach
    # A >=2x SLO breach while full tops the ladder out.
    controller.target_p95_s = 1.0
    controller.observe_latency(2.5)
    clock.advance(1.0)
    assert controller.update(16, 8) == "shedding"
    # And it walks back down once the backlog drains and the breach
    # ages out — no operator reset anywhere.
    clock.advance(controller.latency_window_s + 1.0)
    for _ in range(16):
        clock.advance(1.0)
        controller.update(0, 0)
    assert controller.pressure == "normal"
    assert controller.effective_inflight() == controller.base_inflight


def test_retry_after_is_the_measured_drain_time():
    controller, clock = _controller()
    # No completions observed yet: the default hint, never zero.
    assert controller.retry_after_s(5) == DEFAULT_RETRY_AFTER_S
    for _ in range(10):                 # 2 completions/s
        clock.advance(0.5)
        controller.observe_completion()
    hint = controller.retry_after_s(pending=9)
    # 10 pending-equivalents at ~2/s: about five seconds, and honest.
    assert 4.0 <= hint <= 6.5
    assert controller.retry_after_s(0) >= MIN_RETRY_AFTER_S
    assert controller.retry_after_s(10_000) \
        == MAX_RETRY_AFTER_S


def test_cost_shed_spares_normal_and_scales_with_priority():
    controller, _clock = _controller()
    big = OverloadController.admission_cost(4 * 1024 * 1024, 8)
    small = OverloadController.admission_cost(64 * 1024, 5)
    assert big > small >= 5.0
    # Normal pressure never cost-sheds, whatever the size.
    controller.pressure = "normal"
    assert not controller.should_shed_cost(big, priority=-8)
    # Saturated: allowance 32 * 0.25 = 8 at priority 0, doubling per
    # priority step — the biggest least-important work goes first.
    controller.pressure = "saturated"
    assert controller.should_shed_cost(big, priority=0)
    assert not controller.should_shed_cost(big, priority=4)
    assert not controller.should_shed_cost(small, priority=0)
    assert controller.should_shed_cost(small, priority=-2)
    # Shedding refuses everything through this gate.
    controller.pressure = "shedding"
    assert controller.should_shed_cost(0.1, priority=8)


def test_snapshot_carries_the_operator_story():
    controller, _clock = _controller()
    snap = controller.snapshot()
    assert snap["pressure"] == "normal"
    assert snap["effective_inflight"] == snap["base_inflight"] == 8
    assert snap["levels"] == ["normal", "elevated", "saturated",
                              "shedding"]
    assert set(SHED_KINDS) == {"queue", "inflight", "deadline",
                               "quota", "disk", "brownout",
                               "draining"}


# -- the queue: idle sweep --------------------------------------------------

def _queued_job(job_id: str, *, deadline_epoch_s=None,
                priority: int = 0) -> Job:
    return Job(job_id=job_id, client="c", scan_key=f"k-{job_id}",
               module_hash="m", config={}, priority=priority,
               deadline_epoch_s=deadline_epoch_s)


def test_idle_queue_sweep_expires_without_a_get():
    reaped = []
    clock = FakeClock()
    wall = FakeClock(start=5_000.0)
    queue = JobQueue(on_expired=reaped.append,
                     clock=clock, wall_clock=wall)
    # A 1 s TTL is a deadline 1 s out (admission folds it in).
    queue.put(_queued_job("ttl", deadline_epoch_s=wall.now + 1.0))
    queue.put(_queued_job("dead", deadline_epoch_s=wall.now + 2.0))
    queue.put(_queued_job("live"))
    assert queue.sweep_expired() == 0   # nothing stale yet
    clock.advance(1.5)                  # queue age alone expires nothing
    wall.advance(2.5)                   # both deadlines pass
    assert queue.sweep_expired() == 2   # no get() ever happened
    assert {job.job_id for job in reaped} == {"ttl", "dead"}
    # One clock, one book.
    assert len(reaped) == 2
    assert queue.depth == 1


# -- the service: deadlines end to end --------------------------------------

def test_expired_deadline_is_terminal_at_admission(sample_contract):
    data, abi = sample_contract
    service = _service(start=False)
    try:
        submission = service.submit_bytes(
            data, abi, deadline_epoch_s=time.time() - 1.0)
        job = submission.job
        assert submission.outcome == "deadline_exceeded"
        assert job.state == "deadline_exceeded" and job.terminal
        assert job.result_doc is None
        assert "deadline" in (job.error or "")
        stats = service.stats()
        # No fresh campaign budget was spent on it: nothing queued,
        # nothing persisted, and the shed books name the cut.
        assert stats["queue_depth"] == 0
        assert stats["deadline_exceeded"] == 1
        assert stats["shed_by_kind"].get("deadline") == 1
        assert service.store.get_verdict(job.scan_key) is None
    finally:
        service.stop(wait_s=1)


def test_cache_hit_served_even_past_the_deadline(sample_contract):
    data, abi = sample_contract
    service = _service()
    try:
        first = service.submit_bytes(data, abi)
        _wait_terminal(service, first.job.job_id)
        # The deadline gate sits *after* dedup: a stored verdict costs
        # nothing to serve, so an expired caller still gets it.
        hit = service.submit_bytes(data, abi,
                                   deadline_epoch_s=time.time() - 1.0)
        assert hit.outcome == "cached"
        assert hit.job.result_doc is not None
    finally:
        service.stop(wait_s=5)


def test_queued_job_cut_by_the_idle_housekeeping_sweep(
        sample_contract):
    data, abi = sample_contract
    # No workers, no housekeeper thread: the sweep is driven by hand,
    # exactly like the daemon's housekeeping tick would.
    service = _service(start=False, housekeeping_s=None)
    try:
        submission = service.submit_bytes(
            data, abi, deadline_epoch_s=time.time() + 0.05)
        assert submission.outcome == "queued"
        time.sleep(0.08)
        service.housekeeping_once()
        job = service.job(submission.job.job_id)
        assert job.state == "deadline_exceeded"
        assert job.result_doc is None
        stats = service.stats()
        assert stats["queue_depth"] == 0
        assert stats["deadline_exceeded"] == 1
    finally:
        service.stop(wait_s=1)


def test_deadline_cut_mid_campaign_yields_no_verdict(sample_contract):
    data, abi = sample_contract
    # The campaign demonstrably *starts* (the fuzz stage stalls half a
    # second, far past the caller's 0.1 s budget) and is then cut at
    # the next round boundary — never run to completion.
    install_fault_plan(Fault(stage="fuzz", kind="hang", hang_s=0.5,
                             match="impatient"))
    service = _service(workers=1)
    try:
        submission = service.submit_bytes(
            data, abi, client="impatient",
            deadline_epoch_s=time.time() + 0.1)
        job = _wait_terminal(service, submission.job.job_id)
        assert job.state == "deadline_exceeded"
        assert job.result_doc is None
        # A partial campaign must never be cached as the answer.
        assert service.store.get_verdict(job.scan_key) is None
        # And a caller's clock running out is not a service fault: no
        # breaker state, health stays green.
        assert service.health()["status"] == "ok"
    finally:
        service.stop(wait_s=5)


def test_campaign_finishing_past_the_deadline_is_not_done(
        sample_contract, monkeypatch):
    from repro.service import scheduler
    data, abi = sample_contract
    real_campaign = scheduler.run_campaign_task
    jobs = []

    def overrun(task):
        # Every fuzz round ends in time; the last one runs past the
        # caller's deadline.
        result = real_campaign(task)
        jobs[0].deadline_epoch_s = time.time() - 0.01
        return result

    monkeypatch.setattr(scheduler, "run_campaign_task", overrun)
    service = _service(workers=1, start=False)
    try:
        submission = service.submit_bytes(
            data, abi, deadline_epoch_s=time.time() + 300.0)
        jobs.append(submission.job)
        service.start()
        job = _wait_terminal(service, submission.job.job_id)
        assert job.state == "deadline_exceeded"
        assert job.result_doc is None and "deadline" in job.error
        assert service.stats()["shed_by_kind"].get("deadline") == 1
        # The full verdict is still kept for the next caller.
        assert service.store.get_verdict(job.scan_key) is not None
    finally:
        service.stop(wait_s=5)


def test_deadline_is_not_key_material(sample_contract):
    data, abi = sample_contract
    service = _service()
    try:
        first = service.submit_bytes(data, abi)
        _wait_terminal(service, first.job.job_id)
        # Same module, now with a (generous) deadline: same scan key,
        # so the stored verdict is simply served.
        again = service.submit_bytes(
            data, abi, deadline_epoch_s=time.time() + 300.0)
        assert again.outcome == "cached"
        assert again.job.scan_key == first.job.scan_key
    finally:
        service.stop(wait_s=5)


# -- the service: brownout degradation --------------------------------------

def test_brownout_tags_provenance_and_never_caches(sample_contract):
    data, abi = sample_contract
    service = _service(workers=1, housekeeping_s=None)
    try:
        # Pin the ladder at saturated: dispatch shrinks the budget,
        # forces black-box and stamps the verdict's provenance.
        service.overload.pressure = "saturated"
        first = service.submit_bytes(data, abi)
        job = _wait_terminal(service, first.job.job_id)
        assert job.state == "done"
        assert job.brownout == "saturated"
        prov = job.result_doc.get("provenance") or {}
        assert prov.get("pressure") == "saturated"
        # Browned-out answers are honest but weaker — never persisted
        # as the module's verdict of record.
        assert service.store.get_verdict(job.scan_key) is None
        assert service.stats()["browned_out"] == 1

        # Pressure recovers: the same module now runs the full
        # pipeline, untagged, and this verdict *is* cached.
        service.overload.pressure = "normal"
        full = service.submit_bytes(data, abi)
        assert full.outcome == "queued"     # the brownout run isn't reused
        job2 = _wait_terminal(service, full.job.job_id)
        assert job2.state == "done"
        prov2 = job2.result_doc.get("provenance") or {}
        assert "pressure" not in prov2
        assert service.store.get_verdict(job2.scan_key) is not None
    finally:
        service.stop(wait_s=5)


def test_saturation_serves_stored_traces_by_replay(sample_contract):
    data, abi = sample_contract
    service = _service(workers=1, capture_traces=True,
                       housekeeping_s=None)
    try:
        first = service.submit_bytes(data, abi)
        job = _wait_terminal(service, first.job.job_id)
        assert service.store.get_trace(job.scan_key) is not None
        # Lose the verdict but keep the trace (e.g. an oracle-version
        # sweep dropped it); under saturation the daemon answers by
        # pure oracle replay instead of refusing or re-fuzzing.
        service.store.delete_verdict(job.scan_key)
        service.overload.pressure = "saturated"
        replayed = service.submit_bytes(data, abi)
        assert replayed.outcome == "replayed"
        assert replayed.job.state == "done"
        doc = replayed.job.result_doc
        prov = doc.get("provenance") or {}
        assert prov.get("source") == "replay"
        assert prov.get("pressure") == "saturated"
        assert doc["scans"].keys() == job.result_doc["scans"].keys()
        assert service.stats()["replay_served"] == 1
        # Replay-served answers are ephemeral too: no verdict row.
        assert service.store.get_verdict(job.scan_key) is None
    finally:
        service.stop(wait_s=5)


def test_shedding_pressure_refuses_with_typed_brownout_429(
        sample_contract):
    data, abi = sample_contract
    from repro.service import QueueFull
    service = _service(start=False, housekeeping_s=None)
    try:
        service.overload.pressure = "shedding"
        with pytest.raises(QueueFull) as excinfo:
            service.submit_bytes(data, abi)
        assert excinfo.value.kind == "brownout"
        assert excinfo.value.retry_after_s > 0
        stats = service.stats()
        assert stats["shed"] == 1
        assert stats["shed_by_kind"].get("brownout") == 1
    finally:
        service.stop(wait_s=1)


# -- drain racing a deadline (the SIGTERM story) ----------------------------

def test_drain_never_resurrects_an_expired_deadline(tmp_path):
    """SIGTERM races caller deadlines: a queued job whose deadline
    already passed is finalized ``deadline_exceeded`` at drain (not
    checkpointed), one whose deadline expires *while the daemon is
    down* is deleted at resume — and the one live job is replayed
    exactly once, keeping its original deadline."""
    service = _service(tmp_path, start=False, housekeeping_s=None)
    data1, abi1 = contract_bytes(seed=1)
    data2, abi2 = contract_bytes(seed=2)
    data3, abi3 = contract_bytes(seed=3)
    try:
        already = service.submit_bytes(
            data1, abi1, deadline_epoch_s=time.time() + 0.02)
        racing = service.submit_bytes(
            data2, abi2, deadline_epoch_s=time.time() + 0.3)
        live = service.submit_bytes(
            data3, abi3, deadline_epoch_s=time.time() + 300.0)
        time.sleep(0.05)                # the first deadline passes
        checkpointed = service.drain(wait_s=1)
        # Only the two still-live jobs were checkpointed; the expired
        # one became terminal instead of being written to disk.
        assert checkpointed == 2
        assert already.job.state == "deadline_exceeded"
        assert service.stats()["deadline_exceeded"] == 1
    finally:
        service.store.close()

    time.sleep(0.3)                     # the racing deadline expires
    resumed = _service(tmp_path, start=False, housekeeping_s=None)
    try:
        # Exactly one checkpoint is still worth running; the expired
        # one is deleted from the store, not re-queued.
        assert resumed.resume() == 1
        assert resumed.stats()["queue_depth"] == 1
        with resumed._lock:
            jobs = list(resumed._jobs.values())
        assert len(jobs) == 1
        assert jobs[0].scan_key == live.job.scan_key
        # The caller's deadline rode through drain and resume.
        assert jobs[0].deadline_epoch_s is not None
        assert jobs[0].deadline_epoch_s \
            == pytest.approx(live.job.deadline_epoch_s)
        # Exactly once: nothing left for a second resume, and the
        # expired checkpoint stays dead.
        assert resumed.resume() == 0
        assert resumed.store.pending() == []
        resumed.start()
        assert _wait_terminal(resumed, jobs[0].job_id).state == "done"
    finally:
        resumed.stop(wait_s=5)


def test_ttl_rides_drain_checkpoints(tmp_path, sample_contract):
    """A TTL is a relative deadline fixed at admission, so it travels
    with the drain checkpoint: an expired checkpoint is deleted at
    resume instead of re-run."""
    data, abi = sample_contract
    service = _service(tmp_path, start=False, housekeeping_s=None)
    try:
        submission = service.submit_bytes(data, abi, ttl_s=0.5)
        assert submission.job.deadline_epoch_s is not None
        assert service.drain(wait_s=1) == 1
    finally:
        service.store.close()

    time.sleep(1.0)                     # the TTL runs out while down
    resumed = _service(tmp_path, start=False, housekeeping_s=None)
    try:
        assert resumed.resume() == 0
        assert resumed.stats()["queue_depth"] == 0
        assert resumed.store.pending() == []
    finally:
        resumed.store.close()


# -- the HTTP edge: X-Deadline-Ms -------------------------------------------

def _submit_body(seed: int = 0, **extra) -> bytes:
    import base64
    import json
    data, abi = contract_bytes(seed=seed)
    doc = {"module_b64": base64.b64encode(data).decode("ascii"),
           "abi": abi}
    doc.update(extra)
    return json.dumps(doc).encode("utf-8")


def _api(**config) -> ServiceApi:
    knobs = dict(workers=1, max_depth=8, poll_s=0.02,
                 default_timeout_ms=FAST_TIMEOUT_MS,
                 housekeeping_s=None)
    knobs.update(config)
    return ServiceApi(ScanService(config=ScanServiceConfig(**knobs)))


def test_expired_deadline_header_returns_the_terminal_doc():
    api = _api()
    try:
        past_ms = str(int((time.time() - 5.0) * 1000.0))
        status, doc = api.handle(
            "POST", "/scans", _submit_body(seed=0),
            headers={"X-Deadline-Ms": past_ms})
        # Terminal at admission is an answer, not an error: 200 with
        # the typed doc, exactly like a cache hit.
        assert status == 200
        assert doc["state"] == "deadline_exceeded"
        assert doc.get("result") is None
    finally:
        api.service.stop(wait_s=1)


def test_deadline_header_is_case_insensitive_and_rides_the_job():
    api = _api()
    try:
        future_ms = str(int((time.time() + 300.0) * 1000.0))
        status, doc = api.handle(
            "POST", "/scans", _submit_body(seed=0),
            headers={"x-deadline-ms": future_ms})
        assert status == 202
        assert doc["deadline_epoch_s"] == pytest.approx(
            float(future_ms) / 1000.0)
    finally:
        api.service.stop(wait_s=1)


def test_unparseable_deadline_header_is_a_400():
    api = _api()
    try:
        status, doc = api.handle(
            "POST", "/scans", _submit_body(seed=0),
            headers={"X-Deadline-Ms": "tomorrow-ish"})
        assert status == 400
        assert "epoch milliseconds" in doc["detail"]
        # Nothing was admitted on the malformed request.
        assert api.service.stats()["queue_depth"] == 0
    finally:
        api.service.stop(wait_s=1)
