"""The ``/stats`` books, pinned through one scripted service history.

One :class:`ScanService` behind a :class:`ServiceApi` with a
:class:`TenantBook` walks through every event ``/stats`` counts: a
fresh scan, a coalesced twin, a cache hit, a malformed upload, a disk
refusal, an admission-expired deadline, a quota shed, a breaker trip
and its probe recovery under a fault plan, a re-verdict, a log
compaction and a draining refusal.  The test pins the sorted key
paths of ``stats()`` and every integer in it, so a count that moves
to another owner must still be rendered at the same path with the
same value.
"""

import base64
import json
import time

from repro.resilience import Fault, clear_fault_plan, install_fault_plan
from repro.service import (ScanService, ScanServiceConfig, ServiceApi,
                           TenantBook)

from .conftest import FAST_TIMEOUT_MS, contract_bytes

# Every leaf of stats(), dotted; empty dicts and lists are leaves.
STATS_PATHS = """
accepting admission_rejected
breakers.deploy.consecutive_failures breakers.deploy.cooldown_s
breakers.deploy.recoveries breakers.deploy.state
breakers.deploy.threshold breakers.deploy.trips
breakers.fuzz.consecutive_failures breakers.fuzz.cooldown_s
breakers.fuzz.recoveries breakers.fuzz.state breakers.fuzz.threshold
breakers.fuzz.trips
breakers.instrument.consecutive_failures breakers.instrument.cooldown_s
breakers.instrument.recoveries breakers.instrument.state
breakers.instrument.threshold breakers.instrument.trips
breakers.solve.consecutive_failures breakers.solve.cooldown_s
breakers.solve.recoveries breakers.solve.state breakers.solve.threshold
breakers.solve.trips
breakers.symback.consecutive_failures breakers.symback.cooldown_s
breakers.symback.recoveries breakers.symback.state
breakers.symback.threshold breakers.symback.trips
browned_out completed deadline_exceeded
dedup.cache_hits dedup.coalesce_hits dedup.hit_rate
failed health inflight_budget
jobs.deadline_exceeded jobs.done
latency.fuzz.max_s latency.fuzz.n latency.fuzz.p50_s latency.fuzz.p95_s
latency.job.max_s latency.job.n latency.job.p50_s latency.job.p95_s
latency.scan.max_s latency.scan.n latency.scan.p50_s latency.scan.p95_s
latency.setup.max_s latency.setup.n latency.setup.p50_s
latency.setup.p95_s
overload.adjustments overload.base_inflight
overload.drain_rate_per_s
overload.effective_inflight overload.expected_job_s overload.levels
overload.observed_p95_s overload.pressure overload.retry_after_s
overload.target_p95_s overload.timeout_scale
pressure promoted quarantined queue_depth
resilience.breaker_recoveries resilience.breaker_trips
resilience.forced_blackbox resilience.integrity_repairs
resilience.journal_compactions resilience.store_recoveries
resilience.worker_restarts
running shed shed_by_kind.deadline shed_by_kind.disk
shed_by_kind.draining shed_by_kind.quota
store.coverage store.modules store.pending store.quarantine
store.traces store.verdicts submissions
supervisor.alive supervisor.configured supervisor.max_heartbeat_age_s
supervisor.reaps.died supervisor.reaps.hung supervisor.restarts
supervisor.storm
traceir.drift_audits traceir.drift_incidents
traceir.insufficient_surface traceir.reverdicts
traceir.trace_corruptions traceir.traces_stored traceir.verdict_drift
uptime_s workers
""".split()

_BREAKERS = {f"breakers.{stage}.{field}": 0
             for stage in ("deploy", "fuzz", "instrument", "solve",
                           "symback")
             for field in ("consecutive_failures", "recoveries", "trips")}
_BREAKERS.update({f"breakers.{stage}.threshold": 1
                  for stage in ("deploy", "fuzz", "instrument", "solve",
                                "symback")})
_BREAKERS.update({"breakers.solve.trips": 1,
                  "breakers.solve.recoveries": 1})

STATS_INTS = _BREAKERS | {
    "admission_rejected": 1, "browned_out": 0, "completed": 4,
    "deadline_exceeded": 1, "dedup.cache_hits": 1,
    "dedup.coalesce_hits": 1, "failed": 0, "inflight_budget": 65,
    "jobs.deadline_exceeded": 1, "jobs.done": 5,
    "latency.fuzz.n": 3, "latency.job.n": 3, "latency.scan.n": 3,
    "latency.setup.n": 3,
    "overload.adjustments": 0, "overload.base_inflight": 65,
    "overload.effective_inflight": 65,
    "promoted": 0, "quarantined": 0, "queue_depth": 0,
    "resilience.breaker_recoveries": 1, "resilience.breaker_trips": 1,
    "resilience.forced_blackbox": 0, "resilience.integrity_repairs": 0,
    "resilience.journal_compactions": 1,
    "resilience.store_recoveries": 0, "resilience.worker_restarts": 0,
    "running": 0, "shed": 1,
    "shed_by_kind.deadline": 1, "shed_by_kind.disk": 1,
    "shed_by_kind.draining": 1, "shed_by_kind.quota": 1,
    "store.coverage": 2, "store.modules": 4, "store.pending": 0,
    "store.quarantine": 0, "store.traces": 2, "store.verdicts": 2,
    "submissions": 7,
    "supervisor.alive": 0, "supervisor.configured": 1,
    "supervisor.reaps.died": 0, "supervisor.reaps.hung": 0,
    "supervisor.restarts": 0,
    "traceir.drift_audits": 0, "traceir.insufficient_surface": 0,
    "traceir.reverdicts": 2, "traceir.trace_corruptions": 0,
    "traceir.traces_stored": 2, "traceir.verdict_drift": 0,
    "workers": 1,
}


def _leaves(doc: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def _body(seed: int, **extra) -> bytes:
    data, abi = contract_bytes(seed=seed)
    doc = {"module_b64": base64.b64encode(data).decode("ascii"),
           "abi": abi}
    doc.update(extra)
    return json.dumps(doc).encode("utf-8")


def _wait_terminal(service: ScanService, job_id: str):
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        job = service.job(job_id)
        if job is not None and job.terminal:
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never became terminal")


def test_stats_books_every_event_of_a_scripted_history(tmp_path):
    book = TenantBook()
    book.register("capped", "capped-key", max_submissions=0)
    service = ScanService(
        store=str(tmp_path / "store.db"),
        config=ScanServiceConfig(
            workers=1, poll_s=0.02, default_timeout_ms=FAST_TIMEOUT_MS,
            capture_traces=True, housekeeping_s=None,
            breaker_threshold=1, breaker_cooldown_s=0.2))
    api = ServiceApi(service, tenants=book)

    def post(body: bytes, **headers) -> "tuple[int, dict]":
        return api.handle("POST", "/scans", body, headers=headers)

    try:
        # Workers not started yet: every admission outcome is decided
        # before any campaign runs.
        junk = json.dumps({"module_b64": base64.b64encode(
            b"\0asm junk").decode("ascii"),
            "abi": contract_bytes(0)[1]}).encode("utf-8")
        assert post(junk)[0] == 400
        install_fault_plan(Fault(stage="disk", kind="error", times=1))
        status, doc = post(_body(0))
        assert (status, doc["kind"]) == (429, "disk")
        clear_fault_plan()
        status, fresh = post(_body(0))
        assert (status, fresh["outcome"]) == (202, "queued")
        status, doc = post(_body(0))
        assert (status, doc["outcome"]) == (202, "coalesced")
        past_ms = int((time.time() - 5.0) * 1000.0)
        status, doc = post(_body(1, deadline_epoch_ms=past_ms))
        assert (status, doc["state"]) == (200, "deadline_exceeded")
        status, doc = post(_body(2), **{"X-Api-Key": "capped-key"})
        assert (status, doc["kind"]) == (429, "quota")

        service.start()
        assert _wait_terminal(service, fresh["id"]).state == "done"
        status, doc = post(_body(0))
        assert (status, doc["outcome"]) == (200, "cached")

        # A dead solver degrades one campaign and trips its breaker
        # (threshold 1); after the cooldown the next job is the probe
        # that runs the full pipeline and closes it again.
        install_fault_plan(Fault(stage="solve", kind="error"))
        job = _wait_terminal(service, post(_body(3))[1]["id"])
        assert job.result_doc["degraded"] == ["wasai"]
        assert service.health()["status"] == "degraded"
        clear_fault_plan()
        time.sleep(0.3)
        job = _wait_terminal(service, post(_body(4))[1]["id"])
        assert job.result_doc["degraded"] == []
        assert service.health()["status"] == "ok"

        status, doc = api.handle("POST", "/reverdict", b"{}")
        assert status == 202
        assert _wait_terminal(service, doc["id"]).state == "done"
        service.compact_journal()
        service.drain(wait_s=10)
        status, doc = post(_body(5))
        assert (status, doc["kind"]) == (429, "draining")

        leaves = _leaves(service.stats())
        assert sorted(leaves) == sorted(STATS_PATHS)
        assert {path: value for path, value in leaves.items()
                if type(value) is int} == STATS_INTS
    finally:
        clear_fault_plan()
        service.stop(wait_s=5)
