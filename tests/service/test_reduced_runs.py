"""Reduced answers of the scan daemon, pinned cell by cell.

A reduced answer is one the daemon computed more cheaply than its scan
key promises: on a shrunk fuzz budget (pressure ``elevated`` and up),
black-box only (pressure ``saturated``, or an open ``symback``/``solve``
breaker), or both.  One 1-worker daemon with housekeeping off runs one
fresh module per cell of pressure (set by hand) x ``solve`` breaker
(threshold 1, a 60 s cooldown, so it stays open), and each cell pins:

* the campaign's final virtual time, read off its coverage timeline —
  it shows the budget the dispatch gave the campaign;
* the result's ``degraded`` list;
* whether the verdict and the trace pack were stored;
* the label the answer carries.
"""

import itertools

import pytest

from repro.service import ScanService, ScanServiceConfig

from .conftest import FAST_TIMEOUT_MS, contract_bytes
from .test_scheduler import _wait_terminal

PRESSURES = ("normal", "elevated", "saturated")
BREAKERS = ("closed", "open")
CELLS = list(itertools.product(PRESSURES, BREAKERS))

# (pressure, breaker) -> (budget in virtual ms, final virtual ms,
# degraded, verdict stored, trace stored).  The budget is the base one
# (FAST_TIMEOUT_MS) times 1, 0.5 or 0.25; a campaign stops at the first
# round boundary past it.
EXPECTED = {
    ("normal", "closed"): (4000.0, 4091.0, [], True, True),
    ("normal", "open"): (4000.0, 4027.0, ["wasai"], False, False),
    ("elevated", "closed"): (2000.0, 2919.0, [], False, False),
    ("elevated", "open"): (2000.0, 2035.0, ["wasai"], False, False),
    ("saturated", "closed"): (1000.0, 1039.0, ["wasai"], False, False),
    ("saturated", "open"): (1000.0, 1039.0, ["wasai"], False, False),
}

# (pressure, breaker) -> the answer's label: provenance "reduced",
# None where absent.
LABELS = {
    ("normal", "closed"): None,
    ("normal", "open"): "breaker",
    ("elevated", "closed"): "elevated",
    ("elevated", "open"): "breaker",
    ("saturated", "closed"): "saturated",
    ("saturated", "open"): "breaker",
}


def _label(job) -> "str | None":
    provenance = job.result_doc.get("provenance") or {}
    return provenance.get("reduced")


@pytest.fixture(scope="module")
def answers() -> dict:
    service = ScanService(config=ScanServiceConfig(
        workers=1, poll_s=0.02, default_timeout_ms=FAST_TIMEOUT_MS,
        capture_traces=True, housekeeping_s=None,
        breaker_threshold=1, breaker_cooldown_s=60.0))
    service.start()
    out = {}
    try:
        for seed, (pressure, breaker) in enumerate(CELLS):
            with service._lock:
                service.overload.pressure = pressure
                if breaker == "open":
                    service.breakers.record_failure("solve")
                else:
                    service.breakers.record_success("solve")
            data, abi = contract_bytes(seed=seed)
            submission = service.submit_bytes(data, abi)
            assert submission.outcome == "queued"
            job = _wait_terminal(service, submission.job.job_id)
            assert job.state == "done", job.error
            out[(pressure, breaker)] = (
                job,
                service.store.get_verdict(job.scan_key) is not None,
                service.store.get_trace(job.scan_key) is not None)
    finally:
        service.stop(wait_s=5)
    return out


@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_reduced_run_budget_degradation_and_storage(answers, cell):
    job, verdict_stored, trace_stored = answers[cell]
    budget, final_ms, degraded, want_verdict, want_trace = EXPECTED[cell]
    assert budget == FAST_TIMEOUT_MS * {"normal": 1.0, "elevated": 0.5,
                                        "saturated": 0.25}[cell[0]]
    timeline = job.result_doc["coverage"]["wasai"]["timeline"]
    assert budget <= timeline[-1][0] == final_ms
    assert job.result_doc["degraded"] == degraded
    assert (verdict_stored, trace_stored) == (want_verdict, want_trace)


@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_reduced_run_label(answers, cell):
    job, _verdict_stored, _trace_stored = answers[cell]
    assert _label(job) == LABELS[cell]
