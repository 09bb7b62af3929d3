"""Retry and quarantine policy units."""

import pytest

from repro.resilience import Quarantine, ResiliencePolicy, run_with_retry
from repro.resilience.errors import FuzzError, TaskTimeout


def test_run_with_retry_retries_only_retryable():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise TaskTimeout("slow")
        return "done"

    value, error, attempts = run_with_retry(
        flaky, ResiliencePolicy(max_retries=5))
    assert (value, error, attempts) == ("done", None, 3)

    calls.clear()

    def hard():
        calls.append(1)
        raise FuzzError("broken")

    value, error, attempts = run_with_retry(
        hard, ResiliencePolicy(max_retries=5))
    assert value is None
    assert isinstance(error, FuzzError)
    assert attempts == 1  # non-retryable: one attempt only


def test_run_with_retry_bounded_and_sleeps():
    def always():
        raise TaskTimeout("slow")

    value, error, attempts = run_with_retry(
        always, ResiliencePolicy(max_retries=2))
    assert value is None and isinstance(error, TaskTimeout)
    assert attempts == 3           # 1 try + 2 retries


def test_run_with_retry_propagates_foreign_exceptions():
    def alien():
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        run_with_retry(alien, ResiliencePolicy())


def test_quarantine_threshold_and_report():
    quarantine = Quarantine(threshold=3)
    assert not quarantine.record_failure("s", "crash 1")
    assert not quarantine.record_failure("s", "crash 2")
    assert not quarantine.is_quarantined("s")
    assert quarantine.record_failure("s", "crash 3")  # just crossed
    assert quarantine.is_quarantined("s")
    assert not quarantine.record_failure("s", "crash 4")  # already over
    assert quarantine.failure_count("s") == 4
    quarantine.record_failure("other", "one-off")
    assert set(quarantine.quarantined()) == {"s"}
    assert quarantine.quarantined()["s"][0] == "crash 1"


def test_after_failure_retries_then_fails_or_quarantines():
    policy = ResiliencePolicy(max_retries=1, quarantine_after=3)
    quarantine = Quarantine(policy.quarantine_after)
    # One retry, then the task fails; its key is not benched yet.
    assert policy.after_failure(quarantine, "s", "crash 1", 1) == "retry"
    assert policy.after_failure(quarantine, "s", "crash 2", 2) == "failed"
    # Failures count per key across tasks and jobs: the third benches
    # it, even while the failing job still has a retry left.
    assert policy.after_failure(quarantine, "s", "crash 3", 1) \
        == "quarantined"
    assert quarantine.quarantined() == {"s": ["crash 1", "crash 2",
                                              "crash 3"]}
