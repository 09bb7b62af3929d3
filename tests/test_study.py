"""Tests for the wild-study pipeline."""

import pytest

from repro.metrics import ThroughputStats
from repro.resilience import Fault, clear_fault_plan, install_fault_plan
from repro.study import format_wild_study, run_wild_study


@pytest.fixture(scope="module")
def study():
    return run_wild_study(scale=0.02, timeout_ms=12_000)


def test_study_flags_majority(study):
    assert study.total >= 4
    assert study.flagged_fraction >= 0.5


def test_study_per_type_counts_complete(study):
    counts = study.per_type_counts()
    # The paper's five plus the semantic families (present in every
    # scan doc; the wild study runs the default paper-five set, so
    # the semantic rows are simply zero here).
    assert {"fake_eos", "fake_notif", "missauth",
            "blockinfodep", "rollback"} <= set(counts)
    assert sum(counts.values()) >= len(study.flagged)


def test_study_maintenance_partition(study):
    assert len(study.patched) <= len(study.still_operating)
    assert study.exposed_count \
        == len(study.still_operating) - len(study.patched)


def test_study_ground_truth_agreement_high(study):
    assert study.ground_truth_agreement() >= 0.9


def test_study_formatting(study):
    text = format_wild_study(study)
    assert "flagged vulnerable" in text
    assert "still exposed" in text


def test_study_books_throughput_like_the_harness():
    # One campaign fails: it is skipped, not counted as completed, and
    # every fresh result books its task latency.
    perf = ThroughputStats()
    install_fault_plan(Fault(stage="fuzz", kind="error", match="wild[0]"))
    try:
        result = run_wild_study(scale=0.01, timeout_ms=4_000, perf=perf)
    finally:
        clear_fault_plan()
    assert [key for key, _reason in result.skipped] == ["wild[0]"]
    assert perf.campaigns == result.total - len(result.skipped)
    assert "task" in perf.latency_percentiles()
