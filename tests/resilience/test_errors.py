"""The structured campaign error taxonomy."""

from repro.resilience.errors import (CampaignError, DeployError, FuzzError,
                                     InstrumentError, ScanError,
                                     SolverError, SymbackError, TaskTimeout,
                                     TrapStorm, WorkerCrash,
                                     DEGRADABLE_STAGES, STAGES)


def test_stage_attributes():
    assert InstrumentError().stage == "instrument"
    assert DeployError().stage == "deploy"
    assert FuzzError().stage == "fuzz"
    assert TrapStorm().stage == "fuzz"
    assert SymbackError().stage == "symback"
    assert SolverError().stage == "solve"
    assert ScanError().stage == "scan"
    assert TaskTimeout().stage == "task"
    assert WorkerCrash().stage == "task"
    for stage in DEGRADABLE_STAGES:
        assert stage in STAGES


def test_retryability_defaults():
    assert not FuzzError().retryable
    assert TaskTimeout().retryable
    assert WorkerCrash().retryable
    assert FuzzError(retryable=True).retryable


def test_str_includes_stage_and_sample():
    error = SolverError("no model", sample_id="fake_eos[3]")
    assert str(error) == "[solve fake_eos[3]] no model"
    assert str(FuzzError("boom")) == "[fuzz] boom"


def test_wrap_captures_traceback():
    try:
        raise ValueError("inner detail")
    except ValueError as exc:
        wrapped = SymbackError.wrap(exc, sample_id="s1")
    assert isinstance(wrapped, SymbackError)
    assert wrapped.sample_id == "s1"
    assert "ValueError: inner detail" in str(wrapped)
    assert "inner detail" in wrapped.traceback_str
    assert "test_wrap_captures_traceback" in wrapped.traceback_str


def test_wrap_passes_campaign_errors_through():
    original = SolverError("budget exhausted")
    try:
        raise original
    except CampaignError as exc:
        wrapped = FuzzError.wrap(exc, sample_id="s2")
    assert wrapped is original          # stage stays the precise one
    assert wrapped.stage == "solve"
    assert wrapped.sample_id == "s2"    # filled in, not overwritten


def test_doc_round_trip_preserves_class():
    error = TaskTimeout("timeout after 2s", sample_id="w[1]",
                        elapsed_s=2.5)
    doc = error.to_doc()
    revived = CampaignError.from_doc(doc)
    assert isinstance(revived, TaskTimeout)
    assert revived.stage == "task"
    assert revived.retryable
    assert revived.sample_id == "w[1]"
    assert "timeout after 2s" in str(revived)


def test_doc_round_trip_unknown_type_degrades_gracefully():
    revived = CampaignError.from_doc({"type": "FutureError",
                                      "stage": "fuzz",
                                      "message": "x"})
    assert isinstance(revived, CampaignError)
    assert revived.stage == "fuzz"
