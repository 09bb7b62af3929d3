"""Literal pins of the campaign error schema.

Every :class:`CampaignError` class is built once with every payload
field set and once with none.  Its ``str()``, its JSON doc and the doc
of its round trip through :meth:`CampaignError.from_doc` are pinned as
literals: these strings reach journals, verdict docs and the service's
error bodies, so a refactor of the taxonomy must leave them
byte-identical.  (A round trip re-wraps the stored message, so its
context prefix and suffix appear twice.)
"""

import json

import pytest

from repro.resilience import errors

FULL = {"sample_id": "fake_eos[3]", "retryable": True,
        "traceback_str": "Traceback: boom"}
PAYLOAD = {
    "MalformedModule": {"offset": 17, "section": "code"},
    "DivergenceError": {"func_index": 3, "pc": 42, "opcode": "i32.add",
                        "shadow": 1, "traced": 2},
    "TraceCorruption": {"path": "t.tir", "line": 9, "section": "events",
                        "offset": 64},
    "TaskTimeout": {"elapsed_s": 2.5},
    "DeadlineExceeded": {"deadline_epoch_s": 1700000000.5,
                         "elapsed_s": 0.25},
    "WorkerCrash": {"exitcode": -9},
}

# (class, "full" | "bare", str(e), json.dumps(e.to_doc()),
#  json.dumps(CampaignError.from_doc(e.to_doc()).to_doc()))
CASES = [
    ('CampaignError', 'full',
     '[campaign fake_eos[3]] boom',
     '{"type": "CampaignError", "stage": "campaign", "message": '
     '"[campaign fake_eos[3]] boom", "sample_id": "fake_eos[3]", '
     '"retryable": true, "traceback": "Traceback: boom"}',
     '{"type": "CampaignError", "stage": "campaign", "message": '
     '"[campaign fake_eos[3]] [campaign fake_eos[3]] boom", "sample_id": '
     '"fake_eos[3]", "retryable": true, "traceback": "Traceback: boom"}'),
    ('CampaignError', 'bare',
     '[campaign] boom',
     '{"type": "CampaignError", "stage": "campaign", "message": '
     '"[campaign] boom", "sample_id": null, "retryable": false, '
     '"traceback": null}',
     '{"type": "CampaignError", "stage": "campaign", "message": '
     '"[campaign] [campaign] boom", "sample_id": null, "retryable": '
     'false, "traceback": null}'),
    ('MalformedModule', 'full',
     '[ingest fake_eos[3]] boom (section=code, byte=17)',
     '{"type": "MalformedModule", "stage": "ingest", "message": "[ingest '
     'fake_eos[3]] boom (section=code, byte=17)", "sample_id": '
     '"fake_eos[3]", "retryable": true, "traceback": "Traceback: boom", '
     '"offset": 17, "section": "code"}',
     '{"type": "MalformedModule", "stage": "ingest", "message": "[ingest '
     'fake_eos[3]] [ingest fake_eos[3]] boom (section=code, byte=17) '
     '(section=code, byte=17)", "sample_id": "fake_eos[3]", "retryable": '
     'true, "traceback": "Traceback: boom", "offset": 17, "section": '
     '"code"}'),
    ('MalformedModule', 'bare',
     '[ingest] boom',
     '{"type": "MalformedModule", "stage": "ingest", "message": '
     '"[ingest] boom", "sample_id": null, "retryable": false, '
     '"traceback": null, "offset": null, "section": null}',
     '{"type": "MalformedModule", "stage": "ingest", "message": '
     '"[ingest] [ingest] boom", "sample_id": null, "retryable": false, '
     '"traceback": null, "offset": null, "section": null}'),
    ('InstrumentError', 'full',
     '[instrument fake_eos[3]] boom',
     '{"type": "InstrumentError", "stage": "instrument", "message": '
     '"[instrument fake_eos[3]] boom", "sample_id": "fake_eos[3]", '
     '"retryable": true, "traceback": "Traceback: boom"}',
     '{"type": "InstrumentError", "stage": "instrument", "message": '
     '"[instrument fake_eos[3]] [instrument fake_eos[3]] boom", '
     '"sample_id": "fake_eos[3]", "retryable": true, "traceback": '
     '"Traceback: boom"}'),
    ('InstrumentError', 'bare',
     '[instrument] boom',
     '{"type": "InstrumentError", "stage": "instrument", "message": '
     '"[instrument] boom", "sample_id": null, "retryable": false, '
     '"traceback": null}',
     '{"type": "InstrumentError", "stage": "instrument", "message": '
     '"[instrument] [instrument] boom", "sample_id": null, "retryable": '
     'false, "traceback": null}'),
    ('DeployError', 'full',
     '[deploy fake_eos[3]] boom',
     '{"type": "DeployError", "stage": "deploy", "message": "[deploy '
     'fake_eos[3]] boom", "sample_id": "fake_eos[3]", "retryable": true, '
     '"traceback": "Traceback: boom"}',
     '{"type": "DeployError", "stage": "deploy", "message": "[deploy '
     'fake_eos[3]] [deploy fake_eos[3]] boom", "sample_id": '
     '"fake_eos[3]", "retryable": true, "traceback": "Traceback: boom"}'),
    ('DeployError', 'bare',
     '[deploy] boom',
     '{"type": "DeployError", "stage": "deploy", "message": "[deploy] '
     'boom", "sample_id": null, "retryable": false, "traceback": null}',
     '{"type": "DeployError", "stage": "deploy", "message": "[deploy] '
     '[deploy] boom", "sample_id": null, "retryable": false, '
     '"traceback": null}'),
    ('FuzzError', 'full',
     '[fuzz fake_eos[3]] boom',
     '{"type": "FuzzError", "stage": "fuzz", "message": "[fuzz '
     'fake_eos[3]] boom", "sample_id": "fake_eos[3]", "retryable": true, '
     '"traceback": "Traceback: boom"}',
     '{"type": "FuzzError", "stage": "fuzz", "message": "[fuzz '
     'fake_eos[3]] [fuzz fake_eos[3]] boom", "sample_id": "fake_eos[3]", '
     '"retryable": true, "traceback": "Traceback: boom"}'),
    ('FuzzError', 'bare',
     '[fuzz] boom',
     '{"type": "FuzzError", "stage": "fuzz", "message": "[fuzz] boom", '
     '"sample_id": null, "retryable": false, "traceback": null}',
     '{"type": "FuzzError", "stage": "fuzz", "message": "[fuzz] [fuzz] '
     'boom", "sample_id": null, "retryable": false, "traceback": null}'),
    ('TrapStorm', 'full',
     '[fuzz fake_eos[3]] boom',
     '{"type": "TrapStorm", "stage": "fuzz", "message": "[fuzz '
     'fake_eos[3]] boom", "sample_id": "fake_eos[3]", "retryable": true, '
     '"traceback": "Traceback: boom"}',
     '{"type": "TrapStorm", "stage": "fuzz", "message": "[fuzz '
     'fake_eos[3]] [fuzz fake_eos[3]] boom", "sample_id": "fake_eos[3]", '
     '"retryable": true, "traceback": "Traceback: boom"}'),
    ('TrapStorm', 'bare',
     '[fuzz] boom',
     '{"type": "TrapStorm", "stage": "fuzz", "message": "[fuzz] boom", '
     '"sample_id": null, "retryable": false, "traceback": null}',
     '{"type": "TrapStorm", "stage": "fuzz", "message": "[fuzz] [fuzz] '
     'boom", "sample_id": null, "retryable": false, "traceback": null}'),
    ('SymbackError', 'full',
     '[symback fake_eos[3]] boom',
     '{"type": "SymbackError", "stage": "symback", "message": "[symback '
     'fake_eos[3]] boom", "sample_id": "fake_eos[3]", "retryable": true, '
     '"traceback": "Traceback: boom"}',
     '{"type": "SymbackError", "stage": "symback", "message": "[symback '
     'fake_eos[3]] [symback fake_eos[3]] boom", "sample_id": '
     '"fake_eos[3]", "retryable": true, "traceback": "Traceback: boom"}'),
    ('SymbackError', 'bare',
     '[symback] boom',
     '{"type": "SymbackError", "stage": "symback", "message": "[symback] '
     'boom", "sample_id": null, "retryable": false, "traceback": null}',
     '{"type": "SymbackError", "stage": "symback", "message": "[symback] '
     '[symback] boom", "sample_id": null, "retryable": false, '
     '"traceback": null}'),
    ('SolverError', 'full',
     '[solve fake_eos[3]] boom',
     '{"type": "SolverError", "stage": "solve", "message": "[solve '
     'fake_eos[3]] boom", "sample_id": "fake_eos[3]", "retryable": true, '
     '"traceback": "Traceback: boom"}',
     '{"type": "SolverError", "stage": "solve", "message": "[solve '
     'fake_eos[3]] [solve fake_eos[3]] boom", "sample_id": '
     '"fake_eos[3]", "retryable": true, "traceback": "Traceback: boom"}'),
    ('SolverError', 'bare',
     '[solve] boom',
     '{"type": "SolverError", "stage": "solve", "message": "[solve] '
     'boom", "sample_id": null, "retryable": false, "traceback": null}',
     '{"type": "SolverError", "stage": "solve", "message": "[solve] '
     '[solve] boom", "sample_id": null, "retryable": false, "traceback": '
     'null}'),
    ('DivergenceError', 'full',
     '[divergence fake_eos[3]] boom at func 3 pc 42 (i32.add)',
     '{"type": "DivergenceError", "stage": "divergence", "message": '
     '"[divergence fake_eos[3]] boom at func 3 pc 42 (i32.add)", '
     '"sample_id": "fake_eos[3]", "retryable": true, "traceback": '
     '"Traceback: boom", "func_index": 3, "pc": 42, "opcode": "i32.add", '
     '"shadow": 1, "traced": 2}',
     '{"type": "DivergenceError", "stage": "divergence", "message": '
     '"[divergence fake_eos[3]] [divergence fake_eos[3]] boom at func 3 '
     'pc 42 (i32.add) at func 3 pc 42 (i32.add)", "sample_id": '
     '"fake_eos[3]", "retryable": true, "traceback": "Traceback: boom", '
     '"func_index": 3, "pc": 42, "opcode": "i32.add", "shadow": 1, '
     '"traced": 2}'),
    ('DivergenceError', 'bare',
     '[divergence] boom',
     '{"type": "DivergenceError", "stage": "divergence", "message": '
     '"[divergence] boom", "sample_id": null, "retryable": false, '
     '"traceback": null, "func_index": null, "pc": null, "opcode": null, '
     '"shadow": null, "traced": null}',
     '{"type": "DivergenceError", "stage": "divergence", "message": '
     '"[divergence] [divergence] boom", "sample_id": null, "retryable": '
     'false, "traceback": null, "func_index": null, "pc": null, '
     '"opcode": null, "shadow": null, "traced": null}'),
    ('ScanError', 'full',
     '[scan fake_eos[3]] boom',
     '{"type": "ScanError", "stage": "scan", "message": "[scan '
     'fake_eos[3]] boom", "sample_id": "fake_eos[3]", "retryable": true, '
     '"traceback": "Traceback: boom"}',
     '{"type": "ScanError", "stage": "scan", "message": "[scan '
     'fake_eos[3]] [scan fake_eos[3]] boom", "sample_id": "fake_eos[3]", '
     '"retryable": true, "traceback": "Traceback: boom"}'),
    ('ScanError', 'bare',
     '[scan] boom',
     '{"type": "ScanError", "stage": "scan", "message": "[scan] boom", '
     '"sample_id": null, "retryable": false, "traceback": null}',
     '{"type": "ScanError", "stage": "scan", "message": "[scan] [scan] '
     'boom", "sample_id": null, "retryable": false, "traceback": null}'),
    ('TraceCorruption', 'full',
     '[trace fake_eos[3]] boom (path=t.tir, line=9, section=events, '
     'byte=64)',
     '{"type": "TraceCorruption", "stage": "trace", "message": "[trace '
     'fake_eos[3]] boom (path=t.tir, line=9, section=events, byte=64)", '
     '"sample_id": "fake_eos[3]", "retryable": true, "traceback": '
     '"Traceback: boom", "path": "t.tir", "line": 9, "section": '
     '"events", "offset": 64}',
     '{"type": "TraceCorruption", "stage": "trace", "message": "[trace '
     'fake_eos[3]] [trace fake_eos[3]] boom (path=t.tir, line=9, '
     'section=events, byte=64) (path=t.tir, line=9, section=events, '
     'byte=64)", "sample_id": "fake_eos[3]", "retryable": true, '
     '"traceback": "Traceback: boom", "path": "t.tir", "line": 9, '
     '"section": "events", "offset": 64}'),
    ('TraceCorruption', 'bare',
     '[trace] boom',
     '{"type": "TraceCorruption", "stage": "trace", "message": "[trace] '
     'boom", "sample_id": null, "retryable": false, "traceback": null, '
     '"path": null, "line": null, "section": null, "offset": null}',
     '{"type": "TraceCorruption", "stage": "trace", "message": "[trace] '
     '[trace] boom", "sample_id": null, "retryable": false, "traceback": '
     'null, "path": null, "line": null, "section": null, "offset": null}'),
    ('TaskTimeout', 'full',
     '[task fake_eos[3]] boom',
     '{"type": "TaskTimeout", "stage": "task", "message": "[task '
     'fake_eos[3]] boom", "sample_id": "fake_eos[3]", "retryable": true, '
     '"traceback": "Traceback: boom", "elapsed_s": 2.5}',
     '{"type": "TaskTimeout", "stage": "task", "message": "[task '
     'fake_eos[3]] [task fake_eos[3]] boom", "sample_id": "fake_eos[3]", '
     '"retryable": true, "traceback": "Traceback: boom", "elapsed_s": '
     '2.5}'),
    ('TaskTimeout', 'bare',
     '[task] boom',
     '{"type": "TaskTimeout", "stage": "task", "message": "[task] boom", '
     '"sample_id": null, "retryable": true, "traceback": null, '
     '"elapsed_s": 0.0}',
     '{"type": "TaskTimeout", "stage": "task", "message": "[task] [task] '
     'boom", "sample_id": null, "retryable": true, "traceback": null, '
     '"elapsed_s": 0.0}'),
    ('WorkerCrash', 'full',
     '[task fake_eos[3]] boom',
     '{"type": "WorkerCrash", "stage": "task", "message": "[task '
     'fake_eos[3]] boom", "sample_id": "fake_eos[3]", "retryable": true, '
     '"traceback": "Traceback: boom", "exitcode": -9}',
     '{"type": "WorkerCrash", "stage": "task", "message": "[task '
     'fake_eos[3]] [task fake_eos[3]] boom", "sample_id": "fake_eos[3]", '
     '"retryable": true, "traceback": "Traceback: boom", "exitcode": -9}'),
    ('WorkerCrash', 'bare',
     '[task] boom',
     '{"type": "WorkerCrash", "stage": "task", "message": "[task] boom", '
     '"sample_id": null, "retryable": true, "traceback": null, '
     '"exitcode": null}',
     '{"type": "WorkerCrash", "stage": "task", "message": "[task] [task] '
     'boom", "sample_id": null, "retryable": true, "traceback": null, '
     '"exitcode": null}'),
    ('DeadlineExceeded', 'full',
     '[deadline fake_eos[3]] boom',
     '{"type": "DeadlineExceeded", "stage": "deadline", "message": '
     '"[deadline fake_eos[3]] boom", "sample_id": "fake_eos[3]", '
     '"retryable": true, "traceback": "Traceback: boom", '
     '"deadline_epoch_s": 1700000000.5, "elapsed_s": 0.25}',
     '{"type": "DeadlineExceeded", "stage": "deadline", "message": '
     '"[deadline fake_eos[3]] [deadline fake_eos[3]] boom", "sample_id": '
     '"fake_eos[3]", "retryable": true, "traceback": "Traceback: boom", '
     '"deadline_epoch_s": 1700000000.5, "elapsed_s": 0.25}'),
    ('DeadlineExceeded', 'bare',
     '[deadline] boom',
     '{"type": "DeadlineExceeded", "stage": "deadline", "message": '
     '"[deadline] boom", "sample_id": null, "retryable": false, '
     '"traceback": null, "deadline_epoch_s": null, "elapsed_s": 0.0}',
     '{"type": "DeadlineExceeded", "stage": "deadline", "message": '
     '"[deadline] [deadline] boom", "sample_id": null, "retryable": '
     'false, "traceback": null, "deadline_epoch_s": null, "elapsed_s": '
     '0.0}'),
]


def test_every_class_is_pinned_full_and_bare():
    pinned = {(name, label) for name, label, *_ in CASES}
    classes = [getattr(errors, name) for name in errors.__all__]
    assert pinned == {(cls.__name__, label) for cls in classes
                      if isinstance(cls, type)
                      and issubclass(cls, errors.CampaignError)
                      for label in ("full", "bare")}


@pytest.mark.parametrize("name, label, text, doc_json, revived_json", CASES,
                         ids=[f"{case[0]}-{case[1]}" for case in CASES])
def test_error_schema_is_pinned(name, label, text, doc_json,
                                revived_json):
    cls = getattr(errors, name)
    kwargs = {**FULL, **PAYLOAD.get(name, {})} if label == "full" else {}
    error = cls("boom", **kwargs)
    assert str(error) == text
    assert json.dumps(error.to_doc()) == doc_json
    revived = errors.CampaignError.from_doc(error.to_doc())
    assert json.dumps(revived.to_doc()) == revived_json
    assert type(revived) is cls
    assert str(revived) == json.loads(revived_json)["message"]
