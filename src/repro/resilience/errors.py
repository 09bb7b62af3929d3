"""The structured campaign error taxonomy.

Every failure inside an evaluation campaign is represented as a
:class:`CampaignError`: a typed exception carrying the pipeline
*stage* it arose in, the *sample* it belongs to, whether a retry can
plausibly help, and the captured traceback of the original exception.
The harness, the parallel executor, the solver and Symback all raise
(or wrap into) these instead of ad-hoc exceptions, so containment
policy decisions — retry, degrade to black-box fuzzing, quarantine —
can be made on structure rather than on string matching.

Stages mirror the pipeline: ``instrument`` -> ``deploy`` -> ``fuzz``
(-> ``symback`` -> ``solve`` per iteration) -> ``scan``; ``task`` is
the executor-level envelope (worker crash / wall-clock timeout).
"""

from __future__ import annotations

import traceback as _tb

__all__ = [
    "CampaignError", "MalformedModule", "InstrumentError", "DeployError",
    "FuzzError", "TrapStorm", "SymbackError", "SolverError",
    "DivergenceError", "ScanError", "TraceCorruption", "TaskTimeout",
    "WorkerCrash", "DeadlineExceeded", "STAGES", "DEGRADABLE_STAGES",
]

# Pipeline stages, in execution order, plus the executor envelope.
# ``ingest`` precedes instrumentation: it is where untrusted bytes are
# parsed and validated under budget.  ``divergence`` is raised out of
# symbolic replay but is policed separately from ``symback`` because it
# must never be degraded away (a diverged replay means the *oracles*
# would lie, not that replay is merely unavailable).  ``trace`` is the
# durable trace IR layer: decoding a stored/offline trace back into
# events, which can fail independently of the run that produced it.
STAGES = ("ingest", "instrument", "deploy", "fuzz", "symback", "solve",
          "divergence", "trace", "scan", "deadline", "task")

# Stages whose failure leaves the black-box mutation loop intact: a
# campaign that cannot replay or solve can still fuzz (ConFuzzius-style
# graceful degradation; EOSFuzzer *is* that loop).  The scan service
# gates forced black-box mode on these stages' breakers, probing them
# in this order.
DEGRADABLE_STAGES = ("symback", "solve")


class CampaignError(Exception):
    """Base of the taxonomy; subclasses pin ``stage`` / ``retryable``.

    A subclass declares its payload once: ``FIELDS`` maps each field
    name to its default, in ``to_doc`` order, and ``CONTEXT`` lists the
    ``(label, field)`` pairs ``__str__`` appends as ``(label=value,
    ...)`` when set.  Construction, serialization and the round trip
    through :meth:`from_doc` all follow from those two declarations.
    """

    stage: str = "campaign"
    retryable: bool = False
    FIELDS: dict = {}
    CONTEXT: tuple = ()

    def __init__(self, message: str = "", *, stage: str | None = None,
                 sample_id: str | None = None,
                 retryable: bool | None = None,
                 traceback_str: str | None = None, **fields):
        super().__init__(message)
        unknown = fields.keys() - self.FIELDS.keys()
        if unknown:
            raise TypeError(f"{type(self).__name__} has no field(s) "
                            f"{', '.join(sorted(unknown))}")
        if stage is not None:
            self.stage = stage
        if retryable is not None:
            self.retryable = retryable
        self.sample_id = sample_id
        self.traceback_str = traceback_str
        for name, default in self.FIELDS.items():
            setattr(self, name, fields.get(name, default))

    @classmethod
    def wrap(cls, exc: BaseException, *, sample_id: str | None = None,
             retryable: bool | None = None) -> "CampaignError":
        """Lift an in-flight exception into the taxonomy.

        An exception that already is a :class:`CampaignError` passes
        through unchanged (its stage is more precise than the
        wrapper's); anything else is captured together with its
        formatted traceback.  Call only from an ``except`` block.
        """
        if isinstance(exc, CampaignError):
            if sample_id is not None and exc.sample_id is None:
                exc.sample_id = sample_id
            return exc
        return cls(f"{type(exc).__name__}: {exc}", sample_id=sample_id,
                   retryable=retryable, traceback_str=_tb.format_exc())

    # -- serialization (journal / cross-process reporting) -----------------
    def to_doc(self) -> dict:
        return {
            "type": type(self).__name__,
            "stage": self.stage,
            "message": str(self),
            "sample_id": self.sample_id,
            "retryable": self.retryable,
            "traceback": self.traceback_str,
            **{name: getattr(self, name) for name in self.FIELDS},
        }

    @staticmethod
    def from_doc(doc: dict) -> "CampaignError":
        cls = _REGISTRY.get(doc.get("type", ""), CampaignError)
        return cls(doc.get("message", ""), stage=doc.get("stage"),
                   sample_id=doc.get("sample_id"),
                   retryable=doc.get("retryable"),
                   traceback_str=doc.get("traceback"),
                   **{name: doc[name] for name in cls.FIELDS
                      if name in doc})

    def __str__(self) -> str:
        base = super().__str__()
        where = f"[{self.stage}"
        if self.sample_id:
            where += f" {self.sample_id}"
        context = [f"{label}={getattr(self, name)}"
                   for label, name in self.CONTEXT
                   if getattr(self, name) is not None]
        text = f"{where}] {base}"
        return f"{text} ({', '.join(context)})" if context else text


class MalformedModule(CampaignError):
    """Untrusted bytes were rejected during sandboxed ingestion.

    Raised by :func:`repro.wasm.hardening.load_untrusted_module` for
    every way a hostile binary can fail to become a budgeted, validated
    :class:`~repro.wasm.module.Module`: parse errors, budget
    violations, validation failures, and any raw Python exception
    (``IndexError``, ``RecursionError``, ``MemoryError``, ...) escaping
    those layers.  Never retryable — the bytes will not improve.
    ``offset`` is the absolute byte offset of the defect when known;
    ``section`` names the section being decoded.
    """

    stage = "ingest"
    retryable = False
    FIELDS = {"offset": None, "section": None}
    CONTEXT = (("section", "section"), ("byte", "offset"))


class InstrumentError(CampaignError):
    """The bin -> bin' rewrite failed for this module."""

    stage = "instrument"


class DeployError(CampaignError):
    """Chain setup or contract deployment failed."""

    stage = "deploy"


class FuzzError(CampaignError):
    """The fuzzing loop itself failed (not one contained iteration)."""

    stage = "fuzz"


class TrapStorm(FuzzError):
    """A victim execution trapped in a way the loop must contain."""


class SymbackError(CampaignError):
    """Symbolic trace replay failed; black-box fuzzing still works."""

    stage = "symback"


class SolverError(CampaignError):
    """The constraint solver failed; black-box fuzzing still works."""

    stage = "solve"


class DivergenceError(CampaignError):
    """Symbolic replay's concrete shadow disagreed with the trace.

    The divergence sentinel cross-checks fully-concrete symbolic
    values against the recorded concrete operands at branch, memory-op
    and host-call checkpoints.  A mismatch means the symbolic machine
    is no longer simulating the execution the interpreter actually
    ran, so every oracle verdict derived from that trace would be
    unsound.  The trace is quarantined, never degraded to black-box
    (``divergence`` is deliberately absent from
    :data:`DEGRADABLE_STAGES`) and never retried.  ``func_index`` /
    ``pc`` / ``opcode`` locate the first diverging checkpoint;
    ``shadow`` / ``traced`` are the disagreeing concrete values.
    """

    stage = "divergence"
    retryable = False
    FIELDS = {"func_index": None, "pc": None, "opcode": None,
              "shadow": None, "traced": None}

    def __str__(self) -> str:
        base = super().__str__()
        if self.opcode is not None:
            base += (f" at func {self.func_index} pc {self.pc} "
                     f"({self.opcode})")
        return base


class ScanError(CampaignError):
    """The vulnerability scan over the observation log failed."""

    stage = "scan"


class TraceCorruption(CampaignError):
    """A stored trace failed to decode losslessly back into events.

    Raised by the trace IR codec (:mod:`repro.traceir`) and the
    offline trace-file loaders for every way a durable trace can rot:
    truncation, a flipped bit caught by a section CRC, an unknown
    ``TRACEIR_VERSION``, a malformed JSONL line, framing that runs
    past the blob.  Never retryable — the bytes on disk will not
    improve — and never degradable: a trace that cannot be decoded
    must be quarantined and its module re-scanned, because *any*
    events recovered from it could make the oracles lie.  ``path`` /
    ``line`` locate the defect in an offline trace file; ``section``
    / ``offset`` locate it inside an IR blob.
    """

    stage = "trace"
    retryable = False
    FIELDS = {"path": None, "line": None, "section": None, "offset": None}
    CONTEXT = (("path", "path"), ("line", "line"), ("section", "section"),
               ("byte", "offset"))


class TaskTimeout(CampaignError):
    """The executor killed an overrunning worker (real wall-clock)."""

    stage = "task"
    retryable = True
    FIELDS = {"elapsed_s": 0.0}


class DeadlineExceeded(CampaignError):
    """The caller's wall-clock deadline passed before the work finished.

    Unlike :class:`TaskTimeout` (the service's own per-task watchdog,
    which retries because the *next* attempt may fit the budget), a
    caller deadline is absolute: once it has passed nobody is waiting
    for the answer, so the job must terminate with a typed
    ``deadline_exceeded`` doc and never consume a fresh campaign
    budget.  Never retryable, never degradable, and ``deadline`` is
    deliberately absent from the circuit-breaker stages — an impatient
    caller is not a pipeline fault.  ``deadline_epoch_s`` is the
    absolute wall-clock deadline; ``elapsed_s`` is how much work (if
    any) was burned before the cut-off was noticed.
    """

    stage = "deadline"
    retryable = False
    FIELDS = {"deadline_epoch_s": None, "elapsed_s": 0.0}


class WorkerCrash(CampaignError):
    """A worker process died (segfault, ``os._exit``, OOM kill)."""

    stage = "task"
    retryable = True
    FIELDS = {"exitcode": None}


_REGISTRY = {cls.__name__: cls for cls in (
    CampaignError, MalformedModule, InstrumentError, DeployError,
    FuzzError, TrapStorm, SymbackError, SolverError, DivergenceError,
    ScanError, TraceCorruption, TaskTimeout, WorkerCrash,
    DeadlineExceeded)}

