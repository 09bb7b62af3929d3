"""repro.resilience — the fault-tolerant campaign layer.

At the scale the evaluation targets (hour-long wild studies, thousands
of independent campaigns) a single crashing contract, hung solver or
killed worker must neither sink the run nor silently skew the tables.
This package makes every corpus-scale pipeline survivable:

* :mod:`repro.resilience.errors` — the structured
  :class:`CampaignError` taxonomy (stage, sample, retryability,
  captured traceback) the whole pipeline raises instead of ad-hoc
  exceptions;
* :mod:`repro.resilience.policy` — :class:`ResiliencePolicy` (bounded
  immediate retry, quarantine threshold, and the one retry rule,
  :meth:`ResiliencePolicy.after_failure`, that the task runner and the
  scan service share) and the :class:`Quarantine` ledger;
* :mod:`repro.resilience.journal` — the append-only JSONL
  checkpoint/resume journal keyed by sample + config hash;
* :mod:`repro.resilience.runner` — :func:`run_resilient_tasks`, the
  containment wrapper around the parallel executor;
* :mod:`repro.resilience.faultinject` — the deterministic
  fault-injection harness ``tests/resilience`` uses to prove every
  containment path.
"""

from .errors import (CampaignError, DEGRADABLE_STAGES, DeadlineExceeded,
                     DeployError, DivergenceError, FuzzError,
                     InstrumentError, MalformedModule, STAGES, ScanError,
                     SolverError, SymbackError, TaskTimeout,
                     TraceCorruption, TrapStorm, WorkerCrash)
from .faultinject import (Fault, FaultPlan, WorkerKill,
                          clear_fault_plan, fault_plan, fault_scope,
                          inject, install_fault_plan, set_fault_scope)
from .journal import (CampaignJournal, campaign_result_from_doc,
                      campaign_result_to_doc, campaign_task_key)
from .policy import Quarantine, ResiliencePolicy, run_with_retry
from .runner import ResilientRun, run_resilient_tasks

__all__ = [
    "CampaignError", "MalformedModule", "InstrumentError", "DeployError",
    "FuzzError", "TrapStorm", "SymbackError", "SolverError",
    "DivergenceError", "ScanError", "TraceCorruption", "TaskTimeout",
    "WorkerCrash", "DeadlineExceeded", "STAGES", "DEGRADABLE_STAGES",
    "Fault", "FaultPlan", "WorkerKill", "install_fault_plan",
    "clear_fault_plan",
    "fault_plan", "set_fault_scope", "fault_scope", "inject",
    "CampaignJournal", "campaign_task_key", "campaign_result_to_doc",
    "campaign_result_from_doc",
    "ResiliencePolicy", "Quarantine", "run_with_retry",
    "ResilientRun", "run_resilient_tasks",
]
