"""The fault-tolerant task runner shared by the evaluation pipelines.

:func:`run_resilient_tasks` wraps :func:`repro.parallel.run_tasks`
with the campaign-level containment the corpus drivers need:

* **checkpointing** — every completed result is appended to the
  journal as it arrives, so an interrupted run loses at most the
  in-flight samples;
* **resume** — with ``resume=True`` journaled results are reused
  verbatim (no recomputation) before any worker starts;
* **bounded retry** — samples whose *task* failed (worker crash,
  wall-clock timeout, an exception that escaped the taxonomy) are
  re-run in the next round, immediately, up to ``policy.max_retries``
  times;
* **quarantine** — a sample that keeps failing is benched after
  ``policy.quarantine_after`` failures and reported, never silently
  dropped.

Both decisions are :meth:`ResiliencePolicy.after_failure`, the same
rule the scan service applies to a failed job.

Determinism: retry rounds re-run the *same* task payloads (same RNG
seeds), results are keyed by global task index, and reused journal
entries are byte-equivalent to fresh computations, so the folded
tables never depend on scheduling, interruption or retry history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .journal import (CampaignJournal, campaign_result_from_doc,
                      campaign_result_to_doc, campaign_task_key)
from .policy import Quarantine, ResiliencePolicy

__all__ = ["ResilientRun", "run_resilient_tasks"]


@dataclass
class ResilientRun:
    """Everything a corpus driver needs to fold results into tables."""

    results: list              # one TaskResult per task, in task order
    quarantine: Quarantine
    retries: int = 0           # task-level re-runs performed
    failed_attempts: int = 0   # task attempts that did not complete
    sample_keys: list = field(default_factory=list)
    reused_indices: set = field(default_factory=set)  # from the journal

    def skip_reason(self, index: int) -> str | None:
        """Why task ``index`` has no usable result (None = it has one)."""
        result = self.results[index]
        if result.ok:
            return None
        key = self.sample_keys[index]
        if self.quarantine.is_quarantined(key):
            count = self.quarantine.failure_count(key)
            return f"quarantined after {count} failures ({result.error})"
        return result.error or "task failed"


def run_resilient_tasks(worker, tasks, *, jobs: int = 1,
                        timeout_s: float | None = None,
                        policy: ResiliencePolicy | None = None,
                        journal: "CampaignJournal | str | None" = None,
                        resume: bool = False) -> ResilientRun:
    """Run campaign tasks with checkpointing, retry and quarantine."""
    from ..parallel import TaskResult, run_tasks

    policy = policy or ResiliencePolicy()
    tasks = list(tasks)
    keys = [getattr(task, "sample_key", None) or str(index)
            for index, task in enumerate(tasks)]
    run = ResilientRun(results=[None] * len(tasks),
                       quarantine=Quarantine(policy.quarantine_after),
                       sample_keys=keys)

    if isinstance(journal, CampaignJournal):
        journal_obj = journal
    else:
        journal_obj = CampaignJournal(journal) if journal else None
    journal_keys = ([campaign_task_key(task) for task in tasks]
                    if journal_obj else None)
    if journal_obj is not None and resume:
        entries = journal_obj.load()
        for index, journal_key in enumerate(journal_keys):
            doc = entries.get(journal_key)
            if doc is None:
                continue
            run.results[index] = TaskResult(
                index, True, campaign_result_from_doc(doc["result"]))
            run.reused_indices.add(index)

    pending = [i for i in range(len(tasks)) if run.results[i] is None]
    attempt = 0
    while pending:
        batch_indices = list(pending)
        on_result = None
        if journal_obj is not None:
            def on_result(result, _indices=batch_indices):
                if result.ok:
                    global_index = _indices[result.index]
                    journal_obj.record(
                        journal_keys[global_index],
                        campaign_result_to_doc(result.value))
        batch = run_tasks(worker, [tasks[i] for i in batch_indices],
                          jobs=jobs, timeout_s=timeout_s,
                          on_result=on_result)
        pending = []
        for local_index, result in enumerate(batch):
            global_index = batch_indices[local_index]
            rebased = TaskResult(global_index, result.ok, result.value,
                                 result.error, result.elapsed_s,
                                 result.error_type, result.traceback)
            if result.ok:
                run.results[global_index] = rebased
                continue
            run.failed_attempts += 1
            if policy.after_failure(run.quarantine, keys[global_index],
                                    result.error or "task failed",
                                    attempt + 1) == "retry":
                pending.append(global_index)
            else:
                run.results[global_index] = rebased
        if pending:
            attempt += 1
            run.retries += len(pending)
    return run
