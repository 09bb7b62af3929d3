"""The scan service core: admission, dedup, supervised workers,
circuit breakers and storage self-healing.

:class:`ScanService` glues the persistent :class:`ArtifactStore`, the
:class:`JobQueue` and a supervised pool of worker threads into the
long-lived analyzer the HTTP daemon fronts.  One submission
travels::

    bytes -> ingest (sandboxed, typed reject) -> scan_key
          -> store hit?        -> cached verdict, no job runs
          -> in-flight twin?   -> coalesce onto the running job
          -> admission bound   -> typed QueueFull shed
          -> queued -> running -> done | failed | quarantined
                                  | deadline_exceeded

A per-job ``ttl_s`` (or the ``job_ttl_s`` default) is a relative
deadline: admission folds it into the absolute one, so a single clock
is checked at every hand-off and travels with drain checkpoints.

Dedup levels:

* **store hit** — an identical module+config was already scanned
  (possibly in a previous process): the stored verdict is returned
  immediately and byte-identically, no worker involved;
* **single-flight coalescing** — an identical submission is already
  queued or running: the new submission attaches to that job instead
  of enqueuing a twin, so N concurrent identical uploads cost exactly
  one fuzzing campaign.

Self-healing (this PR's tentpole) has four pillars:

* **worker supervision** — workers run under a
  :class:`~repro.service.supervisor.WorkerSupervisor` watchdog.  Every
  job carries a *claim token* (``worker-name#generation``) stamped
  under the service lock; every completion path re-checks the claim,
  so when the watchdog reaps a dead or hung worker and requeues its
  job, whatever the zombie eventually produces is a no-op — the job is
  requeued *exactly once*.  A restart storm (too many replacements per
  window) degrades the service to draining instead of crash-looping.
* **circuit breakers** — a :class:`~repro.service.health.BreakerBoard`
  counts consecutive per-stage failures across jobs, crediting a job
  only with the stages its tool ran.  While a breaker on a degradable
  stage (symbolic replay, solver) is open, new WASAI jobs are forced
  into black-box-only scanning; one probe job per half-open window
  runs the full pipeline to test recovery.  Only a full answer is
  persisted: a reduced one — breaker-forced, browned out by pressure,
  or degraded inside the fuzzer — says why in its provenance's
  ``reduced`` field and answers its caller, but never becomes the
  cached verdict for its scan key.
* **storage integrity** — every store access routes through a healing
  wrapper: a typed :class:`StoreCorruption` (checksum mismatch or a
  malformed SQLite image) quarantines the corrupt database file aside
  and rebuilds a fresh store by replaying the store's own verdict log.
  Budget exhaustion surfaces as typed disk backpressure
  (``QueueFull(kind="disk")``), never a crash.
* **chaos-ready chokepoints** — the worker loop, the store's disk
  guard and the verdict-log writes all pass deterministic
  fault-injection chokepoints, so ``wasai chaos`` can rehearse every
  healing path against a live daemon.

Failure containment reuses the resilience policy end to end:
``run_campaign_task`` retries *inside* the job (the fuzzer degrades to
black-box on its own), and the service retries whole failed jobs under
the same rule as the batch runner,
:meth:`~repro.resilience.ResiliencePolicy.after_failure`: up to
``policy.max_retries`` retries, the scan key benched after
``policy.quarantine_after`` failures.

The :class:`ArtifactStore` is the only durable interface: it logs every
verdict write, rewrite and drop for rebuilds, and holds the drain
checkpoints that :meth:`ScanService.resume` (run by
:meth:`~ScanService.start`) resubmits once each and deletes.

Every count ``GET /stats`` shows is kept once, by whoever sees the
event: the service's own events through :meth:`ScanService.count`
(one ``collections.Counter`` behind a leaf lock), worker restarts by
the supervisor, breaker trips and recoveries by the breaker board,
promotions by the queue, rows by the store.  :meth:`~ScanService.
stats` only renders them.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
import uuid
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from ..eosio.abi import Abi
from ..metrics import ThroughputStats
from ..parallel.campaigns import CampaignTask, run_campaign_task
from ..resilience import (DEGRADABLE_STAGES, MalformedModule, Quarantine,
                          ResiliencePolicy, WorkerKill,
                          campaign_task_key)
from ..resilience.faultinject import inject
from ..resilience.journal import (campaign_result_from_doc,
                                  campaign_result_to_doc)
from ..scanner.report import report_to_json
from ..wasm.hardening import load_untrusted_module
from .health import BREAKER_STAGES, BreakerBoard
from .integrity import StoreBudgetExceeded, StoreCorruption
from .overload import SHED_KINDS, OverloadController
from .queue import Job, JobQueue, QueueFull
from .store import ArtifactStore
from .supervisor import WorkerRecord, WorkerSupervisor

__all__ = ["ScanService", "ScanServiceConfig", "Submission",
           "DEFAULT_SCAN_CONFIG"]

# The breaker stages each tool's campaign runs (EOSAFE runs none).
_TOOL_STAGES = {"wasai": BREAKER_STAGES,
                "eosfuzzer": ("instrument", "deploy", "fuzz")}

DEFAULT_SCAN_CONFIG = {
    "tool": "wasai",
    "timeout_ms": 30_000.0,
    "rng_seed": 1,
    "address_pool": False,
    "divergence_check": True,
    # Enabled oracle families (any repro.semoracle.resolve_oracles
    # spec).  None = the paper's five; keeps scan keys byte-compatible
    # with pre-semantic stores.
    "oracles": None,
}


@dataclass(frozen=True)
class ScanServiceConfig:
    """Operator knobs for one daemon instance."""

    workers: int = 2
    # Admission bound: at most max_depth + workers jobs queued or
    # running (the ceiling of the AIMD limit).
    max_depth: int = 64
    poll_s: float = 0.2          # worker queue poll interval
    default_timeout_ms: float = 30_000.0
    # -- self-healing knobs ------------------------------------------------
    job_ttl_s: float | None = None       # default per-job relative deadline
    promote_after_s: float | None = None  # anti-starvation promotion age
    task_deadline_s: float = 300.0       # claim age before "hung"
    watchdog_poll_s: float = 0.25
    max_restarts: int = 8                # per restart_window_s, then storm
    restart_window_s: float = 60.0
    restart_backoff_s: float = 0.05
    breaker_threshold: int = 3           # consecutive failures to trip
    breaker_cooldown_s: float = 30.0     # base open->half_open cooldown
    store_max_bytes: int | None = None   # disk budget (typed shed)
    # -- trace IR / re-verdict knobs ---------------------------------------
    capture_traces: bool = False         # persist trace-IR packs
    drift_audit_s: float | None = None   # drift auditor cadence; None = off
    drift_audit_sample: int = 4          # traces replayed per audit round
    # -- semantic oracle knobs ---------------------------------------------
    oracles: "tuple | str | None" = None  # default family set for jobs
    # -- overload / brownout knobs -----------------------------------------
    # Job-latency SLO the AIMD controller defends; None = 30 s.  While
    # the observed p95 breaches it the admission limit shrinks (and
    # recovers additively once it is met again).
    target_p95_s: float | None = None
    # Housekeeping cadence: drives the idle-queue deadline sweep and
    # the controller's AIMD tick.  None disables the thread (tests
    # call housekeeping_once() by hand).
    housekeeping_s: float | None = 0.25
    overload_window_s: float = 60.0      # latency-sample horizon
    adjust_interval_s: float = 1.0       # min spacing of AIMD steps


@dataclass
class Submission:
    """What admission hands back: the job plus how it was satisfied."""

    job: Job
    # "queued" | "cached" | "coalesced" | "deadline_exceeded" (the
    # caller's deadline had already passed at admission)
    outcome: str


class ScanService:
    """A long-lived scan scheduler over the store + queue + workers."""

    def __init__(self, store: "ArtifactStore | str" = ":memory:",
                 config: ScanServiceConfig | None = None,
                 policy: ResiliencePolicy | None = None,
                 ingest_budget=None):
        self.config = config or ScanServiceConfig()
        self.store = (store if isinstance(store, ArtifactStore)
                      else ArtifactStore(
                          store, max_bytes=self.config.store_max_bytes))
        self.policy = policy or ResiliencePolicy()
        self.ingest_budget = ingest_budget
        self.queue = JobQueue(promote_after_s=self.config.promote_after_s,
                              on_expired=self._job_expired)
        self.quarantine = Quarantine(self.policy.quarantine_after)
        self.breakers = BreakerBoard(
            threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s)
        self.supervisor: WorkerSupervisor | None = None
        self.perf = ThroughputStats(jobs=self.config.workers)
        self.overload = OverloadController(
            self.config.max_depth + self.config.workers,
            target_p95_s=(self.config.target_p95_s
                          if self.config.target_p95_s is not None
                          else 30.0),
            latency_window_s=self.config.overload_window_s,
            adjust_interval_s=self.config.adjust_interval_s)
        self.started_s = time.time()

        self._lock = threading.RLock()
        self._heal_lock = threading.Lock()     # store recovery critical section
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}   # scan_key -> live job
        self._running_jobs: set[str] = set()  # job ids claimed by workers
        # The service's own event counts; written only by count().
        self._counts: Counter = Counter()
        self._count_lock = threading.Lock()
        self._storm = False
        self._accepting = True
        self._draining = False
        # -- housekeeping (sweeps + AIMD tick) ---------------------------
        self._housekeeper: threading.Thread | None = None
        self._housekeeper_stop = threading.Event()
        # -- trace IR / re-verdict state --------------------------------
        self._auditor: threading.Thread | None = None
        self._auditor_stop = threading.Event()
        self._audit_cursor = 0
        self._drift_incidents: list[dict] = []  # bounded, newest-last

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self.supervisor is not None:
            return
        cfg = self.config
        self.supervisor = WorkerSupervisor(
            self._worker_main, cfg.workers,
            task_deadline_s=cfg.task_deadline_s,
            watchdog_poll_s=cfg.watchdog_poll_s,
            max_restarts=cfg.max_restarts,
            restart_window_s=cfg.restart_window_s,
            restart_backoff_s=cfg.restart_backoff_s,
            on_reap=self._on_reap,
            on_storm=self._on_storm)
        self.supervisor.start()
        if cfg.drift_audit_s is not None and self._auditor is None:
            self._auditor_stop.clear()
            self._auditor = threading.Thread(
                target=self._auditor_main, name="drift-auditor",
                daemon=True)
            self._auditor.start()
        if cfg.housekeeping_s is not None and self._housekeeper is None:
            self._housekeeper_stop.clear()
            self._housekeeper = threading.Thread(
                target=self._housekeeper_main, name="housekeeper",
                daemon=True)
            self._housekeeper.start()
        self.resume()

    def drain(self, wait_s: float = 30.0) -> int:
        """Graceful shutdown: refuse new work, finish running jobs,
        checkpoint whatever is still queued.  Returns the number of
        jobs checkpointed to the store's ``pending`` table."""
        with self._lock:
            self._accepting = False
            self._draining = True
        self._auditor_stop.set()
        self._housekeeper_stop.set()
        if self._auditor is not None:
            self._auditor.join(wait_s)
            self._auditor = None
        if self._housekeeper is not None:
            self._housekeeper.join(wait_s)
            self._housekeeper = None
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor.join(wait_s)
        checkpointed = 0
        for job in self.queue.drain():
            if job.deadline_remaining_s() <= 0.0:
                # Checkpointing this job would resurrect work whose
                # deadline already passed: settle it instead, so
                # resume cannot re-run it.
                self._settle(job, None, "deadline_exceeded",
                             error="deadline passed during drain")
            elif not job.terminal:
                self._healed(lambda j=job: self.store.put_pending(
                    j.scan_key, self._recipe(j)))
                checkpointed += 1
        return checkpointed

    def stop(self, wait_s: float = 30.0) -> int:
        checkpointed = self.drain(wait_s)
        self.store.close()
        return checkpointed

    # -- storage self-healing ----------------------------------------------
    def _healed(self, op, default=None):
        """Run one store operation; on typed corruption, quarantine and
        rebuild the store, then retry once.  ``op`` must re-resolve
        ``self.store`` itself (the recovery swaps the instance)."""
        try:
            return op()
        except StoreCorruption as exc:
            self._recover_store(str(exc))
            try:
                return op()
            except StoreCorruption:
                return default

    def _recover_store(self, reason: str) -> int:
        """Quarantine the corrupt database file aside and rebuild a
        fresh store by replaying its verdict log.  Returns how many
        verdicts were restored."""
        # Recovery can fire from inside admission, with the service
        # lock held: never acquire self._lock under the heal lock.
        with self._heal_lock:
            self.count("integrity_repairs")
            old = self.store
            path = old.path
            try:
                old.close()
            except Exception:  # noqa: BLE001 - conn may be unusable
                pass
            if path != ":memory:":
                target = None
                for index in range(1000):
                    candidate = Path(f"{path}.corrupt-{index}")
                    if not candidate.exists():
                        target = candidate
                        break
                try:
                    if target is not None:
                        os.replace(path, target)
                except OSError:
                    pass
                for suffix in ("-wal", "-shm"):
                    # Sidecar files would resurrect the corrupt pages.
                    try:
                        os.remove(path + suffix)
                    except OSError:
                        pass
            self.store = ArtifactStore(path, max_bytes=old.max_bytes)
            try:
                return self.store.replay()
            except (OSError, StoreCorruption):
                return 0

    def integrity_sweep(self, repair: bool = True) -> dict:
        """Recompute every stored row's checksum; with ``repair`` the
        store is quarantined-and-rebuilt when anything is corrupt."""
        try:
            tables = self.store.verify_integrity()
        except StoreCorruption as exc:
            if not repair:
                raise
            self._recover_store(f"integrity sweep: {exc}")
            return {"tables": self.store.verify_integrity(),
                    "corrupt_rows": 0, "repaired": True}
        corrupt = sum(len(entry["corrupt"])
                      for entry in tables.values())
        repaired = False
        if corrupt and repair:
            self._recover_store(
                f"integrity sweep found {corrupt} corrupt rows")
            tables = self.store.verify_integrity()
            corrupt = sum(len(entry["corrupt"])
                          for entry in tables.values())
            repaired = True
        return {"tables": tables, "corrupt_rows": corrupt,
                "repaired": repaired}

    def compact_journal(self) -> int:
        """Compact the store's verdict log (safe on a live service)."""
        removed = self.store.compact_log()
        self.count("journal_compactions")
        return removed

    # -- admission ---------------------------------------------------------
    def _check_writable(self) -> None:
        """The drain gate every write passes first."""
        with self._lock:
            if not self._accepting:
                raise self._refuse("draining", "service is draining",
                                   floor=30.0)

    def _refuse(self, kind: str, message: str, *,
                floor: float = 0.0) -> QueueFull:
        """Count one refused submission and build its typed 429 (the
        caller raises it): the admitted jobs against the admission
        bound, and a Retry-After measured from the current backlog."""
        self.count(f"shed.{kind}")
        with self._lock:
            queued = self.queue.depth
            return QueueFull(
                message, kind=kind,
                depth=queued + len(self._running_jobs),
                limit=self.overload.effective_inflight(),
                retry_after_s=max(floor,
                                  self.overload.retry_after_s(queued)))

    def _admit_locked(self, job: Job, cost: "float | None" = None) -> None:
        """Queue ``job`` if the overload controller admits it (service
        lock held), else raise its typed 429.  ``cost`` is a campaign's
        estimated cost; a re-verdict sweep has none."""
        refusal = self.overload.admission_refusal(
            self.queue.depth + len(self._running_jobs), cost,
            job.priority)
        if refusal is not None:
            raise self._refuse(*refusal)
        self.queue.put(job)
        self._jobs[job.job_id] = job
        self._inflight[job.scan_key] = job

    def submit_bytes(self, data: bytes, abi_json: "Abi | str | dict",
                     config: dict | None = None, client: str = "anon",
                     priority: int = 0,
                     ttl_s: float | None = None,
                     deadline_epoch_s: float | None = None) -> Submission:
        """Admit one scan request from raw (untrusted) contract bytes;
        ``abi_json`` is the ABI as JSON text, a dict, or a parsed
        :class:`~repro.eosio.abi.Abi`.

        Raises :class:`~repro.resilience.MalformedModule` when the
        bytes fail sandboxed ingestion (the hostile upload never
        reaches a worker) and :class:`QueueFull` when draining, the
        store's disk budget or the overload controller's admission
        decision refuses it.  ``deadline_epoch_s`` is the caller's
        absolute wall-clock deadline; ``ttl_s`` (default: the
        ``job_ttl_s`` knob) is a relative one, folded in here as
        ``min(deadline_epoch_s, now + ttl_s)``.  An already-passed
        deadline returns a terminal ``deadline_exceeded`` job
        immediately (cache hits are still served — they cost
        nothing), and a live one rides the job end-to-end so every
        later hand-off re-checks it.
        """
        self._check_writable()
        # Sandboxed ingestion *before* admission: a hostile module is
        # rejected here with a typed MalformedModule diagnostic.
        try:
            module = load_untrusted_module(data,
                                           budget=self.ingest_budget)
        except MalformedModule:
            self.count("admission_rejected")
            raise
        if isinstance(abi_json, dict):
            abi_json = json.dumps(abi_json)
        abi = (abi_json if isinstance(abi_json, Abi)
               else Abi.from_json(abi_json))
        merged = dict(DEFAULT_SCAN_CONFIG,
                      timeout_ms=self.config.default_timeout_ms,
                      oracles=self.config.oracles)
        merged.update(config or {})
        from ..engine.deploy import module_content_hash
        module_hash = module_content_hash(module)
        if ttl_s is None:
            ttl_s = self.config.job_ttl_s
        if ttl_s is not None:
            deadline_epoch_s = min(
                time.time() + ttl_s,
                math.inf if deadline_epoch_s is None else deadline_epoch_s)
        task = CampaignTask(
            module, abi, tools=(merged["tool"],),
            timeout_ms=float(merged["timeout_ms"]),
            rng_seed=int(merged["rng_seed"]),
            address_pool=bool(merged["address_pool"]),
            policy=self.policy,
            sample_key=f"{client}:{module_hash[:12]}",
            divergence_check=bool(merged["divergence_check"]),
            capture_traces=self.config.capture_traces,
            oracles=merged["oracles"],
            deadline_epoch_s=deadline_epoch_s)
        scan_key = campaign_task_key(task)
        stored_config = {key: merged[key] for key in DEFAULT_SCAN_CONFIG}
        if stored_config["oracles"] is not None:
            from ..semoracle.registry import resolve_oracles
            stored_config["oracles"] = list(
                resolve_oracles(stored_config["oracles"]))
        # Persist the upload before admission decisions: drain
        # checkpoints reference modules by hash, so the bytes
        # must already be durable by the time a job can be queued.  A
        # blown disk budget is typed backpressure, not a crash.
        try:
            self._healed(lambda: self.store.put_module(module_hash,
                                                       data))
        except StoreBudgetExceeded as exc:
            raise self._refuse("disk",
                               f"store disk budget exhausted: {exc}",
                               floor=5.0) from exc

        with self._lock:
            self.count("submissions")
            job = Job(job_id=uuid.uuid4().hex[:12], client=client,
                      scan_key=scan_key, module_hash=module_hash,
                      config=stored_config, priority=priority,
                      submitted_s=time.time(),
                      deadline_epoch_s=deadline_epoch_s)
            # Level 1: persistent store hit — serve the verdict now.
            result_doc = self._healed(
                lambda: self.store.get_verdict(scan_key))
            if result_doc is not None:
                self.count("cache_hits")
                return self._answered(job, "cached", result_doc)
            # Level 2: single-flight — attach to the live twin.
            twin = self._inflight.get(scan_key)
            if twin is not None and not twin.terminal:
                self.count("coalesce_hits")
                twin.waiters += 1
                return Submission(twin, "coalesced")
            # Deadline already passed: a fresh campaign budget must
            # never be spent on an answer nobody is waiting for.
            # Terminal typed doc, not a 429 — there is nothing to
            # retry, the caller's own clock ran out.
            if job.deadline_remaining_s() <= 0.0:
                self._settle(job, None, "deadline_exceeded",
                             error="caller deadline passed before "
                                   "admission")
                return self._answered(job, "deadline_exceeded")
            job.task = task
            self._admit_locked(job, OverloadController.admission_cost(
                len(data), len(stored_config["oracles"] or ()) or 5))
        return Submission(job, "queued")

    def _answered(self, job: Job, outcome: str,
                  result_doc: "dict | None" = None) -> Submission:
        """Register a job answered at admission (service lock held)."""
        if result_doc is not None:
            job.state, job.result_doc = "done", result_doc
            job.finished_s = job.submitted_s
        job.outcome = outcome
        self._jobs[job.job_id] = job
        return Submission(job, outcome)

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def submit_reverdict(self, oracle_version: int | None = None,
                         client: str = "reverdict",
                         priority: int = 0,
                         oracles=None) -> Submission:
        """Queue a store-wide re-verdict sweep as a first-class job.

        The sweep replays the scanner oracles over every stored
        trace-IR pack (see :mod:`repro.service.reverdict`) — zero
        re-fuzzing — and rewrites the affected verdicts with
        ``source: "replay"`` provenance.  Runs under the same worker
        supervision, claim protocol and admission bound as scan jobs.
        """
        self._check_writable()
        with self._lock:
            job_id = uuid.uuid4().hex[:12]
            job = Job(job_id=job_id, client=client,
                      scan_key=f"reverdict:{job_id}", module_hash="",
                      config={"kind": "reverdict", "tool": "wasai",
                              "oracle_version": oracle_version,
                              "oracles": (oracles if oracles is not None
                                          else self.config.oracles)},
                      priority=priority, submitted_s=time.time())
            self._admit_locked(job)
            self.count("submissions")
        return Submission(job, "queued")

    # -- workers -----------------------------------------------------------
    def _worker_main(self, record: WorkerRecord) -> None:
        """One supervised worker's loop (``record`` is its identity).

        The claim protocol: the job's ``claim`` field is stamped with
        this worker's token under the service lock *before* the
        campaign runs, and every completion path re-checks it.  When
        the watchdog revokes the claim (worker declared hung) the
        zombie's eventual result fails the check and is discarded —
        the requeued job is the only one that can complete.
        """
        while True:
            if self._draining or record.abandoned:
                return
            record.beat()
            job = self.queue.get(timeout=self.config.poll_s)
            if job is None:
                continue
            with self._lock:
                if self._draining or record.abandoned:
                    self.queue.put(job)  # back for drain
                    return
                if job.deadline_remaining_s() <= 0.0:
                    # Expired while queued (the sweep may not have
                    # seen it yet): terminal typed doc, no claim, no
                    # campaign budget spent.
                    self._job_expired(job)
                    continue
                record.claim_job(job)
                job.claim = record.token
                job.state = "running"
                job.started_s = time.time()
                self._running_jobs.add(job.job_id)
                reduced = self._dispatch_locked(job)
            # The chaos chokepoint sits AFTER the claim on purpose: an
            # injected kill/hang leaves a claimed job behind, which is
            # exactly the mess the watchdog must be able to heal.
            inject("worker")
            self._run_job(job, record.token, reduced)
            record.release_job()

    def _dispatch_locked(self, job: Job) -> "str | None":
        """The one dispatch decision (service lock held): set the
        task's black-box flag and fuzz budget from the breaker gate and
        the pressure level, and return why the answer will be reduced,
        or None for a full run.

        The breaker gate forces a WASAI campaign black-box while a
        symback/solve breaker is open (one probe per half-open window
        runs the full pipeline instead); the other tools never run
        those stages.  Pressure shrinks every budget (elevated: x0.5,
        saturated and up: x0.25) and from saturated on forces
        black-box too.  The reason is ``"breaker"`` over the pressure
        level.  The budget is reset from the stored config on every
        dispatch, so a requeue under recovered pressure runs at full
        size again."""
        task = job.task
        if task is None:
            return None         # a re-verdict sweep runs no campaign
        level = self.overload.pressure
        forced = job.config["tool"] == "wasai" \
            and self.breakers.force_blackbox()
        task.blackbox = forced or level in ("saturated", "shedding")
        task.timeout_ms = float(job.config["timeout_ms"]) \
            * self.overload.timeout_scale()
        if forced:
            self.count("forced_blackbox")
        if level != "normal":
            self.count("browned_out")
        return "breaker" if forced else (
            None if level == "normal" else level)

    def _run_job(self, job: Job, token: str,
                 reduced: "str | None") -> None:
        """Run one claimed job.  ``reduced`` is the dispatch's reason
        for a cheaper answer; a campaign the fuzzer degraded to
        black-box mid-run is reduced for ``"feedback"``."""
        if job.config.get("kind") == "reverdict":
            self._run_reverdict_job(job, token)
            return
        tool = job.config["tool"]
        try:
            result = run_campaign_task(job.task)
        except WorkerKill:
            raise  # real worker death: the watchdog heals it
        except BaseException as exc:  # noqa: BLE001 - thread must survive
            self._job_failed(job, token,
                             f"{type(exc).__name__}: {exc}")
            return
        with self._lock:
            self._record_stage_outcomes(result, tool)
        if tool not in result.scans:
            doc_error = result.errors.get(tool) or {}
            # A deadline that ran out mid-campaign (or before the tool
            # started) is terminal, never the retry/quarantine path:
            # there is nothing to heal and nobody left waiting.
            self._settle(job, token,
                         "deadline_exceeded"
                         if doc_error.get("stage") == "deadline"
                         else "failed",
                         error=doc_error.get("message",
                                             "campaign failed"))
            return
        result_doc = campaign_result_to_doc(result)
        # Trace-IR packs travel separately: the store's content-
        # addressed ``traces`` table holds the blob; the verdict doc
        # (and its log line) must not carry a base64 twin of it.
        result_doc.pop("traces", None)
        if reduced is None and result.degraded:
            reduced = "feedback"
        if reduced is not None:
            # Honest provenance: a reduced answer says why.  A full
            # one has no such key, so it stays byte-identical to an
            # unloaded daemon's.
            result_doc["provenance"] = dict(
                result_doc.get("provenance") or {}, reduced=reduced)
        with self._lock:
            if job.claim != token or job.terminal:
                return  # claim revoked: the requeued twin owns the job
        # Persist only a full answer: a reduced one answers this caller
        # but must never become the cached verdict.
        if reduced is None:
            try:
                self._healed(lambda: self.store.put_verdict(
                    job.scan_key, job.module_hash, job.config,
                    result_doc))
                if result.coverage:
                    self._healed(lambda: self.store.put_coverage(
                        job.scan_key, result.coverage))
                if self.config.capture_traces and result.traces:
                    for trace_tool, blob in result.traces.items():
                        self._healed(
                            lambda t=trace_tool, b=blob:
                            self.store.put_trace(job.scan_key,
                                                 job.module_hash, t, b))
                        self.count("traces_stored")
            except StoreBudgetExceeded:
                pass  # verdict still served from memory this once
        with self._lock:
            if job.deadline_remaining_s() <= 0.0:
                # The last fuzz round overran the caller's deadline:
                # the verdict is kept, but nobody is waiting for it.
                self._settle(job, token, "deadline_exceeded",
                             error="deadline passed before the "
                                   "campaign finished")
            elif self._settle(job, token, "done", result_doc=result_doc):
                self._record_latency(job, result)

    def _run_reverdict_job(self, job: Job, token: str) -> None:
        """Worker-side execution of one queued re-verdict sweep."""
        try:
            report = self.reverdict(
                oracle_version=job.config.get("oracle_version"),
                oracles=job.config.get("oracles"))
        except WorkerKill:
            raise  # real worker death: the watchdog heals it
        except BaseException as exc:  # noqa: BLE001 - thread must survive
            self._job_failed(job, token,
                             f"{type(exc).__name__}: {exc}")
            return
        self._settle(job, token, "done", result_doc=report.to_doc())

    # -- trace IR: re-verdict + drift audit ---------------------------------
    def reverdict(self, oracle_version: int | None = None,
                  extra_detectors=(), oracles=None):
        """Replay the oracles over every stored trace and rewrite the
        verdicts (synchronous; :meth:`submit_reverdict` queues it).

        ``oracles`` selects the enabled families; None falls back to
        the service's configured default set.  A stored pack that
        cannot satisfy an enabled family's surface is counted
        ``insufficient`` and re-queued for a fresh scan, never
        reported as drift.
        """
        from .reverdict import ReverdictReport, reverdict_store
        if oracles is None:
            oracles = self.config.oracles
        report = self._healed(
            lambda: reverdict_store(self.store,
                                    oracle_version=oracle_version,
                                    extra_detectors=extra_detectors,
                                    oracles=oracles))
        if report is None:       # store unrecoverable: empty sweep
            from ..scanner.oracles import ORACLE_VERSION
            report = ReverdictReport(
                oracle_version=(ORACLE_VERSION if oracle_version is None
                                else oracle_version))
        self._absorb_reverdict(report)
        return report

    def audit_drift(self, sample: int | None = None):
        """One drift-audit round: replay a rotating sample of stored
        traces and compare against their verdicts without rewriting."""
        from .reverdict import ReverdictReport, audit_traces
        if sample is None:
            sample = self.config.drift_audit_sample
        out = self._healed(
            lambda: audit_traces(self.store, sample=sample,
                                 cursor=self._audit_cursor,
                                 oracles=self.config.oracles))
        if out is None:          # store unrecoverable: empty round
            from ..scanner.oracles import ORACLE_VERSION
            report = ReverdictReport(oracle_version=ORACLE_VERSION)
        else:
            report, self._audit_cursor = out
        self._absorb_reverdict(report, audit=True)
        return report

    def _absorb_reverdict(self, report, *, audit: bool = False) -> None:
        """Fold one sweep's outcome into counters + incident ledger."""
        if audit:
            self.count("drift_audits")
        self.count("reverdicts", report.replayed)
        self.count("trace_corruptions", report.corrupt)
        self.count("verdict_drift", report.drift)
        self.count("insufficient_surface", report.insufficient)
        with self._lock:
            self._drift_incidents.extend(report.incidents)
            del self._drift_incidents[:-32]   # bounded, newest kept
        for incident in report.incidents:
            detail = incident.get("detail") or incident.get("tool", "")
            self.quarantine.record_failure(
                incident["scan_key"], f"{incident['kind']}: {detail}")

    def _auditor_main(self) -> None:
        """Background drift auditor: one sampled round per cadence."""
        cadence = self.config.drift_audit_s or 1.0
        while not self._auditor_stop.wait(cadence):
            try:
                self.audit_drift()
            except Exception:  # noqa: BLE001 - auditor outlives bad rounds
                continue

    # -- housekeeping: sweeps + adaptive admission --------------------------
    def housekeeping_once(self) -> dict:
        """One housekeeping tick: expire stale queued jobs even while
        no worker is polling, then feed current load to the overload
        controller's AIMD step and publish the refreshed pressure
        level."""
        swept = self.queue.sweep_expired()
        with self._lock:
            level = self.overload.update(self.queue.depth,
                                         len(self._running_jobs))
        return {"swept": swept, "pressure": level}

    def _housekeeper_main(self) -> None:
        cadence = self.config.housekeeping_s or 0.25
        while not self._housekeeper_stop.wait(cadence):
            try:
                self.housekeeping_once()
            except Exception:  # noqa: BLE001 - must outlive bad ticks
                continue

    # -- the terminal transition -------------------------------------------
    def _settle(self, job: Job, token: "str | None", state: str, *,
                error: str | None = None,
                result_doc: dict | None = None) -> bool:
        """Move ``job`` to the terminal ``state``: the one place that
        checks and releases the claim, keeps the running and in-flight
        books, counts the state and feeds the controller's drain
        signal.  ``token`` is the claim that must still own the job
        (None for an unclaimed one).  A revoked claim — a zombie
        worker, or a job settled already — changes nothing and returns
        False.  ``failed`` means retry-or-quarantine: while retries
        remain the job goes back to the queue instead."""
        with self._lock:
            if job.terminal or (token is not None and job.claim != token):
                return False
            job.claim = None
            self._running_jobs.discard(job.job_id)
            if error is not None:
                job.error = error
            if result_doc is not None:
                job.result_doc = result_doc
            if state == "failed":
                job.attempts += 1
                decision = self.policy.after_failure(
                    self.quarantine, job.scan_key, error, job.attempts)
                if decision == "quarantined":
                    state = "quarantined"
                    try:
                        self._healed(lambda: self.store.put_quarantine(
                            job.scan_key, job.module_hash,
                            self.quarantine.quarantined().get(
                                job.scan_key, [])))
                    except StoreBudgetExceeded:
                        pass
                elif decision == "retry" and not self._draining:
                    job.state = "queued"
                    self.queue.put(job)  # containment re-queue
                    return True
            if state == "deadline_exceeded":
                job.outcome = state
                self.count("shed.deadline")
            job.task = None     # the parsed module goes with it
            job.state = state
            job.finished_s = time.time()
            self.count(f"settled.{state}")
            if self._inflight.get(job.scan_key) is job:
                del self._inflight[job.scan_key]
            self.overload.observe_completion()
            return True

    def _job_failed(self, job: Job, token: "str | None",
                    message: str) -> None:
        self._settle(job, token, "failed", error=message)

    def _job_expired(self, job: Job) -> None:
        """Queue staleness callback (invoked outside the queue lock)."""
        self._settle(job, None, "deadline_exceeded",
                     error="deadline passed while queued")

    # -- supervision callbacks ---------------------------------------------
    def _on_reap(self, record: WorkerRecord, reason: str) -> None:
        """The watchdog reaped ``record`` (died / hung): revoke its
        claim and requeue-or-quarantine the orphaned job exactly once."""
        job = record.job
        record.release_job()
        if job is None:
            return
        with self._lock:
            if self._settle(job, record.token, "failed",
                            error=f"worker {record.token} {reason} "
                                  f"mid-campaign; job requeued"):
                job.requeues += 1

    def _on_storm(self) -> None:
        """Too many worker restarts per window: something is
        systemically wrong — degrade to draining mode (stop accepting)
        instead of burning CPU in a crash loop."""
        with self._lock:
            self._storm = True
            self._accepting = False

    def _record_stage_outcomes(self, result, tool: str) -> None:
        """Feed per-stage outcomes of one ``tool`` campaign to the
        breaker board (service lock held).  A stage named in an error
        doc is a failure.  A completed campaign is a success for every
        other stage its tool ran: WASAI runs instrument, deploy and
        fuzz, and symback and solve too unless its result is degraded
        (a breaker-forced run always is, so a degraded run can never
        close the very breaker that is protecting it); EOSFuzzer runs
        the first three, static EOSAFE none."""
        failed_stages = {doc["stage"] for doc in result.errors.values()
                         if doc.get("stage")}
        for stage in failed_stages:
            self.breakers.record_failure(stage)
        if tool not in result.scans:
            return
        for stage in _TOOL_STAGES.get(tool, ()):
            if stage in failed_stages \
                    or (stage in DEGRADABLE_STAGES and result.degraded):
                continue
            self.breakers.record_success(stage)

    def _record_latency(self, job: Job, result) -> None:
        if job.started_s and job.finished_s:
            self.perf.record_latency("job",
                                     job.finished_s - job.started_s)
            self.overload.observe_latency(job.finished_s - job.started_s)
        self.perf.add_result(result)

    # -- checkpoint / resume ------------------------------------------------
    def _recipe(self, job: Job) -> dict:
        """The drain checkpoint of ``job``: what re-running it after a
        restart takes.  The module bytes live in the store and are
        referenced by hash.  The deadline is absolute wall-clock, so it
        survives the restart unchanged and is re-checked at resume."""
        recipe = {
            "module_hash": job.module_hash,
            "abi": job.task.abi.to_json() if job.task is not None else "",
            "config": dict(job.config),
            "client": job.client,
            "priority": job.priority,
        }
        if job.deadline_epoch_s is not None:
            recipe["deadline_epoch_s"] = job.deadline_epoch_s
        return recipe

    def resume(self) -> int:
        """Resubmit every drain checkpoint in the store once; returns
        how many were resubmitted.  Each checkpoint is deleted once
        resubmitted, or when its module is lost or its deadline passed
        while the daemon was down; one refused with a 429 stays for
        the next start."""
        replayed = 0
        for key, recipe in self._healed(lambda: self.store.pending(),
                                        default=[]):
            try:
                replayed += self._resubmit(recipe)
            except QueueFull:
                continue  # stays pending for the next start
            except MalformedModule:
                pass  # can never run: drop the checkpoint
            self._healed(lambda k=key: self.store.delete_pending(k))
        return replayed

    def _resubmit(self, recipe: dict) -> int:
        """Submit one drain checkpoint again; returns 1, or 0 when its
        module is lost or its deadline passed.  A re-verdict sweep has
        no module: it goes back through :meth:`submit_reverdict`."""
        config = recipe["config"]
        if config.get("kind") == "reverdict":
            self.submit_reverdict(config["oracle_version"],
                                  client=recipe["client"],
                                  priority=recipe["priority"],
                                  oracles=config["oracles"])
            return 1
        deadline = recipe.get("deadline_epoch_s")
        data = self._healed(lambda: self.store.get_module(
            recipe["module_hash"]))
        if data is None or (deadline is not None
                            and time.time() >= deadline):
            return 0
        self.submit_bytes(data, recipe["abi"], config=config,
                          client=recipe["client"],
                          priority=recipe["priority"],
                          deadline_epoch_s=deadline)
        return 1

    # -- health / stats ----------------------------------------------------
    def count(self, key: str, n: int = 1) -> None:
        """Bump one of the service's own event counts by ``n``.

        The one write path for every count ``/stats`` renders that no
        other component already keeps; safe from any thread, with or
        without the service or heal lock held.  A new counter is one
        ``count()`` call where the event happens plus one line in
        :meth:`stats`."""
        with self._count_lock:
            self._counts[key] += n

    def _status_locked(self) -> str:
        """The health ladder (service lock held): ``draining`` (not
        accepting: graceful drain or a restart storm) over ``degraded``
        (some breaker not closed) over ``ok``."""
        if not self._accepting:
            return "draining"
        return "degraded" if self.breakers.open_stages() else "ok"

    def health(self) -> dict:
        """The liveness/readiness doc behind ``GET /healthz``; see
        :meth:`_status_locked` for ``status``."""
        with self._lock:
            return {
                "status": self._status_locked(),
                "accepting": self._accepting,
                "storm": self._storm,
                "pressure": self.overload.pressure,
                "breakers": {"open": self.breakers.open_stages()},
                "workers": (self.supervisor.stats()
                            if self.supervisor is not None
                            else {"alive": 0,
                                  "configured": self.config.workers,
                                  "restarts": 0,
                                  "reaps": {"died": 0, "hung": 0},
                                  "storm": False}),
            }

    def job_doc(self, job: Job) -> dict:
        """The ``GET /scans/{id}`` doc of ``job``, whichever transport
        serves it: the lifecycle fields, and once done the result doc
        plus the decoded verdict of its tool (a re-verdict job carries
        its sweep report instead)."""
        doc = job.to_doc()
        if job.config.get("kind") == "reverdict":
            if job.result_doc is not None:
                doc["result"] = job.result_doc
            return doc
        if job.state == "done" and job.result_doc is not None:
            scan = campaign_result_from_doc(job.result_doc).scans.get(
                job.config["tool"])
            doc["result"] = job.result_doc
            if scan is not None:
                doc["verdict"] = json.loads(report_to_json(scan))
        return doc

    def stats(self) -> dict:
        """The ``GET /stats`` doc.  Counts the service keeps itself come
        from :meth:`count`; the rest are read from their owners: the
        queue (``promoted``), the supervisor (worker restarts = died +
        hung reaps), the breaker board (trips and recoveries) and the
        store (rows per table).  ``shed`` sums the capacity refusals
        (queue, brownout, disk) of ``shed_by_kind``."""
        with self._count_lock:
            counts = self._counts.copy()
        sheds = {kind: counts[f"shed.{kind}"] for kind in SHED_KINDS
                 if counts[f"shed.{kind}"]}
        with self._lock:
            states = Counter(job.state for job in self._jobs.values())
            breakers = self.breakers.snapshot()
            supervisor = (self.supervisor.stats()
                          if self.supervisor is not None else None)
            reaps = supervisor["reaps"] if supervisor else {}
            submissions = counts["submissions"]
            hits = counts["cache_hits"] + counts["coalesce_hits"]
            return {
                "uptime_s": time.time() - self.started_s,
                "queue_depth": self.queue.depth,
                "running": len(self._running_jobs),
                "inflight_budget": self.overload.base_inflight,
                "workers": self.config.workers,
                "accepting": self._accepting,
                "health": self._status_locked(),
                "submissions": submissions,
                "jobs": dict(states),
                "completed": counts["settled.done"],
                "failed": counts["settled.failed"],
                "quarantined": counts["settled.quarantined"],
                "deadline_exceeded": counts["settled.deadline_exceeded"],
                "promoted": self.queue.promoted,
                "admission_rejected": counts["admission_rejected"],
                "shed": sum(sheds.get(kind, 0) for kind in
                            ("queue", "brownout", "disk")),
                "shed_by_kind": sheds,
                "pressure": self.overload.pressure,
                "overload": self.overload.snapshot(),
                "browned_out": counts["browned_out"],
                "dedup": {
                    "cache_hits": counts["cache_hits"],
                    "coalesce_hits": counts["coalesce_hits"],
                    "hit_rate": hits / submissions if submissions else 0.0,
                },
                "breakers": breakers,
                "supervisor": supervisor,
                "resilience": {
                    "worker_restarts": sum(reaps.values()),
                    "breaker_trips": sum(b["trips"]
                                         for b in breakers.values()),
                    "breaker_recoveries": sum(b["recoveries"]
                                              for b in breakers.values()),
                    "integrity_repairs": counts["integrity_repairs"],
                    "journal_compactions": counts["journal_compactions"],
                    "store_recoveries": counts["integrity_repairs"],
                    "forced_blackbox": counts["forced_blackbox"],
                },
                "traceir": {
                    "traces_stored": counts["traces_stored"],
                    "reverdicts": counts["reverdicts"],
                    "trace_corruptions": counts["trace_corruptions"],
                    "verdict_drift": counts["verdict_drift"],
                    "insufficient_surface": counts["insufficient_surface"],
                    "drift_audits": counts["drift_audits"],
                    "drift_incidents": list(self._drift_incidents[-8:]),
                },
                "latency": self.perf.latency_percentiles(),
                "store": self.store.counts(),
            }
