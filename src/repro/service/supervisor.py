"""Worker supervision: heartbeats, a watchdog, restart-storm guard.

The PR-4 service ran scan workers as bare daemon threads: a worker
that died took a queue slot with it forever, and a worker wedged
inside a campaign held its job hostage invisibly.  The supervisor
makes worker death and worker hang *normal, healed events*:

* every worker has a :class:`WorkerRecord` — its thread, a heartbeat
  timestamp (beaten on every queue poll and job claim) and the job it
  currently holds, claimed under the scheduler's lock;
* a watchdog thread sweeps the records: a **dead** thread that did not
  exit cleanly is reaped (its claimed job handed to ``on_reap`` for
  exactly-once requeue) and replaced; a thread whose claimed job has
  outlived ``task_deadline_s`` with no completion is declared **hung**
  — the record is *abandoned* (the zombie thread keeps running but its
  claim is revoked, so whatever it eventually produces is discarded),
  the job is reaped, and a fresh worker takes its slot;
* replacements are throttled by exponential backoff and a
  **restart-storm** budget: more than ``max_restarts`` replacements in
  ``restart_window_s`` means something is systemically wrong — the
  supervisor stops replacing and fires ``on_storm`` so the service can
  degrade to draining mode instead of burning CPU in a crash loop.

The supervisor knows nothing about queues or stores: the service
passes a ``worker_main(record)`` loop and two callbacks.  Reap
exactly-once is guaranteed structurally — a record's job is handed to
``on_reap`` at most once (death and hang paths both clear it), and the
scheduler's claim tokens make any later write by a zombie a no-op.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

__all__ = ["WorkerRecord", "WorkerSupervisor"]


class WorkerRecord:
    """One worker slot: the thread, its heartbeat and its claim."""

    def __init__(self, name: str, generation: int,
                 clock: Callable[[], float]):
        self.name = name
        self.generation = generation
        self._clock = clock
        self.thread: threading.Thread | None = None
        self.job = None                 # the claimed Job, if any
        self.claimed_s: float | None = None
        self.heartbeat_s = clock()
        self.abandoned = False          # hung: claim revoked, zombie
        self.retired = False            # exited its loop cleanly
        self.reaped = False             # death already handled

    @property
    def token(self) -> str:
        """The claim token this worker stamps on jobs it runs."""
        return f"{self.name}#{self.generation}"

    def beat(self) -> None:
        self.heartbeat_s = self._clock()

    def heartbeat_age_s(self) -> float:
        return self._clock() - self.heartbeat_s

    def claim_job(self, job) -> None:
        self.job = job
        self.claimed_s = self._clock()
        self.beat()

    def release_job(self) -> None:
        self.job = None
        self.claimed_s = None


class WorkerSupervisor:
    """Spawn, watch, reap and replace the service's worker threads."""

    def __init__(self, worker_main: Callable[[WorkerRecord], None],
                 workers: int, *,
                 task_deadline_s: float = 300.0,
                 watchdog_poll_s: float = 0.25,
                 max_restarts: int = 8,
                 restart_window_s: float = 60.0,
                 restart_backoff_s: float = 0.05,
                 on_reap: "Callable[[WorkerRecord, str], None] | None" = None,
                 on_storm: "Callable[[], None] | None" = None,
                 name_prefix: str = "scan-worker",
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self.worker_main = worker_main
        self.workers = workers
        self.task_deadline_s = task_deadline_s
        self.watchdog_poll_s = watchdog_poll_s
        self.max_restarts = max_restarts
        self.restart_window_s = restart_window_s
        self.restart_backoff_s = restart_backoff_s
        self.on_reap = on_reap or (lambda record, reason: None)
        self.on_storm = on_storm or (lambda: None)
        self.name_prefix = name_prefix
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._records: list[WorkerRecord] = []
        self._generation = 0
        self._restart_times: deque[float] = deque()
        self._stop = threading.Event()
        self._watchdog: threading.Thread | None = None
        self.restarts = 0
        self.reaps_died = 0
        self.reaps_hung = 0
        self.storm_tripped = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        for index in range(self.workers):
            self._spawn(f"{self.name_prefix}-{index}")
        self._watchdog = threading.Thread(
            target=self._watch_loop, name=f"{self.name_prefix}-watchdog",
            daemon=True)
        self._watchdog.start()

    def stop(self) -> None:
        """Stop the watchdog (workers exit through the service's own
        draining flag; join them with :meth:`join`)."""
        self._stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=2.0)

    def join(self, deadline_s: float) -> None:
        deadline = time.monotonic() + deadline_s
        for record in list(self._records):
            if record.thread is not None:
                record.thread.join(
                    max(0.0, deadline - time.monotonic()))

    # -- spawning ----------------------------------------------------------
    def _spawn(self, name: str) -> WorkerRecord:
        with self._lock:
            self._generation += 1
            record = WorkerRecord(name, self._generation, self._clock)
            self._records.append(record)
        thread = threading.Thread(target=self._entry, args=(record,),
                                  name=record.token, daemon=True)
        record.thread = thread
        thread.start()
        return record

    def _entry(self, record: WorkerRecord) -> None:
        try:
            self.worker_main(record)
            record.retired = True       # clean exit (drain / abandoned)
        except BaseException:  # noqa: BLE001 - death IS the signal
            pass                        # retired stays False: watchdog reaps

    # -- the watchdog ------------------------------------------------------
    def _watch_loop(self) -> None:
        while not self._stop.wait(self.watchdog_poll_s):
            self.check_once()

    def check_once(self) -> None:
        """One watchdog sweep (public so tests and the chaos harness
        can drive detection without waiting for the poll interval)."""
        now = self._clock()
        for record in list(self._records):
            thread = record.thread
            if thread is None:
                continue
            if not thread.is_alive():
                if record.retired or record.reaped:
                    self._forget_if_done(record)
                    continue
                # Died mid-loop: reap the claim, replace the slot.
                record.reaped = True
                self.reaps_died += 1
                self.on_reap(record, "died")
                self._replace(record.name)
                continue
            if record.abandoned or record.job is None \
                    or record.claimed_s is None:
                continue
            if now - record.claimed_s > self.task_deadline_s:
                # Hung inside a task: revoke by abandonment.  The
                # zombie thread finishes eventually and exits; its
                # claim token no longer matches, so its result is
                # discarded by the scheduler.
                record.abandoned = True
                self.reaps_hung += 1
                self.on_reap(record, "hung")
                self._replace(record.name)

    def _forget_if_done(self, record: WorkerRecord) -> None:
        if record.job is None:
            with self._lock:
                if record in self._records:
                    self._records.remove(record)

    def _replace(self, name: str) -> None:
        if self._stop.is_set():
            return
        now = self._clock()
        while self._restart_times and \
                now - self._restart_times[0] > self.restart_window_s:
            self._restart_times.popleft()
        if len(self._restart_times) >= self.max_restarts:
            if not self.storm_tripped:
                self.storm_tripped = True
                self.on_storm()
            return
        self._restart_times.append(now)
        self.restarts += 1
        backoff = self.restart_backoff_s * \
            (2 ** max(0, len(self._restart_times) - 1))
        if backoff > 0:
            self._sleep(min(backoff, 1.0))
        self._spawn(name)

    # -- observability -----------------------------------------------------
    def alive(self) -> int:
        return sum(1 for record in self._records
                   if record.thread is not None
                   and record.thread.is_alive()
                   and not record.abandoned)

    def stats(self) -> dict:
        beats = [record.heartbeat_age_s() for record in self._records
                 if record.thread is not None
                 and record.thread.is_alive() and not record.abandoned]
        return {
            "alive": self.alive(),
            "configured": self.workers,
            "restarts": self.restarts,
            "reaps": {"died": self.reaps_died, "hung": self.reaps_hung},
            "storm": self.storm_tripped,
            "max_heartbeat_age_s": max(beats) if beats else 0.0,
        }
