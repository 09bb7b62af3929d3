"""A supervised worker-pool executor for independent campaigns.

WASAI's evaluation is embarrassingly parallel: every fuzzing campaign
owns a private chain, RNG and solver, so campaigns only meet again when
their results are folded into a metrics table.  :func:`run_tasks` fans a
list of task payloads out over ``jobs`` worker processes and returns one
:class:`TaskResult` per task, **in task order**, regardless of the order
in which workers finish.

Fault model
-----------

* A task that raises is reported as a failed :class:`TaskResult`; the
  worker survives and picks up the next task.
* A worker process that dies (segfault, ``os._exit``, OOM kill) takes
  down only the task it was running: the supervisor marks that task
  failed, spawns a replacement worker and carries on.
* ``timeout_s`` bounds the real wall-clock of a single task; an
  overrunning worker is terminated and replaced.
* With ``jobs=1`` (the default) everything runs serially in-process —
  no forking, no pickling — which doubles as the deterministic
  reference path the parallel tests compare against.

The supervisor assigns tasks over one duplex pipe per worker and hands
a worker its next index only after consuming the previous result.
``Connection.send`` writes synchronously (unlike ``Queue.put``, which
buffers in a feeder thread a crashing process silently kills), so a
completed task's result can never be lost to a later crash.  Task
payloads travel via the process start arguments (copy-on-write under
the ``fork`` start method); only indices and results cross the pipes.
Worker callables must be module-level functions and results must be
picklable.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback as _tb
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Sequence

__all__ = ["TaskResult", "run_tasks", "default_jobs"]

# How long one supervisor poll waits for worker results (seconds).
_POLL_S = 0.05


@dataclass
class TaskResult:
    """Outcome of one task, successful or not.

    ``error_type`` is the failure's type name — the exception class
    for a task that raised, ``"TaskTimeout"`` for a worker killed by
    the wall-clock cap, ``"WorkerCrash"`` for a worker that died —
    so callers can dispatch on failure kind without string matching.
    ``traceback`` carries the child's formatted traceback across the
    process boundary for raised exceptions.
    """

    index: int
    ok: bool
    value: Any = None
    error: str | None = None
    elapsed_s: float = 0.0
    error_type: str | None = None
    traceback: str | None = None

    def unwrap(self) -> Any:
        if not self.ok:
            raise RuntimeError(f"task {self.index} failed: {self.error}")
        return self.value


def default_jobs() -> int:
    """A sensible worker count for this machine (`--jobs 0` resolves
    here)."""
    return max(os.cpu_count() or 1, 1)


def _worker_loop(worker: Callable[[Any], Any], tasks: Sequence[Any],
                 conn) -> None:
    """Serve task indices from ``conn`` until the ``None`` sentinel."""
    while True:
        index = conn.recv()
        if index is None:
            return
        started = time.perf_counter()
        try:
            value = worker(tasks[index])
            # Surface an unpicklable result as an ordinary task failure
            # instead of blowing up inside Connection.send.
            pickle.dumps(value)
            message = (index, True, value, None, None, None,
                       time.perf_counter() - started)
        except BaseException as exc:  # noqa: BLE001 - isolate the task
            message = (index, False, None,
                       f"{type(exc).__name__}: {exc}",
                       type(exc).__name__, _tb.format_exc(),
                       time.perf_counter() - started)
        conn.send(message)


def _run_serial(worker: Callable[[Any], Any], tasks: Sequence[Any],
                on_result: Callable[[TaskResult], None] | None = None,
                ) -> list[TaskResult]:
    results = []
    for index, task in enumerate(tasks):
        started = time.perf_counter()
        try:
            value = worker(task)
            results.append(TaskResult(index, True, value,
                                      elapsed_s=time.perf_counter() - started))
        except Exception as exc:  # noqa: BLE001 - isolate the task
            results.append(TaskResult(index, False, None,
                                      f"{type(exc).__name__}: {exc}",
                                      time.perf_counter() - started,
                                      type(exc).__name__,
                                      _tb.format_exc()))
        if on_result is not None:
            on_result(results[-1])
    return results


class _Worker:
    """One pooled process plus its command/result pipe."""

    def __init__(self, context, worker, tasks):
        self.conn, child_conn = context.Pipe(duplex=True)
        self.proc = context.Process(target=_worker_loop,
                                    args=(worker, tasks, child_conn),
                                    daemon=True)
        self.proc.start()
        child_conn.close()
        self.current: tuple[int, float] | None = None  # (index, started)

    @property
    def idle(self) -> bool:
        return self.current is None

    def assign(self, index: int) -> bool:
        try:
            self.conn.send(index)
        except (BrokenPipeError, OSError):
            return False
        self.current = (index, time.monotonic())
        return True

    def retire(self) -> None:
        """Politely ask an idle worker to exit."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join()
        self.conn.close()


class _Supervisor:
    """The parent-side state machine behind :func:`run_tasks`."""

    def __init__(self, worker, tasks, jobs, timeout_s, on_result=None):
        self.worker = worker
        self.tasks = tasks
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.on_result = on_result
        self.context = multiprocessing.get_context()
        self.pending: deque[int] = deque(range(len(tasks)))
        self.results: dict[int, TaskResult] = {}
        self.workers: list[_Worker] = []
        self.respawns = 0
        # A crash-looping worker function must not respawn forever.
        self.max_respawns = len(tasks) + jobs

    def _record(self, result: TaskResult) -> None:
        """Accept one task's outcome exactly once (first wins)."""
        if result.index in self.results:
            return
        self.results[result.index] = result
        if self.on_result is not None:
            self.on_result(result)

    def run(self) -> list[TaskResult]:
        try:
            self.workers = [self._spawn() for _ in range(self.jobs)]
            while len(self.results) < len(self.tasks):
                self._assign_work()
                self._pump_results()
                self._reap_dead()
                self._enforce_timeouts()
                self._maybe_refill()
        finally:
            self._shutdown()
        return [self.results[i] for i in range(len(self.tasks))]

    # -- pool management ---------------------------------------------------
    def _spawn(self) -> _Worker:
        return _Worker(self.context, self.worker, self.tasks)

    def _respawn_if_useful(self) -> None:
        if self.pending and self.respawns < self.max_respawns:
            self.respawns += 1
            self.workers.append(self._spawn())

    def _maybe_refill(self) -> None:
        """Keep the run alive if every worker died with tasks pending;
        fail whatever is left once the respawn budget is spent."""
        if self.workers or len(self.results) >= len(self.tasks):
            return
        self._respawn_if_useful()
        if not self.workers:
            unfinished = [i for i in range(len(self.tasks))
                          if i not in self.results]
            for index in unfinished:
                self._record(TaskResult(
                    index, False, None,
                    "worker pool died before the task completed",
                    error_type="WorkerCrash"))

    # -- scheduling --------------------------------------------------------
    def _assign_work(self) -> None:
        for worker in self.workers:
            if not self.pending:
                return
            if not worker.idle:
                continue
            if worker.assign(self.pending[0]):
                self.pending.popleft()
            # else: dead pipe — the reaper replaces the worker and the
            # index stays pending for someone else.

    def _pump_results(self) -> None:
        conns = [w.conn for w in self.workers]
        if not conns:
            time.sleep(_POLL_S)
            return
        for conn in connection_wait(conns, timeout=_POLL_S):
            worker = next(w for w in self.workers if w.conn is conn)
            try:
                index, ok, value, error, error_type, tb, elapsed \
                    = conn.recv()
            except (EOFError, OSError):
                continue  # worker died; the reaper handles it
            self._record(TaskResult(index, ok, value, error, elapsed,
                                    error_type, tb))
            worker.current = None

    def _reap_dead(self) -> None:
        for worker in list(self.workers):
            if worker.proc.is_alive():
                continue
            self.workers.remove(worker)
            worker.conn.close()
            if worker.current is not None:
                index = worker.current[0]
                self._record(TaskResult(
                    index, False, None,
                    f"worker died (exit code {worker.proc.exitcode})",
                    error_type="WorkerCrash"))
                self._respawn_if_useful()

    def _enforce_timeouts(self) -> None:
        if self.timeout_s is None:
            return
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.current is None \
                    or now - worker.current[1] <= self.timeout_s:
                continue
            index, started = worker.current
            self.workers.remove(worker)
            worker.kill()
            self._record(TaskResult(
                index, False, None,
                f"timeout after {self.timeout_s:g}s",
                elapsed_s=now - started, error_type="TaskTimeout"))
            self._respawn_if_useful()

    def _shutdown(self) -> None:
        for worker in self.workers:
            if worker.idle:
                worker.retire()
        deadline = time.monotonic() + 1.0
        for worker in self.workers:
            worker.proc.join(max(0.0, deadline - time.monotonic()))
        for worker in self.workers:
            worker.kill()


def run_tasks(worker: Callable[[Any], Any], tasks: Sequence[Any],
              jobs: int = 1,
              timeout_s: float | None = None,
              on_result: Callable[[TaskResult], None] | None = None,
              ) -> list[TaskResult]:
    """Run ``worker(task)`` for every task; return ordered results.

    ``jobs`` <= 1 runs serially in-process.  ``jobs=0`` means "one per
    CPU" (see :func:`default_jobs`).  ``timeout_s`` bounds each task's
    wall-clock in the parallel path.  ``on_result``, when given, is
    invoked in the supervising process exactly once per task as its
    result lands (completion order, not task order) — the hook the
    checkpoint journal uses, so an interrupted run keeps everything
    that finished before the interruption.
    """
    tasks = list(tasks)
    if jobs == 0:
        jobs = default_jobs()
    if not tasks:
        return []
    if jobs <= 1:
        return _run_serial(worker, tasks, on_result)
    # Asking for parallelism buys process isolation (and timeout
    # enforcement) even when fewer tasks than workers remain — retry
    # rounds re-running a single crashing task must not fall back to
    # in-process execution.
    jobs = min(jobs, len(tasks))
    return _Supervisor(worker, tasks, jobs, timeout_s, on_result).run()
