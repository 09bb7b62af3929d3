"""Priority job queue with fair scheduling, anti-starvation promotion
and deadline expiry.

The queue is the service's only buffer.  It never refuses a job
itself: the scan service's admission decides, before a ``put``,
whether new work fits (shedding it with the typed :class:`QueueFull`
the client sees as HTTP 429), and containment or watchdog re-queues
of already-admitted jobs are never shed.

Scheduling is two-level: strict priority first (higher number runs
sooner), round-robin across clients within a priority band — one
client flooding the queue cannot starve another client's single job,
because each ``get`` takes the head job of the *next* client in
rotation.  Two aging rules temper strict priority:

* **anti-starvation promotion** — a job whose queue age (on the
  queue's *monotonic* clock, from its first enqueue) exceeds
  ``promote_after_s`` is served ahead of every band, oldest first, so
  a hot high-priority client can delay low-priority work but never
  park it forever;
* **deadline expiry** — a job still queued past its
  ``deadline_epoch_s`` (an absolute *wall-clock* instant: the
  caller's deadline, tightened by any TTL at admission) is handed to
  the ``on_expired`` callback instead of being scanned arbitrarily
  late; a stale answer the submitter stopped waiting for is a wasted
  campaign.

The expiry sweep runs on every ``get`` **and** via the public
:meth:`JobQueue.sweep_expired` so an idle queue — no worker polling,
daemon quiescent — still expires jobs promptly instead of discovering
staleness only when demand returns.

Job lifecycle: ``queued → running → done | failed | quarantined |
deadline_exceeded``.  The :class:`Job` record itself is the single
source of truth the HTTP layer renders for ``GET /scans/{id}``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Job", "JobQueue", "QueueFull", "JOB_STATES", "TERMINAL_STATES"]

TERMINAL_STATES = ("done", "failed", "quarantined", "deadline_exceeded")
JOB_STATES = ("queued", "running") + TERMINAL_STATES


class QueueFull(Exception):
    """Typed backpressure rejection: the queue (or the service's
    in-flight budget, the store's disk budget, or a tenant's quota) is
    saturated; the submission was shed.  ``retry_after_s`` is the
    server's hint for when a retry is worth attempting (emitted as
    ``Retry-After``).  Every 429 the service emits carries the same
    schema: ``kind`` names the saturated bound so clients can
    dispatch without string-matching the message."""

    def __init__(self, message: str, *, depth: int, limit: int,
                 kind: str = "queue", retry_after_s: float = 1.0):
        super().__init__(message)
        self.depth = depth
        self.limit = limit
        # "queue" | "inflight" | "draining" | "disk" | "quota"
        # | "brownout" (pressure ladder refused it: level topped out
        # or the campaign is too expensive for its priority)
        self.kind = kind
        self.retry_after_s = retry_after_s


@dataclass
class Job:
    """One admitted scan request and everything about its lifetime."""

    job_id: str
    client: str
    scan_key: str
    module_hash: str
    config: dict
    task: Any = None          # CampaignTask; None once terminal
    priority: int = 0
    state: str = "queued"
    submitted_s: float = 0.0
    started_s: float | None = None
    finished_s: float | None = None
    attempts: int = 0
    result_doc: dict | None = None
    error: str | None = None
    outcome: str = "queued"   # queued | cached | coalesced
    waiters: int = 0          # coalesced submissions sharing this job
    queued_s: float = 0.0     # queue clock at first enqueue (for aging)
    deadline_epoch_s: float | None = None  # wall-clock deadline (+TTL)
    brownout: str | None = None  # pressure level the run degraded under
    claim: str | None = None  # worker token currently owning the run
    requeues: int = 0         # watchdog reap re-queues (exactly-once)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def deadline_remaining_s(self,
                             now_epoch_s: float | None = None) -> float:
        """Wall-clock budget left before the caller's deadline; +inf
        without one (so comparisons read naturally)."""
        if self.deadline_epoch_s is None:
            return float("inf")
        now = time.time() if now_epoch_s is None else now_epoch_s
        return self.deadline_epoch_s - now

    def to_doc(self) -> dict:
        doc = {
            "id": self.job_id,
            "client": self.client,
            "state": self.state,
            "outcome": self.outcome,
            "scan_key": self.scan_key,
            "module_hash": self.module_hash,
            "config": dict(self.config),
            "priority": self.priority,
            "attempts": self.attempts,
            "coalesced_waiters": self.waiters,
        }
        if self.requeues:
            doc["requeues"] = self.requeues
        if self.deadline_epoch_s is not None:
            doc["deadline_epoch_s"] = self.deadline_epoch_s
        if self.brownout is not None:
            doc["brownout"] = self.brownout
        if self.started_s and self.finished_s:
            doc["latency_s"] = self.finished_s - self.started_s
        if self.error is not None:
            doc["error"] = self.error
        return doc


class JobQueue:
    """Thread-safe queue: priority bands, fair within a band,
    age-promoted across bands, expired once past their deadline."""

    def __init__(self, *, promote_after_s: float | None = None,
                 on_expired: "Callable[[Job], None] | None" = None,
                 clock: Callable[[], float] = time.monotonic,
                 wall_clock: Callable[[], float] = time.time):
        self.promote_after_s = promote_after_s
        self.on_expired = on_expired
        self._clock = clock
        self._wall_clock = wall_clock
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        # priority -> client -> FIFO of jobs; clients rotate per get.
        self._bands: dict[int, "OrderedDict[str, deque[Job]]"] = {}
        self._depth = 0
        self.promoted = 0           # jobs served by age promotion

    def __len__(self) -> int:
        with self._lock:
            return self._depth

    @property
    def depth(self) -> int:
        return len(self)

    def put(self, job: Job) -> None:
        """Enqueue ``job`` (admission already decided it fits)."""
        with self._lock:
            if job.queued_s == 0.0:
                # First enqueue only: containment/watchdog re-queues
                # keep their original age so aging rules still apply.
                job.queued_s = self._clock()
            band = self._bands.setdefault(job.priority, OrderedDict())
            band.setdefault(job.client, deque()).append(job)
            self._depth += 1
            self._ready.notify()

    def get(self, timeout: float | None = None) -> Job | None:
        """The next job by (age promotion, priority, client rotation);
        None on timeout.  Expired jobs found on the way are finalized
        through ``on_expired`` and never returned."""
        job: Job | None = None
        expired: list[Job] = []
        with self._lock:
            while True:
                self._sweep_expired_locked(expired)
                if self._depth > 0:
                    job = self._pick_locked()
                    break
                if not self._ready.wait(timeout=timeout):
                    break
        # Callbacks run outside the queue lock: the service finalizes
        # expired jobs under its own lock, and lock order everywhere
        # else is service -> queue.
        if self.on_expired is not None:
            for stale in expired:
                self.on_expired(stale)
        return job

    def sweep_expired(self) -> int:
        """Expire stale queued jobs *now*, without waiting for a
        ``get``: the scheduler's housekeeping tick calls this so an
        idle queue (workers busy or daemon quiescent) still emits
        ``deadline_exceeded`` terminal docs promptly.
        Returns the number of jobs expired by this call."""
        expired: list[Job] = []
        with self._lock:
            self._sweep_expired_locked(expired)
        if self.on_expired is not None:
            for stale in expired:
                self.on_expired(stale)
        return len(expired)

    # -- internals (lock held) ---------------------------------------------
    def _sweep_expired_locked(self, out: list[Job]) -> None:
        wall_now = self._wall_clock()
        for priority in list(self._bands):
            band = self._bands[priority]
            for client in list(band):
                jobs = band[client]
                keep: deque[Job] = deque()
                stale: list[Job] = []
                for job in jobs:
                    if job.deadline_remaining_s(wall_now) <= 0.0:
                        stale.append(job)
                    else:
                        keep.append(job)
                if stale:
                    out.extend(stale)
                    self._depth -= len(stale)
                    if keep:
                        band[client] = keep
                    else:
                        del band[client]
            if not band:
                del self._bands[priority]

    def _pick_locked(self) -> Job:
        promoted = self._promotable_locked()
        if promoted is not None:
            priority, client = promoted
            self.promoted += 1
        else:
            priority = max(p for p, band in self._bands.items()
                           if band)
            client = next(iter(self._bands[priority]))
        band = self._bands[priority]
        jobs = band[client]
        job = jobs.popleft()
        # Rotate: the client goes to the back of its band (or out of
        # it entirely once drained) so siblings get the next slot.
        del band[client]
        if jobs:
            band[client] = jobs
        if not band:
            del self._bands[priority]
        self._depth -= 1
        return job

    def _promotable_locked(self) -> "tuple[int, str] | None":
        """(priority, client) of the oldest head job whose queue age
        crossed ``promote_after_s``, or None."""
        if self.promote_after_s is None:
            return None
        now = self._clock()
        oldest: "tuple[float, int, str] | None" = None
        for priority, band in self._bands.items():
            for client, jobs in band.items():
                head = jobs[0]
                age = now - head.queued_s
                if age < self.promote_after_s:
                    continue
                if oldest is None or head.queued_s < oldest[0]:
                    oldest = (head.queued_s, priority, client)
        if oldest is None:
            return None
        return oldest[1], oldest[2]

    def drain(self) -> list[Job]:
        """Remove and return every queued job (checkpoint path)."""
        out: list[Job] = []
        with self._lock:
            for priority in sorted(self._bands, reverse=True):
                band = self._bands[priority]
                while band:
                    client, jobs = next(iter(band.items()))
                    out.extend(jobs)
                    del band[client]
            self._bands.clear()
            self._depth = 0
        return out
