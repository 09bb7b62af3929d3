"""Adaptive admission control and the brownout pressure ladder.

The scheduler's static knobs (``inflight_budget``, ``max_depth``, a
hard-coded ``retry_after_s``) assume the operator sized the daemon for
its peak.  Under a real burst that assumption fails in the worst way:
the queue stays legally full of work whose callers have long given up,
every admitted job still gets a *full* fuzzing budget, and rejected
clients are told to come back in a constant five seconds regardless of
how deep the backlog actually is.

:class:`OverloadController` replaces those constants with three
measured signals:

AIMD inflight sizing
    The controller watches recent end-to-end job latencies (the same
    samples :class:`~repro.metrics.ThroughputStats` aggregates) and
    compares their p95 against a target SLO.  While the target is
    breached the effective inflight budget shrinks multiplicatively;
    while it is met the budget recovers additively back toward the
    configured ceiling — classic AIMD, which converges without
    oscillating.  The effective queue depth scales in proportion, so
    backlog cannot grow unboundedly while service capacity is cut.

Drain-rate Retry-After
    Completions are timestamped into a sliding window; the measured
    drain rate turns a queue depth into an honest hint — "this backlog
    will take ~N seconds to clear" — instead of the fixed 5.0 s every
    shed used to carry.

Pressure ladder
    Utilization, SLO breach and budget squeeze combine into one of
    :data:`~repro.service.health.PRESSURE_LEVELS`.  The scheduler maps
    the level to brownout actions at dispatch (shrink fuzz budgets,
    force black-box-only, replay-serve); the controller decides *how
    loaded* the service is and whether one more campaign is admitted.

Cost-based shedding picks victims by estimated campaign cost (module
size + enabled oracle families) against a priority-scaled allowance
that shrinks with pressure: when something must be refused, it is the
biggest, least-important work first.  :meth:`OverloadController.
admission_refusal` folds the ladder, the cost check and both AIMD
bounds into the single admission decision the scheduler asks.

Like the circuit breakers next door, the controller is a pure state
machine over an injectable monotonic clock — no threads, no sleeps —
driven by the scheduler's housekeeping tick and mutated only under the
scheduler's lock.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Tuple

from .health import PRESSURE_LEVELS
from ..metrics import percentile

__all__ = ["OverloadController", "SHED_KINDS"]

# Every way the daemon refuses or cuts short work, as counted by the
# per-kind shed counters in /stats (shed_by_kind).
SHED_KINDS = ("queue", "inflight", "deadline", "quota", "disk",
              "brownout", "draining")

# How much each pressure level shrinks a campaign's fuzz budget.  The
# shedding entry matters for jobs admitted just before the ladder
# topped out.
_TIMEOUT_SCALE = {"normal": 1.0, "elevated": 0.5,
                  "saturated": 0.25, "shedding": 0.25}

# Cost allowance multiplier per level (normal never cost-sheds).
_COST_FACTOR = {"elevated": 1.0, "saturated": 0.25, "shedding": 0.0}

# Fixed controller tuning.
MIN_INFLIGHT = 1               # AIMD floor
LATENCY_WINDOW = 128           # job-latency samples kept
DRAIN_WINDOW_S = 30.0          # completion-rate horizon
DECREASE_FACTOR = 0.5          # multiplicative decrease on SLO breach
INCREASE_STEP = 1.0            # additive recovery per adjust interval
MIN_RETRY_AFTER_S = 0.5        # Retry-After clamp ...
MAX_RETRY_AFTER_S = 60.0       # ... and ceiling
DEFAULT_RETRY_AFTER_S = 1.0    # hint before any completion is seen
COST_ALLOWANCE = 32.0          # priority-0 campaign cost allowance


class OverloadController:
    """Measured admission control for one scan daemon."""

    def __init__(self, base_inflight: int, base_depth: int, *,
                 target_p95_s: float = 30.0,
                 latency_window_s: float = 60.0,
                 adjust_interval_s: float = 1.0,
                 clock: Callable[[], float] = time.monotonic):
        self.base_inflight = max(1, int(base_inflight))
        self.base_depth = max(1, int(base_depth))
        self.target_p95_s = float(target_p95_s)
        self.latency_window_s = float(latency_window_s)
        self.adjust_interval_s = float(adjust_interval_s)
        self._clock = clock
        self._limit = float(self.base_inflight)
        self._last_adjust = clock()
        self._latencies: Deque[Tuple[float, float]] = deque(
            maxlen=LATENCY_WINDOW)
        self._completions: Deque[float] = deque(maxlen=4096)
        self.pressure = "normal"
        self.adjustments = 0        # AIMD limit changes, for /stats

    # -- observations ------------------------------------------------------
    def observe_latency(self, seconds: float) -> None:
        """One finished job's end-to-end latency (submit -> terminal)."""
        self._latencies.append((self._clock(), float(seconds)))

    def observe_completion(self) -> None:
        """One job left the system (any terminal state): drain signal."""
        self._completions.append(self._clock())

    # -- derived signals ---------------------------------------------------
    def _recent_latencies(self) -> list:
        horizon = self._clock() - self.latency_window_s
        return [s for (t, s) in self._latencies if t >= horizon]

    def observed_p95_s(self) -> float:
        recent = self._recent_latencies()
        return percentile(recent, 95.0) if recent else 0.0

    def expected_job_s(self) -> float:
        """Median recent job latency, reported as
        ``overload.expected_job_s`` in ``/stats``; no admission
        decision reads it."""
        recent = self._recent_latencies()
        return percentile(recent, 50.0) if recent else 0.0

    def drain_rate_per_s(self) -> float:
        now = self._clock()
        horizon = now - DRAIN_WINDOW_S
        while self._completions and self._completions[0] < horizon:
            self._completions.popleft()
        if not self._completions:
            return 0.0
        span = max(now - self._completions[0], 1e-6)
        return len(self._completions) / span

    def retry_after_s(self, pending: int = 0) -> float:
        """An honest Retry-After: how long the current backlog takes to
        drain at the measured rate (plus one slot for the caller)."""
        rate = self.drain_rate_per_s()
        if rate <= 0.0:
            hint = DEFAULT_RETRY_AFTER_S
        else:
            hint = (max(0, int(pending)) + 1) / rate
        return min(max(hint, MIN_RETRY_AFTER_S), MAX_RETRY_AFTER_S)

    # -- AIMD + ladder -----------------------------------------------------
    def update(self, queue_depth: int, inflight: int) -> str:
        """One housekeeping tick: adjust the limit, refresh the ladder.
        Returns the (possibly new) pressure level."""
        now = self._clock()
        p95 = self.observed_p95_s()
        breach = (p95 / self.target_p95_s) if self.target_p95_s > 0 \
            else 0.0
        if now - self._last_adjust >= self.adjust_interval_s:
            self._last_adjust = now
            if breach > 1.0 and inflight > 0:
                shrunk = max(float(MIN_INFLIGHT),
                             self._limit * DECREASE_FACTOR)
                if shrunk != self._limit:
                    self._limit = shrunk
                    self.adjustments += 1
            elif self._limit < self.base_inflight:
                self._limit = min(float(self.base_inflight),
                                  self._limit + INCREASE_STEP)
                self.adjustments += 1
        capacity = self.effective_inflight() + self.effective_depth()
        load = (max(0, int(queue_depth)) + max(0, int(inflight))) \
            / max(1, capacity)
        squeeze = self._limit / self.base_inflight
        if load >= 1.0 and (squeeze <= MIN_INFLIGHT / self.base_inflight
                            or breach >= 2.0):
            self.pressure = "shedding"
        elif load >= 0.9 or breach > 1.5 or squeeze <= 0.5:
            self.pressure = "saturated"
        elif load >= 0.6 or breach > 1.0 or squeeze < 1.0:
            self.pressure = "elevated"
        else:
            self.pressure = "normal"
        return self.pressure

    def effective_inflight(self) -> int:
        return max(MIN_INFLIGHT,
                   min(self.base_inflight, int(round(self._limit))))

    def effective_depth(self) -> int:
        scale = self._limit / self.base_inflight
        return max(1, min(self.base_depth,
                          int(round(self.base_depth * scale))))

    def timeout_scale(self) -> float:
        """Fuzz-budget multiplier for the active brownout level."""
        return _TIMEOUT_SCALE.get(self.pressure, 1.0)

    # -- cost-based shedding -----------------------------------------------
    @staticmethod
    def admission_cost(module_len: int, oracle_count: int) -> float:
        """Estimated campaign cost, in rough oracle-equivalents: bigger
        modules fuzz slower, each enabled family adds scan work."""
        return max(0, int(module_len)) / 65536.0 \
            + max(0, int(oracle_count))

    def should_shed_cost(self, cost: float, priority: int) -> bool:
        """Shed this submission for being too expensive for its
        priority at the current level?  Allowance doubles per priority
        step and shrinks with pressure, so the biggest lowest-priority
        work goes first."""
        factor = _COST_FACTOR.get(self.pressure)
        if factor is None:
            return False
        if factor <= 0.0:
            return True
        allowance = COST_ALLOWANCE * (2.0 ** max(-8, min(8, priority))) \
            * factor
        return cost > allowance

    # -- the admission decision --------------------------------------------
    def admission_refusal(self, module_len: int, oracle_count: int,
                          priority: int, *, depth: int, running: int
                          ) -> "tuple[str, str, int, int] | None":
        """The one capacity decision for a new campaign: None admits,
        otherwise ``(kind, message, depth, limit)`` for the typed 429.
        In order: the brownout ladder (campaign cost against the
        priority-scaled allowance; nothing passes at ``shedding``),
        the AIMD in-flight limit over queued + running jobs, then the
        AIMD queue depth.  The static bounds stay the ceilings."""
        cost = self.admission_cost(module_len, oracle_count)
        if self.should_shed_cost(cost, priority):
            return ("brownout",
                    f"brownout: campaign cost {cost:.1f} exceeds the "
                    f"priority-{priority} allowance at pressure level "
                    f"'{self.pressure}'", depth, self.effective_depth())
        inflight, budget = depth + running, self.effective_inflight()
        if inflight >= budget:
            return ("inflight", f"in-flight budget {budget} exhausted "
                                f"({inflight} admitted)", inflight, budget)
        bound = self.effective_depth()
        if depth >= bound:
            return ("queue", f"queue depth {depth} at effective bound "
                             f"{bound} (pressure '{self.pressure}')",
                    depth, bound)
        return None

    def snapshot(self) -> dict:
        return {
            "pressure": self.pressure,
            "levels": list(PRESSURE_LEVELS),
            "effective_inflight": self.effective_inflight(),
            "base_inflight": self.base_inflight,
            "effective_depth": self.effective_depth(),
            "base_depth": self.base_depth,
            "observed_p95_s": round(self.observed_p95_s(), 6),
            "target_p95_s": self.target_p95_s,
            "drain_rate_per_s": round(self.drain_rate_per_s(), 6),
            "retry_after_s": round(self.retry_after_s(), 6),
            "expected_job_s": round(self.expected_job_s(), 6),
            "timeout_scale": self.timeout_scale(),
            "adjustments": self.adjustments,
        }
