"""Per-stage circuit breakers and the service health model.

A long-lived scan daemon must not keep slamming a pipeline stage that
is failing deterministically (a solver regression, a wedged symbolic
replay, a broken instrumentation pass): every job would burn a full
retry budget against the same wall.  The classic remedy is the
circuit breaker — count *consecutive* failures per stage, trip open
after a threshold, stop exercising the stage while open, and probe it
again after a cooldown:

``closed``
    normal operation; a success resets the consecutive-failure count.
``open``
    the stage failed ``threshold`` times in a row.  Jobs that would
    need it degrade to black-box-only scanning (the PR-2 degradation
    path) instead of failing; the cooldown clock runs.
``half_open``
    the cooldown elapsed.  Exactly one job per half-open window runs
    as a full-pipeline *probe*: success closes the breaker (and resets
    the cooldown to its base), failure re-opens it with a doubled
    cooldown (capped), so a persistently broken stage is probed ever
    more rarely.

Breakers are pure state machines over an injectable monotonic clock —
no threads, no sleeps — so tests drive them deterministically and the
scheduler composes them under its own lock.
"""

from __future__ import annotations

import time
from typing import Callable

from ..resilience.errors import DEGRADABLE_STAGES

__all__ = ["CircuitBreaker", "BreakerBoard", "BREAKER_STAGES",
           "PRESSURE_LEVELS", "pressure_rank"]

# Pipeline stages the service tracks breakers for.  These are the
# taxonomy's stage names ("symback" is the symbolic-replay stage).
BREAKER_STAGES = ("ingest", "instrument", "deploy", "fuzz", "symback",
                  "solve")

# Cap on the doubling probe cooldown (the scan service uses this one).
MAX_COOLDOWN_S = 300.0

# The brownout ladder, mildest first.  Breakers guard *stages* (one
# broken pipeline step); pressure levels guard the *service* (too much
# work for the whole pipeline).  Each level buys headroom by finishing
# cheaper scans rather than shedding blindly:
#
# ``normal``     full-fidelity campaigns, verdicts byte-identical to an
#                unloaded daemon.
# ``elevated``   fuzz budgets shrink (fewer rounds per campaign).
# ``saturated``  additionally black-box-only — the symbolic side is the
#                most expensive stage, and degraded verdicts already
#                carry the PR-5 labeling.
# ``shedding``   new work is refused with a measured Retry-After;
#                cache and replay hits are still served.
PRESSURE_LEVELS = ("normal", "elevated", "saturated", "shedding")


def pressure_rank(level: str) -> int:
    """Position of ``level`` on the ladder (unknown levels rank 0)."""
    try:
        return PRESSURE_LEVELS.index(level)
    except ValueError:
        return 0


class CircuitBreaker:
    """One stage's closed / open / half-open failure gate."""

    def __init__(self, stage: str, *, threshold: int = 3,
                 cooldown_s: float = 30.0,
                 max_cooldown_s: float = MAX_COOLDOWN_S,
                 clock: Callable[[], float] = time.monotonic):
        self.stage = stage
        self.threshold = max(1, threshold)
        self.base_cooldown_s = cooldown_s
        self.cooldown_s = cooldown_s
        self.max_cooldown_s = max_cooldown_s
        self._clock = clock
        self._state = "closed"
        self._opened_at: float | None = None
        self._probe_taken = False
        self.consecutive_failures = 0
        self.trips = 0          # closed/half_open -> open transitions
        self.recoveries = 0     # half_open/open -> closed transitions

    # -- state -------------------------------------------------------------
    def _refresh(self) -> None:
        if self._state == "open" \
                and self._clock() - self._opened_at >= self.cooldown_s:
            self._state = "half_open"
            self._probe_taken = False

    @property
    def state(self) -> str:
        self._refresh()
        return self._state

    def _trip(self) -> None:
        self._state = "open"
        self._opened_at = self._clock()
        self.trips += 1

    # -- events ------------------------------------------------------------
    def record_failure(self) -> bool:
        """Note one stage failure; True when this call tripped it open."""
        self._refresh()
        self.consecutive_failures += 1
        if self._state == "half_open":
            # The probe failed: back to open, and probe more rarely.
            self.cooldown_s = min(self.cooldown_s * 2,
                                  self.max_cooldown_s)
            self._trip()
            return True
        if self._state == "closed" \
                and self.consecutive_failures >= self.threshold:
            self._trip()
            return True
        return False

    def record_success(self) -> bool:
        """Note one stage success; True when this call closed it."""
        self._refresh()
        self.consecutive_failures = 0
        if self._state in ("half_open", "open"):
            self._state = "closed"
            self.cooldown_s = self.base_cooldown_s
            self._probe_taken = False
            self.recoveries += 1
            return True
        return False

    def try_probe(self) -> bool:
        """Claim the single full-pipeline probe slot of the current
        half-open window; False if the breaker is not half-open or the
        slot is already taken."""
        self._refresh()
        if self._state != "half_open" or self._probe_taken:
            return False
        self._probe_taken = True
        return True

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "threshold": self.threshold,
            "trips": self.trips,
            "recoveries": self.recoveries,
            "cooldown_s": self.cooldown_s,
        }


class BreakerBoard:
    """The scheduler's breaker per pipeline stage (not thread-safe by
    itself; the scheduler mutates it under its own lock)."""

    def __init__(self, stages: tuple[str, ...] = BREAKER_STAGES, *,
                 threshold: int = 3, cooldown_s: float = 30.0,
                 max_cooldown_s: float = MAX_COOLDOWN_S,
                 clock: Callable[[], float] = time.monotonic):
        self.breakers = {
            stage: CircuitBreaker(stage, threshold=threshold,
                                  cooldown_s=cooldown_s,
                                  max_cooldown_s=max_cooldown_s,
                                  clock=clock)
            for stage in stages
        }

    def record_failure(self, stage: str) -> bool:
        breaker = self.breakers.get(stage)
        return breaker.record_failure() if breaker else False

    def record_success(self, stage: str) -> bool:
        breaker = self.breakers.get(stage)
        return breaker.record_success() if breaker else False

    def open_stages(self) -> list[str]:
        """Stages whose breaker is not closed (open or half-open)."""
        return [stage for stage, breaker in self.breakers.items()
                if breaker.state != "closed"]

    def force_blackbox(self) -> bool:
        """Should a new job skip the symbolic side?  True when the
        breaker of any degradable stage is open — except that one job per
        half-open window is let through as the recovery probe."""
        forced = False
        for stage in DEGRADABLE_STAGES:
            breaker = self.breakers.get(stage)
            if breaker is None:
                continue
            state = breaker.state
            if state == "open":
                forced = True
            elif state == "half_open" and not breaker.try_probe():
                forced = True
        return forced

    def snapshot(self) -> dict[str, dict]:
        return {stage: breaker.snapshot()
                for stage, breaker in self.breakers.items()}
