"""Containment policies: bounded retry and quarantine.

:class:`ResiliencePolicy` is the knob bundle threaded through the
evaluation pipeline and the scan service (surfaced on the CLI as
``--max-retries`` / ``--quarantine-after``).  Retries are immediate:
campaigns are deterministic in their inputs, so waiting between
attempts buys nothing, and retried runs reproduce byte-for-byte.
:meth:`ResiliencePolicy.after_failure` is the one retry-or-quarantine
rule; the task runner and the scan service both call it.

Black-box degradation is not a policy knob.  When symbolic replay or
the solver keeps failing, the fuzzer itself falls back to the
black-box mutation loop (:data:`repro.engine.fuzzer.MAX_FEEDBACK_FAILURES`)
and the campaign layer reports the fallback as a degraded verdict.

:class:`Quarantine` tracks repeatedly failing samples across retry
rounds.  A quarantined sample is never dropped silently: it is carried
into the metrics table as a *skipped* entry with its failure history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .errors import CampaignError

__all__ = ["ResiliencePolicy", "Quarantine", "run_with_retry"]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Per-run containment knobs."""

    max_retries: int = 1          # extra attempts after the first
    quarantine_after: int = 3     # failures before a sample is benched

    def after_failure(self, quarantine: "Quarantine", key: str,
                      reason: str, failures: int) -> str:
        """Record one failure of ``key`` and decide what happens next.

        ``failures`` counts the failed attempts of this task or job so
        far, this one included.  Returns ``"quarantined"`` when ``key``
        has reached the quarantine threshold, ``"retry"`` while
        ``failures <= max_retries``, and ``"failed"`` otherwise.
        """
        quarantine.record_failure(key, reason)
        if quarantine.is_quarantined(key):
            return "quarantined"
        if failures <= self.max_retries:
            return "retry"
        return "failed"


class Quarantine:
    """Failure ledger: samples that keep crashing get benched."""

    def __init__(self, threshold: int = 3):
        self.threshold = threshold
        self._failures: dict[str, list[str]] = {}

    def record_failure(self, key: str, reason: str) -> bool:
        """Note one failure; returns True when ``key`` just crossed
        the quarantine threshold."""
        reasons = self._failures.setdefault(key, [])
        reasons.append(reason)
        return len(reasons) == self.threshold

    def failure_count(self, key: str) -> int:
        return len(self._failures.get(key, ()))

    def is_quarantined(self, key: str) -> bool:
        return self.failure_count(key) >= self.threshold

    def quarantined(self) -> dict[str, list[str]]:
        """key -> failure reasons, for every benched sample."""
        return {key: list(reasons)
                for key, reasons in self._failures.items()
                if len(reasons) >= self.threshold}


def run_with_retry(fn: Callable[[], Any], policy: ResiliencePolicy,
                   ) -> tuple[Any, CampaignError | None, int]:
    """Run ``fn``, retrying a retryable error up to ``policy.max_retries``
    times.

    Returns ``(value, error, attempts)``: on success ``error`` is None;
    after exhausting retries (or on a non-retryable error) ``value`` is
    None and ``error`` is the last :class:`CampaignError`.  Exceptions
    outside the taxonomy propagate — the executor's process isolation
    is the containment of last resort for those.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            return fn(), None, attempts
        except CampaignError as exc:
            if not exc.retryable or attempts > policy.max_retries:
                return None, exc, attempts
