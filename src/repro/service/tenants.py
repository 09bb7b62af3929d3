"""Per-tenant API keys with admission-time quota enforcement.

A daemon serving many teams cannot let one hot client starve the
rest or silently burn the whole capacity budget, so ``POST /scans``
(``wasai serve --tenants``) consults a :class:`TenantBook` *before*
any module is parsed or queued:

* an unknown (or missing, when keys are required) API key is refused
  with the typed :class:`UnknownApiKey` — HTTP 401, never a scan;
* a known tenant passes through a **token-bucket rate limit**
  (``rate_per_s`` sustained, ``burst`` instantaneous) and an optional
  **absolute submission quota** (``max_submissions`` over the book's
  lifetime).  Either bound exhausted raises :class:`QuotaExceeded` —
  a :class:`~repro.service.queue.QueueFull` subclass with
  ``kind="quota"``, so the HTTP layer sheds it as the same typed 429
  + ``Retry-After`` schema the disk-budget and queue-depth sheds use.

The book is a pure state machine over an injectable monotonic clock:
no threads, no sleeps, deterministic under test.  Buckets refill
continuously (``elapsed * rate``), so ``retry_after_s`` is an exact
hint — the earliest instant the next token exists — not a guess.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from .queue import QueueFull

__all__ = ["TenantBook", "TenantQuota", "QuotaExceeded",
           "UnknownApiKey"]


class UnknownApiKey(Exception):
    """The API key is missing or matches no registered tenant."""


class QuotaExceeded(QueueFull):
    """A tenant's rate limit or absolute quota is exhausted: the
    submission is shed with the service's standard typed-429 schema
    (``kind="quota"``) before it costs any parsing or queue space."""

    def __init__(self, message: str, *, tenant: str, depth: int,
                 limit: int, retry_after_s: float):
        super().__init__(message, depth=depth, limit=limit,
                         kind="quota", retry_after_s=retry_after_s)
        self.tenant = tenant


class TenantQuota:
    """One tenant's admission state: identity + bucket + counters."""

    def __init__(self, name: str, *, rate_per_s: float | None = None,
                 burst: int = 10, max_submissions: int | None = None):
        self.name = name
        self.rate_per_s = rate_per_s
        self.burst = max(1, burst)
        self.max_submissions = max_submissions
        self.tokens = float(self.burst)
        self.refilled_s: float | None = None
        self.admitted = 0
        self.shed = 0


class TenantBook:
    """API-key registry + admission gate for one daemon."""

    def __init__(self, *, require_key: bool = False,
                 clock: Callable[[], float] = time.monotonic):
        self.require_key = require_key
        self._clock = clock
        self._lock = threading.Lock()
        self._by_key: dict[str, TenantQuota] = {}

    @classmethod
    def from_doc(cls, doc: dict, *,
                 clock: Callable[[], float] = time.monotonic
                 ) -> "TenantBook":
        """Build a book from operator config::

            {"require_key": true,
             "tenants": [{"name": "teamA", "api_key": "ka",
                          "rate_per_s": 5, "burst": 10,
                          "max_submissions": 1000}, ...]}
        """
        book = cls(require_key=bool(doc.get("require_key", False)),
                   clock=clock)
        for entry in doc.get("tenants", ()):
            book.register(
                str(entry["name"]), str(entry["api_key"]),
                rate_per_s=(float(entry["rate_per_s"])
                            if entry.get("rate_per_s") is not None
                            else None),
                burst=int(entry.get("burst", 10)),
                max_submissions=(int(entry["max_submissions"])
                                 if entry.get("max_submissions")
                                 is not None else None))
        return book

    def register(self, name: str, api_key: str, *,
                 rate_per_s: float | None = None, burst: int = 10,
                 max_submissions: int | None = None) -> None:
        with self._lock:
            self._by_key[api_key] = TenantQuota(
                name, rate_per_s=rate_per_s, burst=burst,
                max_submissions=max_submissions)

    def admit(self, api_key: str | None) -> str | None:
        """Charge one submission against ``api_key``'s tenant.

        Returns the tenant name (``None`` for an anonymous submission
        when keys are optional).  Raises :class:`UnknownApiKey` or
        :class:`QuotaExceeded`; on success the tenant's bucket is
        debited atomically, so concurrent admission threads can never
        overspend a quota."""
        if api_key is None:
            if self.require_key:
                raise UnknownApiKey(
                    "an API key is required (X-Api-Key header or "
                    "api_key body field)")
            return None
        with self._lock:
            tenant = self._by_key.get(api_key)
            if tenant is None:
                raise UnknownApiKey("unknown API key")
            if tenant.max_submissions is not None \
                    and tenant.admitted >= tenant.max_submissions:
                tenant.shed += 1
                raise QuotaExceeded(
                    f"tenant {tenant.name!r} exhausted its "
                    f"{tenant.max_submissions}-submission quota",
                    tenant=tenant.name, depth=tenant.admitted,
                    limit=tenant.max_submissions,
                    retry_after_s=3600.0)
            if tenant.rate_per_s is not None:
                now = self._clock()
                if tenant.refilled_s is not None:
                    tenant.tokens = min(
                        float(tenant.burst),
                        tenant.tokens
                        + (now - tenant.refilled_s) * tenant.rate_per_s)
                tenant.refilled_s = now
                if tenant.tokens < 1.0:
                    tenant.shed += 1
                    wait_s = (1.0 - tenant.tokens) / tenant.rate_per_s
                    raise QuotaExceeded(
                        f"tenant {tenant.name!r} over its "
                        f"{tenant.rate_per_s:g}/s rate limit",
                        tenant=tenant.name, depth=tenant.burst,
                        limit=tenant.burst, retry_after_s=wait_s)
                tenant.tokens -= 1.0
            tenant.admitted += 1
            return tenant.name

    def refund(self, api_key: str | None) -> None:
        """Return one :meth:`admit` charge for a submission the service
        then refused, so only admitted work is billed.  ``admit`` is
        the reservation and this the release, both under the book's
        lock, so concurrent admissions can never overspend a quota."""
        with self._lock:
            tenant = self._by_key.get(api_key)
            if tenant is None:
                return
            tenant.admitted -= 1
            if tenant.rate_per_s is not None:
                tenant.tokens = min(float(tenant.burst),
                                    tenant.tokens + 1.0)

    def snapshot(self) -> dict:
        """Per-tenant admission counters (admitted and shed)."""
        with self._lock:
            return {
                tenant.name: {
                    "admitted": tenant.admitted,
                    "shed": tenant.shed,
                    "rate_per_s": tenant.rate_per_s,
                    "max_submissions": tenant.max_submissions,
                }
                for tenant in self._by_key.values()
            }
