"""repro.service — WASAI as a long-lived, self-healing scan service.

The serving layer on top of the batch pipeline: instead of one-shot
``wasai scan`` processes whose results die with them, one daemon over
one artifact store that continuously ingests untrusted modules,
answers queries about them, never re-fuzzes work it has already done —
and heals itself when workers die, pipeline stages fail in a loop, or
its own storage corrupts.  Clients talk to it at one base URL.

* :mod:`repro.service.store` — SQLite content-addressed artifact
  store (modules, verdicts, coverage, quarantine, drain checkpoints)
  with per-row checksums, a disk-budget guard and a verdict log;
* :mod:`repro.service.integrity` — the typed storage-integrity errors
  (:class:`StoreCorruption`, :class:`StoreBudgetExceeded`) and the
  checksum primitive;
* :mod:`repro.service.queue` — priority queue with per-client fair
  scheduling, anti-starvation promotion and deadline expiry, plus the
  typed backpressure refusal admission raises (:class:`QueueFull`);
* :mod:`repro.service.supervisor` — the worker watchdog
  (heartbeats, hung/dead detection, restart-storm guard);
* :mod:`repro.service.health` — per-stage circuit breakers
  (:class:`CircuitBreaker`, :class:`BreakerBoard`);
* :mod:`repro.service.scheduler` — :class:`ScanService`: admission
  (sandboxed ingest), store-level dedup, single-flight coalescing,
  supervised workers with claim tokens, retry/quarantine, breaker
  gating, storage quarantine-and-rebuild, drain/resume checkpoints,
  the one job-doc renderer and the ``/stats`` counts;
* :mod:`repro.service.api` + :mod:`repro.service.server` — the JSON
  HTTP surface (``POST /scans``, ``GET /scans/{id}``, ``/healthz``,
  ``/stats``, ``/integrity``, ``POST /reverdict``) on a stdlib
  ``ThreadingHTTPServer``;
* :mod:`repro.service.client` — the urllib client behind
  ``wasai submit`` / ``wasai status`` (retries 429s and connection
  failures with capped, deterministically-jittered backoff);
* :mod:`repro.service.chaos` — the ``wasai chaos`` drill: a live
  daemon run under a deterministic fault schedule, asserting the
  liveness invariants above;
* :mod:`repro.service.tenants` — per-tenant API keys with
  admission-time rate limits and quotas (:class:`TenantBook`);
* :mod:`repro.service.reverdict` — oracle replay over stored trace-IR
  packs (``POST /reverdict`` / ``wasai reverdict``), the rotating
  drift auditor with corrupt-trace quarantine, and the one
  decode+replay path brownout replay-serving shares.
"""

from .api import ServiceApi
from .chaos import CHAOS_SCHEDULES, ChaosReport, run_chaos_drill
from .client import ServiceClient, ServiceError
from .health import BREAKER_STAGES, BreakerBoard, CircuitBreaker
from .integrity import (StoreBudgetExceeded, StoreCorruption,
                        content_checksum)
from .queue import JOB_STATES, Job, JobQueue, QueueFull
from .reverdict import ReverdictReport, audit_traces, reverdict_store
from .scheduler import (DEFAULT_SCAN_CONFIG, ScanService,
                        ScanServiceConfig, Submission)
from .server import ScanServer, make_server, serve_forever
from .store import ArtifactStore
from .supervisor import WorkerRecord, WorkerSupervisor
from .tenants import QuotaExceeded, TenantBook, TenantQuota, UnknownApiKey

__all__ = [
    "ArtifactStore",
    "StoreCorruption", "StoreBudgetExceeded", "content_checksum",
    "Job", "JobQueue", "QueueFull", "JOB_STATES",
    "WorkerRecord", "WorkerSupervisor",
    "CircuitBreaker", "BreakerBoard", "BREAKER_STAGES",
    "ScanService", "ScanServiceConfig", "Submission",
    "DEFAULT_SCAN_CONFIG",
    "ServiceApi", "ScanServer", "make_server", "serve_forever",
    "ServiceClient", "ServiceError",
    "ChaosReport", "run_chaos_drill", "CHAOS_SCHEDULES",
    "TenantBook", "TenantQuota", "QuotaExceeded", "UnknownApiKey",
    "ReverdictReport", "reverdict_store", "audit_traces",
]
