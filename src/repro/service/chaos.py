"""``wasai chaos`` — drill the self-healing runtime against a live daemon.

The drill boots a real HTTP scan daemon (ephemeral port, throwaway
store and its verdict log in a temp directory) and marches it through a
deterministic fault schedule, phase by phase, asserting the liveness
invariants the self-healing machinery promises:

* **no lost job** — every admitted submission reaches a terminal
  state, through worker kills, hangs, disk faults and store rebuilds;
* **no wrong verdict** — every completed scan returns the same result
  an undisturbed daemon would (verdicts recovered after storage
  corruption are byte-identical to the originals; breaker-degraded
  runs are flagged reduced and never cached);
* **auto-recovery** — after the faults stop, the daemon converges back
  to ``/healthz`` ``status: ok`` with a full worker complement, with
  no operator intervention;
* **accurate accounting** — ``/stats`` reports the healing events
  (worker restarts, breaker trips/recoveries, integrity repairs,
  journal compactions) that actually happened;
* **exactly-once requeue** — a killed or hung worker's job is requeued
  precisely once (claim-token revocation makes the zombie's result a
  no-op).

Faults come from the same deterministic
:mod:`~repro.resilience.faultinject` plans the test suite uses, so a
failing drill reproduces exactly under the same schedule.  Three
schedules: ``ci`` (every phase; the chaos-drill CI job runs this),
``quick`` (a subset for fast local runs and the unit test) and
``overload``, which bursts a small daemon at over 8x its admission
bound with mixed caller deadlines and clients, asserting the overload
machinery:
no deadline-exceeded job ever runs a full campaign, every refusal is
a typed 429 carrying a measured Retry-After, the brownout pressure
ladder engages under the burst and returns to ``normal`` after it
drains, and the ``/stats`` shed counters match what clients saw.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..benchgen import ContractConfig, generate_contract
from ..resilience import Fault, clear_fault_plan, install_fault_plan
from ..wasm import encode_module
from .client import ServiceClient, ServiceError
from .health import pressure_rank
from .overload import SHED_KINDS
from .scheduler import ScanService, ScanServiceConfig
from .server import make_server

__all__ = ["ChaosReport", "run_chaos_drill", "CHAOS_SCHEDULES"]

# Phase order matters: later phases assert cumulative counters.
CHAOS_SCHEDULES = {
    "ci": ("baseline", "worker_kill", "worker_hang",
           "store_corruption", "journal_truncation", "disk_full",
           "breaker_cycle", "reverdict", "final_invariants"),
    "quick": ("baseline", "worker_kill", "disk_full",
              "breaker_cycle", "final_invariants"),
    "overload": ("overload_baseline", "deadline_cutoff",
                 "overload_burst", "brownout_recovery"),
}

# Small virtual budget: one campaign lands well under a second of real
# time while still exercising the full concolic pipeline.
_DRILL_TIMEOUT_MS = 2_500.0
_WAIT_S = 90.0
# The overload drill sends its burst from this many client threads.
_BURST_CLIENTS = 8


class ChaosViolation(AssertionError):
    """A liveness invariant did not hold under the fault schedule."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ChaosViolation(message)


def _sans_provenance(doc: "dict | None") -> "dict | None":
    """A result doc minus its provenance stamp — replayed verdicts
    must equal fresh ones byte-for-byte except this field."""
    if not isinstance(doc, dict):
        return doc
    doc = dict(doc)
    doc.pop("provenance", None)
    return doc


@dataclass
class ChaosReport:
    """What the drill did and which invariants held."""

    schedule: str
    phases: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.phases) and all(p["ok"] for p in self.phases)

    def to_doc(self) -> dict:
        return {"schedule": self.schedule, "ok": self.ok,
                "phases": list(self.phases), "stats": self.stats}

    def format(self) -> str:
        lines = [f"--- chaos drill ({self.schedule}) ---"]
        for phase in self.phases:
            mark = "ok " if phase["ok"] else "FAIL"
            lines.append(f"  [{mark}] {phase['name']:<20} "
                         f"{phase['seconds']:6.2f}s  {phase['detail']}")
        verdict = "PASSED" if self.ok else "FAILED"
        lines.append(f"  drill {verdict}")
        return "\n".join(lines)


class _Drill:
    """One live daemon plus the helpers the phases share."""

    def __init__(self, root: Path, verbose: bool = False,
                 config: "ScanServiceConfig | None" = None):
        self.root = root
        self.verbose = verbose
        self.config = config or ScanServiceConfig(
            workers=2, max_depth=32, poll_s=0.02,
            default_timeout_ms=_DRILL_TIMEOUT_MS,
            task_deadline_s=1.25, watchdog_poll_s=0.05,
            max_restarts=64, restart_window_s=300.0,
            restart_backoff_s=0.01,
            breaker_threshold=2, breaker_cooldown_s=0.75,
            capture_traces=True)
        self.service = ScanService(store=str(root / "chaos.db"),
                                   config=self.config)
        self.server = make_server(self.service, port=0)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="chaos-daemon", daemon=True)
        self.thread.start()
        self.client = ServiceClient(
            f"http://127.0.0.1:{self.port}", timeout_s=30.0,
            max_retries=4, backoff_base_s=0.02, backoff_cap_s=0.25)
        self.job_ids: list[str] = []
        self.results: dict[int, dict] = {}   # seed -> result doc

    def close(self) -> None:
        clear_fault_plan()
        self.server.shutdown()
        self.thread.join(timeout=10.0)
        self.service.stop(wait_s=10.0)
        self.server.server_close()

    # -- helpers -----------------------------------------------------------
    def contract(self, seed: int) -> tuple[bytes, str]:
        generated = generate_contract(
            ContractConfig(seed=seed, fake_eos_guard=False,
                           maze_depth=2 + seed % 4))
        return encode_module(generated.module), generated.abi.to_json()

    def submit_and_wait(self, seed: int, client_name: str,
                        expect_state: str = "done",
                        config: "dict | None" = None) -> dict:
        data, abi = self.contract(seed)
        doc = self.client.submit(data, abi, client=client_name,
                                 config=config)
        job_id = doc["id"]
        self.job_ids.append(job_id)
        if doc.get("state") not in ("done", "failed", "quarantined"):
            doc = self.client.wait(job_id, timeout_s=_WAIT_S,
                                   poll_s=0.02)
        _expect(doc.get("state") == expect_state,
                f"seed {seed} job {job_id} ended "
                f"{doc.get('state')!r} (wanted {expect_state!r}); "
                f"error={doc.get('error')!r}")
        return doc

    def stats(self) -> dict:
        return self.client.stats()

    # -- phases ------------------------------------------------------------
    def baseline(self) -> str:
        """Healthy daemon: scans complete, dedup works, /healthz ok."""
        first = self.submit_and_wait(0, "baseline")
        _expect(first.get("result") is not None,
                "baseline job completed without a result doc")
        self.results[0] = first["result"]
        again = self.submit_and_wait(0, "baseline-redo")
        _expect(again["outcome"] == "cached",
                f"identical resubmit was {again['outcome']!r}, "
                "not served from the store")
        _expect(again["result"] == first["result"],
                "cached verdict differs from the freshly computed one")
        health = self.client.health()
        _expect(health["status"] == "ok",
                f"healthy daemon reports {health['status']!r}")
        return "scan + dedup + health all nominal"

    def worker_kill(self) -> str:
        """A worker dies mid-claim; the watchdog requeues exactly once."""
        install_fault_plan(Fault(stage="worker", kind="kill", times=1))
        try:
            doc = self.submit_and_wait(1, "kill-victim")
        finally:
            clear_fault_plan()
        self.results[1] = doc.get("result")
        _expect(doc.get("requeues") == 1,
                f"killed worker's job requeued {doc.get('requeues', 0)} "
                "times, not exactly once")
        stats = self.stats()
        _expect(stats["supervisor"]["reaps"]["died"] >= 1,
                "watchdog never recorded the dead worker")
        _expect(stats["resilience"]["worker_restarts"] >= 1,
                "/stats does not report the worker restart")
        return (f"worker died, job requeued once, "
                f"{stats['supervisor']['restarts']} restart(s)")

    def worker_hang(self) -> str:
        """A worker wedges past the task deadline; the job is revoked
        from the zombie and requeued exactly once."""
        hang_s = self.config.task_deadline_s * 2
        install_fault_plan(Fault(stage="worker", kind="hang",
                                 hang_s=hang_s, times=1))
        try:
            doc = self.submit_and_wait(2, "hang-victim")
        finally:
            clear_fault_plan()
        _expect(doc.get("requeues") == 1,
                f"hung worker's job requeued {doc.get('requeues', 0)} "
                "times, not exactly once")
        stats = self.stats()
        _expect(stats["supervisor"]["reaps"]["hung"] >= 1,
                "watchdog never declared the wedged worker hung")
        # Give the zombie time to wake and try to write: its claim was
        # revoked, so the completed job's verdict must stay stable.
        time.sleep(hang_s + 0.5)
        after = self.client.status(doc["id"])
        _expect(after["state"] == "done"
                and after.get("result") == doc.get("result"),
                "zombie worker's late result disturbed the job")
        return "hung worker abandoned, zombie's late write discarded"

    def store_corruption(self) -> str:
        """A verdict row is corrupted at rest; the next read detects
        it, quarantines the database and rebuilds from the store's
        verdict log."""
        # after=1 skips the module write: the 2nd store write of the
        # next submission is the verdict row.
        install_fault_plan(Fault(stage="store", kind="corrupt",
                                 after=1, times=1))
        try:
            first = self.submit_and_wait(3, "corrupt-victim")
        finally:
            clear_fault_plan()
        self.results[3] = first["result"]
        again = self.submit_and_wait(3, "corrupt-redo")
        _expect(again["outcome"] == "cached",
                "verdict not re-served after store recovery "
                f"(outcome {again['outcome']!r})")
        _expect(again["result"] == first["result"],
                "recovered verdict differs from the original — "
                "a wrong verdict was served")
        stats = self.stats()
        _expect(stats["resilience"]["integrity_repairs"] >= 1,
                "/stats does not report the store repair")
        sweep = self.client.integrity()
        _expect(sweep["corrupt_rows"] == 0,
                f"store still corrupt after rebuild: {sweep}")
        quarantined = list(Path(self.root).glob("chaos.db.corrupt-*"))
        _expect(len(quarantined) >= 1,
                "corrupt database image was not quarantined aside")
        return ("verdict row corrupted, store rebuilt from its log, "
                "recovered verdict byte-identical")

    def journal_truncation(self) -> str:
        """A torn (truncated) verdict-log line neither breaks log
        parsing nor survives compaction."""
        log = self.service.store.log
        with open(log.path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "key": "torn-by-a-crash", "resu')
        before = log.load()
        _expect("torn-by-a-crash" not in before,
                "truncated journal line was parsed as a real entry")
        removed = self.service.compact_journal()
        _expect(removed >= 1,
                f"compaction removed {removed} lines; the torn line "
                "survived")
        _expect(log.load().keys() == before.keys(),
                "compaction lost journal entries")
        stats = self.stats()
        _expect(stats["resilience"]["journal_compactions"] >= 1,
                "/stats does not report the journal compaction")
        doc = self.submit_and_wait(4, "post-compaction")
        self.results[4] = doc.get("result")
        return (f"torn line dropped, {removed} stale line(s) "
                "compacted, journal still serving")

    def disk_full(self) -> str:
        """One store write fails like a full disk: the submission is
        shed with typed 429 + Retry-After, and the client's backoff
        absorbs it."""
        sleeps: list[float] = []
        patient = ServiceClient(self.client.base_url, timeout_s=30.0,
                                max_retries=4, backoff_base_s=0.01,
                                backoff_cap_s=0.1,
                                sleep=lambda s: (sleeps.append(s),
                                                 time.sleep(s)))
        data, abi = self.contract(5)
        install_fault_plan(Fault(stage="disk", kind="error", times=1))
        try:
            doc = patient.submit(data, abi, client="disk-victim")
        finally:
            clear_fault_plan()
        self.job_ids.append(doc["id"])
        final = patient.wait(doc["id"], timeout_s=_WAIT_S, poll_s=0.02)
        _expect(final["state"] == "done",
                f"job after disk fault ended {final['state']!r}")
        self.results[5] = final.get("result")
        _expect(len(sleeps) >= 1,
                "client never backed off, yet the first attempt was "
                "shed with 429")
        stats = self.stats()
        _expect(stats["shed"] >= 1,
                "/stats does not count the disk-budget shed")
        return (f"write shed with 429/Retry-After, client retried "
                f"after {sleeps[0]:.3f}s and succeeded")

    def breaker_cycle(self) -> str:
        """A deterministically failing solver trips the stage breaker;
        open-state jobs run black-box (and are not cached); a cooldown
        probe closes it again."""
        install_fault_plan(Fault(stage="solve", kind="error"))
        try:
            for seed, name in ((6, "solver-down-1"), (7, "solver-down-2")):
                doc = self.submit_and_wait(seed, name)
                _expect("wasai" in doc["result"].get("degraded", ()),
                        f"seed {seed} did not degrade despite the "
                        "dead solver")
            health = self.client.health()
            _expect(health["status"] == "degraded"
                    and "solve" in health["breakers"]["open"],
                    f"solve breaker not open after "
                    f"{self.config.breaker_threshold} consecutive "
                    f"failures: {health}")
            forced = self.submit_and_wait(8, "blackbox-era")
            _expect("wasai" in forced["result"].get("degraded", ()),
                    "open breaker did not force black-box mode")
            _expect(self.service.store.get_verdict(
                        forced["scan_key"]) is None,
                    "a breaker-degraded verdict was cached — it could "
                    "be served as the full-pipeline answer later")
        finally:
            clear_fault_plan()
        time.sleep(self.config.breaker_cooldown_s + 0.3)
        probe = self.submit_and_wait(9, "probe")
        _expect(not probe["result"].get("degraded"),
                "the half-open probe did not run the full pipeline")
        self.results[9] = probe["result"]
        health = self.client.health()
        _expect(health["status"] == "ok",
                f"breaker did not close after the probe: {health}")
        stats = self.stats()
        _expect(stats["resilience"]["breaker_trips"] >= 1
                and stats["resilience"]["breaker_recoveries"] >= 1,
                "/stats does not report the breaker trip/recovery")
        # The black-box-era contract now gets its full verdict.
        full = self.submit_and_wait(8, "post-recovery")
        _expect(not full["result"].get("degraded"),
                "post-recovery rescan still degraded")
        self.results[8] = full["result"]
        return ("solve breaker tripped after 2 failures, black-box era "
                "not cached, probe recovered, full verdict backfilled")

    def reverdict(self) -> str:
        """Oracle replay over stored trace-IR packs: with one stored
        trace corrupted and the oracle version bumped, a store-wide
        re-verdict must reproduce every intact verdict byte-for-byte
        except provenance, quarantine the corrupt trace (typed, never
        crashed on) and leave its module re-scannable."""
        from ..scanner.oracles import ORACLE_VERSION
        from ..semoracle.registry import resolve_oracles
        from ..traceir.codec import TRACEIR_VERSION
        good = self.submit_and_wait(10, "reverdict-good")
        bad = self.submit_and_wait(11, "reverdict-bad")
        good_key, bad_key = good["scan_key"], bad["scan_key"]
        store = self.service.store
        _expect(store.get_trace(good_key) is not None,
                "completed scan stored no trace-IR pack despite "
                "capture_traces")
        row = store.get_trace(bad_key)
        _expect(row is not None, "no trace stored for the corruption "
                                 "victim")
        # Flip one byte mid-blob and re-store it: the store's row
        # checksum re-computes (so the *storage* layer sees a valid
        # row), but the IR payload no longer decodes — exactly the
        # at-rest rot the codec must lift to a typed TraceCorruption.
        blob = bytearray(row["blob"])
        blob[len(blob) // 2] ^= 0xFF
        store.put_trace(bad_key, row["module_hash"], row["tool"],
                        bytes(blob))
        bumped = ORACLE_VERSION + 1
        doc = self.client.reverdict(oracle_version=bumped, wait=True)
        self.job_ids.append(doc["id"])
        _expect(doc.get("state") == "done",
                f"reverdict job ended {doc.get('state')!r}: "
                f"{doc.get('error')!r}")
        rep = doc.get("result") or {}
        _expect(rep.get("replayed", 0) >= 3,
                f"sweep replayed only {rep.get('replayed')} traces — "
                "the store's trace packs were not covered")
        _expect(rep.get("corrupt") == 1,
                f"sweep quarantined {rep.get('corrupt')} traces, "
                "expected exactly the one corrupted")
        _expect(rep.get("drift") == 0,
                f"replay verdicts drifted from the fresh ones: "
                f"{rep.get('incidents')}")
        replayed = store.get_verdict(good_key)
        _expect(replayed is not None,
                "intact trace's verdict vanished during the sweep")
        prov = dict(replayed).pop("provenance", None)
        _expect(prov == {"oracle_version": bumped,
                         "traceir_version": TRACEIR_VERSION,
                         "oracles": list(resolve_oracles(None)),
                         "source": "replay"},
                f"rewritten verdict carries provenance {prov!r}")
        _expect(_sans_provenance(replayed)
                == _sans_provenance(good["result"]),
                "replay verdict differs from the fresh one beyond "
                "provenance — the oracles did not reproduce")
        _expect(store.get_trace(bad_key) is None,
                "corrupt trace blob survived the sweep")
        _expect(store.get_quarantine(bad_key) is not None,
                "corrupt trace was not recorded in the quarantine "
                "table")
        _expect(store.get_verdict(bad_key) is None,
                "a verdict whose trace is corrupt is still cached")
        # Re-scannable: the module misses the dedup cache and fuzzes
        # fresh — and determinism returns the same verdict it had.
        fresh = self.submit_and_wait(11, "reverdict-rescan")
        _expect(fresh["outcome"] == "queued",
                f"quarantined module's resubmit was "
                f"{fresh['outcome']!r}, not re-scanned")
        # Compare the scan verdicts, not the whole result doc: a real
        # re-run legitimately differs in wall-clock and cache-counter
        # bookkeeping; the deterministic part is the findings.
        _expect(fresh["result"].get("scans")
                == bad["result"].get("scans"),
                "re-scan after trace quarantine changed the verdict")
        traceir = self.stats()["traceir"]
        _expect(traceir["traces_stored"] >= 2
                and traceir["reverdicts"] >= rep["replayed"]
                and traceir["trace_corruptions"] == 1,
                f"/stats traceir counters miss the sweep: {traceir}")
        _expect(any(i.get("kind") == "trace_corruption"
                    for i in traceir["drift_incidents"]),
                "/stats carries no trace_corruption incident")
        return (f"{rep['replayed']} traces replayed with zero "
                f"re-fuzzing, verdicts identical modulo provenance, "
                f"1 corrupt trace quarantined + re-scanned")

    def final_invariants(self) -> str:
        """Converged: nothing lost, health green, books balanced."""
        lost = []
        for job_id in self.job_ids:
            doc = self.client.status(job_id)
            if doc.get("state") not in ("done",):
                lost.append((job_id, doc.get("state")))
        _expect(not lost, f"jobs not completed after the drill: {lost}")
        health = self.client.health()
        _expect(health["status"] == "ok", f"not healthy: {health}")
        _expect(health["workers"]["alive"] >= self.config.workers,
                f"worker pool not restored: {health['workers']}")
        redo = self.submit_and_wait(0, "final-redo")
        _expect(redo["outcome"] == "cached"
                and _sans_provenance(redo["result"])
                == _sans_provenance(self.results[0]),
                "post-drill verdict for the baseline contract changed")
        stats = self.stats()
        _expect(stats["accepting"] is True,
                "daemon stopped accepting during the drill")
        return (f"{len(self.job_ids)} jobs all terminal-done, "
                "health ok, baseline verdict unchanged")


class _OverloadDrill(_Drill):
    """A deliberately small daemon burst at over 8x its admission bound.

    Two workers under a 12-job admission bound (queued + running) meet
    a burst of 100 submissions from 8 concurrent clients, with mixed
    caller deadlines, clients and priorities.  The phases assert the
    overload contract end to end: deadlines are honored at every
    hand-off (never a full campaign for a caller whose clock ran out),
    every refusal is a typed 429 with a measured Retry-After, the
    brownout ladder climbs under the burst and walks back down to
    ``normal`` once it drains, and the shed books in ``/stats`` match
    what clients actually saw.

    The AIMD target SLO starts at its generous default so the
    baseline phase runs at pressure ``normal``; the burst phase then
    tightens it to half the measured baseline job latency, which
    guarantees a breach under load without hard-coding any
    machine-dependent timing.
    """

    def __init__(self, root: Path, verbose: bool = False):
        super().__init__(root, verbose=verbose, config=ScanServiceConfig(
            workers=2, max_depth=10, poll_s=0.02,
            default_timeout_ms=_DRILL_TIMEOUT_MS,
            task_deadline_s=6.0, watchdog_poll_s=0.05,
            max_restarts=64, restart_window_s=300.0,
            restart_backoff_s=0.01,
            breaker_threshold=8, breaker_cooldown_s=0.75,
            capture_traces=True,
            housekeeping_s=0.02, overload_window_s=1.5,
            adjust_interval_s=0.05))
        self.baseline_exec_s = 0.1
        self.observed_sheds: dict[str, int] = {}
        self.peak = "normal"

    def _note_pressure(self) -> str:
        level = self.service.overload.pressure
        if pressure_rank(level) > pressure_rank(self.peak):
            self.peak = level
        return level

    # -- phases ------------------------------------------------------------
    def overload_baseline(self) -> str:
        """Unloaded daemon: pressure normal, full verdicts untagged."""
        first = self.submit_and_wait(0, "baseline")
        _expect(first.get("result") is not None,
                "baseline job completed without a result doc")
        self.results[0] = first["result"]
        prov = first["result"].get("provenance") or {}
        _expect("reduced" not in prov,
                "a normal-pressure verdict carries a brownout tag: "
                f"{prov}")
        # The burst phase sizes its SLO and caller patience from one
        # job's execution time.  A single sample moves with GC pauses
        # and cold caches, so take the fastest of three fresh runs of
        # the same module (distinct rng seeds, so none is a cache hit).
        runs = [first] + [
            self.submit_and_wait(0, "baseline", config={"rng_seed": seed})
            for seed in (2, 3)]
        self.baseline_exec_s = max(
            min(run.get("latency_s", 0.0) for run in runs), 0.02)
        stats = self.stats()
        _expect(stats["pressure"] == "normal",
                f"idle daemon reports pressure {stats['pressure']!r}")
        health = self.client.health()
        _expect(health["status"] == "ok"
                and health["pressure"] == "normal",
                f"unloaded daemon not nominal: {health}")
        return (f"full verdict in {self.baseline_exec_s:.2f}s at "
                "pressure normal, result untagged")

    def deadline_cutoff(self) -> str:
        """Caller deadlines cut work at admission and mid-campaign —
        an expired clock never buys a fresh campaign budget."""
        data, abi = self.contract(20)
        dead = self.client.submit(data, abi, client="deadline-dead",
                                  deadline_epoch_s=time.time() - 5.0)
        _expect(dead["state"] == "deadline_exceeded"
                and dead["outcome"] == "deadline_exceeded",
                f"already-expired submission was admitted: "
                f"state={dead['state']!r} outcome={dead['outcome']!r}")
        _expect(dead.get("result") is None,
                "an expired-at-admission job still produced a verdict")
        # A live but unmeetable deadline: admitted, then cut while
        # queued or between fuzz rounds — never run to completion.  A
        # drill-sized campaign can finish inside 20 ms, so this one
        # gets a budget 20x larger.
        data2, abi2 = self.contract(21)
        started = time.monotonic()
        queued = self.client.submit(
            data2, abi2, client="deadline-tight", deadline_s=0.02,
            config={"timeout_ms": 20 * _DRILL_TIMEOUT_MS})
        final = queued if queued["state"] == "deadline_exceeded" else \
            self.client.wait(queued["id"], timeout_s=_WAIT_S,
                             poll_s=0.02)
        took = time.monotonic() - started
        _expect(final["state"] == "deadline_exceeded",
                f"20 ms-deadline job ended {final['state']!r} "
                f"(error={final.get('error')!r})")
        _expect(final.get("result") is None,
                "a deadline-cut job still produced a full verdict")
        _expect(final.get("error"),
                "deadline_exceeded job carries no typed error message")
        stats = self.stats()
        _expect(stats["deadline_exceeded"] >= 2,
                f"/stats counts {stats['deadline_exceeded']} "
                "deadline_exceeded jobs, expected both")
        _expect(stats["shed_by_kind"].get("deadline", 0) >= 2,
                f"per-kind shed books miss the deadline cuts: "
                f"{stats['shed_by_kind']}")
        return ("expired submit refused at admission, 20 ms deadline "
                f"cut after {took:.2f}s, neither got a campaign")

    def overload_burst(self) -> str:
        """Over 8x the admission bound, mixed deadlines/clients/
        priorities: typed sheds with measured Retry-After, ladder
        engages, deadline victims never run full campaigns."""
        overload = self.service.overload
        # Half the measured baseline latency: a guaranteed SLO breach
        # under load, with no machine-dependent constant.
        overload.target_p95_s = max(self.baseline_exec_s * 0.5, 0.02)
        capacity = overload.base_inflight
        total = 100
        # ~2 job-times of caller patience: generous for an unloaded
        # daemon, hopeless behind a full backlog (whose queue wait is
        # several job-times) — so deadline cuts are load-dependent,
        # not machine-dependent.
        patience_s = min(max(2.0 * self.baseline_exec_s, 0.02), 0.5)
        # Pre-generate contracts so the submits outrun the drain.
        batch = [self.contract(seed) for seed in range(100, 100 + total)]
        fast = ServiceClient(self.client.base_url, timeout_s=30.0,
                             max_retries=0)

        def submit(index: int):
            data, abi = batch[index]
            kwargs = {"client": f"tenant-{index % 4}",
                      "priority": -1 if index % 5 == 0 else 0}
            if index % 3 == 0:
                kwargs["deadline_s"] = patience_s
            try:
                return fast.submit(data, abi, **kwargs)
            except ServiceError as exc:
                return exc

        # Imported here, not at the top: every daemon imports this
        # module, and the executor machinery costs it about 0.5 MB.
        from concurrent.futures import ThreadPoolExecutor

        admitted: list[tuple[str, bool]] = []
        cut_at_admission = 0
        # One client sending the burst a request at a time arrives no
        # faster than two workers drain it, so the queue never builds.
        # Concurrent clients fill the queue, and deadline jobs then
        # wait behind a backlog longer than their patience.
        with ThreadPoolExecutor(max_workers=_BURST_CLIENTS) as clients:
            for index, answer in enumerate(clients.map(submit,
                                                       range(total))):
                had_deadline = index % 3 == 0
                if isinstance(answer, ServiceError):
                    _expect(answer.status == 429,
                            f"burst submit died with HTTP "
                            f"{answer.status}: {answer.doc}")
                    kind = answer.doc.get("kind")
                    _expect(kind in SHED_KINDS,
                            f"shed carries unknown kind {kind!r}")
                    _expect(float(answer.doc.get("retry_after_s") or 0)
                            > 0, f"{kind!r} shed carries no measured "
                            f"Retry-After: {answer.doc}")
                    self.observed_sheds[kind] = \
                        self.observed_sheds.get(kind, 0) + 1
                elif answer["state"] == "deadline_exceeded":
                    cut_at_admission += 1
                    _expect(answer.get("result") is None,
                            "an admission-expired burst job produced "
                            "a verdict")
                else:
                    admitted.append((answer["id"], had_deadline))
                self._note_pressure()
        _expect(sum(self.observed_sheds.values()) >= 1,
                f"a burst of {total} was fully admitted past the "
                f"bound {capacity} — nothing was shed")
        done = cut = 0
        for job_id, had_deadline in admitted:
            final = self.client.wait(job_id, timeout_s=_WAIT_S,
                                     poll_s=0.02)
            self._note_pressure()
            if final["state"] == "deadline_exceeded":
                _expect(had_deadline,
                        f"job {job_id} had no caller deadline yet "
                        "ended deadline_exceeded")
                _expect(final.get("result") is None,
                        f"deadline-exceeded job {job_id} ran a full "
                        "campaign and produced a verdict")
                cut += 1
            else:
                _expect(final["state"] == "done",
                        f"burst job {job_id} ended "
                        f"{final['state']!r}: {final.get('error')!r}")
                done += 1
        _expect(cut + cut_at_admission >= 1,
                f"no {patience_s * 1000:.0f} ms-deadline job was cut "
                f"under a burst of {total}")
        _expect(pressure_rank(self.peak) >= pressure_rank("elevated"),
                f"the burst never moved pressure past {self.peak!r}")
        snap = self.service.overload.snapshot()
        _expect(snap["adjustments"] >= 1,
                f"the AIMD controller never adjusted its limit: "
                f"{snap}")
        shed_total = sum(self.observed_sheds.values())
        return (f"{total} submits: {done} done, "
                f"{cut + cut_at_admission} deadline-cut, {shed_total} "
                f"shed {self.observed_sheds}, peak pressure "
                f"{self.peak}")

    def brownout_recovery(self) -> str:
        """The burst drains: ladder back to normal, AIMD limit back
        to its ceiling, shed books truthful, verdicts untagged."""
        horizon = time.monotonic() + 60.0
        stats = self.stats()
        while time.monotonic() < horizon:
            stats = self.stats()
            overload = stats["overload"]
            if (stats["pressure"] == "normal"
                    and overload["effective_inflight"]
                    == overload["base_inflight"]):
                break
            time.sleep(0.05)
        _expect(stats["pressure"] == "normal",
                f"pressure stuck at {stats['pressure']!r} after the "
                f"burst drained: {stats['overload']}")
        _expect(stats["overload"]["effective_inflight"]
                == stats["overload"]["base_inflight"],
                "the AIMD inflight limit never recovered to its "
                f"ceiling: {stats['overload']}")
        by_kind = dict(stats["shed_by_kind"])
        admission_kinds = ("queue", "brownout", "disk")
        _expect(stats["shed"] == sum(by_kind.get(k, 0)
                                     for k in admission_kinds),
                f"shed aggregate disagrees with its per-kind split: "
                f"shed={stats['shed']} by_kind={by_kind}")
        for kind, seen in self.observed_sheds.items():
            _expect(by_kind.get(kind, 0) >= seen,
                    f"clients saw {seen} {kind!r} shed(s) but /stats "
                    f"counts {by_kind.get(kind, 0)}")
        _expect(by_kind.get("deadline", 0)
                == stats["deadline_exceeded"],
                f"deadline books disagree: shed_by_kind counts "
                f"{by_kind.get('deadline', 0)}, terminal jobs "
                f"{stats['deadline_exceeded']}")
        # Back at normal: full-size campaigns, no brownout provenance,
        # and the pre-burst verdict still served byte-identical.
        self.service.overload.target_p95_s = 30.0
        fresh = self.submit_and_wait(30, "recovered")
        prov = fresh["result"].get("provenance") or {}
        _expect("reduced" not in prov,
                f"a normal-pressure verdict is still brownout-tagged: "
                f"{prov}")
        redo = self.submit_and_wait(0, "recovered-redo")
        _expect(redo["outcome"] == "cached"
                and redo["result"] == self.results[0],
                "the pre-burst baseline verdict changed across the "
                "overload episode")
        health = self.client.health()
        _expect(health["status"] == "ok"
                and health["pressure"] == "normal",
                f"daemon not nominal after recovery: {health}")
        return (f"pressure {self.peak} -> normal, inflight limit "
                f"restored to {stats['overload']['base_inflight']}, "
                f"books balanced ({stats['shed']} shed, "
                f"{stats['deadline_exceeded']} deadline-cut)")


def run_chaos_drill(schedule: str = "ci", *, verbose: bool = False,
                    keep_dir: "str | None" = None) -> ChaosReport:
    """Run one chaos schedule against a freshly booted daemon.

    ``keep_dir``, when given, is used as the drill's working directory
    and left on disk for post-mortem (default: a temp dir, removed)."""
    if schedule not in CHAOS_SCHEDULES:
        raise ValueError(
            f"unknown chaos schedule {schedule!r}; "
            f"choose from {sorted(CHAOS_SCHEDULES)}")
    root = Path(keep_dir) if keep_dir else \
        Path(tempfile.mkdtemp(prefix="wasai-chaos-"))
    root.mkdir(parents=True, exist_ok=True)
    report = ChaosReport(schedule=schedule)
    drill_cls = _OverloadDrill if schedule == "overload" else _Drill
    drill = drill_cls(root, verbose=verbose)
    try:
        for name in CHAOS_SCHEDULES[schedule]:
            phase = getattr(drill, name)
            started = time.monotonic()
            try:
                detail = phase()
                ok = True
            except ChaosViolation as exc:
                detail, ok = str(exc), False
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                detail, ok = f"{type(exc).__name__}: {exc}", False
            finally:
                clear_fault_plan()
            entry = {"name": name, "ok": ok, "detail": detail,
                     "seconds": time.monotonic() - started}
            report.phases.append(entry)
            if verbose:
                mark = "ok" if ok else "FAIL"
                print(f"[chaos] {mark:<4} {name}: {detail}")
            if not ok:
                break
        try:
            report.stats = drill.stats()
        except Exception:  # noqa: BLE001 - daemon may be wedged
            report.stats = {}
    finally:
        drill.close()
        if not keep_dir:
            shutil.rmtree(root, ignore_errors=True)
    return report
