"""Outside-in layer tracing for the perf benchmark.

Every span is recorded from the benchmark's own files: the public
functions of each layer are wrapped where their callers look them up
(a module global or a class attribute), so no file under ``src/``
changes.  The patch points are listed in ``PATCH_POINTS``; a span's
layer name is the third field.  ``Solver.check`` gets one wrapper whose
span is named after the solver layer that answered (see
``_check_layer``).

Self time is a span's duration minus the time its child spans cover.
Aggregates (calls, self seconds, per-call durations of the layers in
``TIMED_LAYERS``) are kept per thread, so the two scan threads of a
traced daemon never contend on a lock, and merged when read.  Span
records are kept in memory only when asked for and written out by the
caller at exit.

Run as a script, this module starts a traced ``wasai`` CLI command (the
scan daemon of the ``svc_mixed`` workload) and writes its layer
aggregates and campaign tallies to a JSON file once the command returns::

    python benchmarks/perf/tracer.py LAYERS.json serve --port 0 ...
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path, layer name).  The attribute is replaced on
# the object the caller reads it from, so e.g. ``decode_raw_trace`` is
# patched in the fuzzer's namespace, which is where the fuzzer finds it.
PATCH_POINTS = (
    ("repro.harness", "run_wasai", "harness.run_wasai"),
    ("repro.harness", "setup_chain", "engine.setup_chain"),
    ("repro.harness", "deploy_target", "engine.deploy_target"),
    ("repro.harness", "scan_report", "scanner.scan_report"),
    ("repro.engine.deploy", "instrument_module",
     "instrument.instrument_module"),
    ("repro.engine.fuzzer", "WasaiFuzzer.run", "engine.fuzz"),
    ("repro.eosio.chain", "Chain.push_transaction",
     "eosio.push_transaction"),
    ("repro.engine.fuzzer", "decode_raw_trace",
     "instrument.decode_raw_trace"),
    ("repro.engine.fuzzer", "branch_coverage_ids",
     "symbolic.branch_coverage_ids"),
    ("repro.engine.fuzzer", "replay_action", "symbolic.replay_action"),
    ("repro.engine.fuzzer", "flip_queries", "symbolic.flip_queries"),
    ("repro.engine.fuzzer", "solve_flips", "symbolic.solve_flips"),
    ("repro.engine.fuzzer", "random_seed", "engine.random_seed"),
    ("repro.engine.fuzzer", "build_payload", "scanner.build_payload"),
)
SOLVER_LAYERS = ("smt.check.cache", "smt.check.fast", "smt.check.disk",
                 "smt.check.cdcl", "smt.check.trivial")
LAYERS = tuple(name for _, _, name in PATCH_POINTS) + SOLVER_LAYERS
# Layers whose per-call durations are kept for p50/p95.
TIMED_LAYERS = ("eosio.push_transaction", "symbolic.replay_action",
                "smt.check.cdcl")


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class _ThreadState:
    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.stack: list[list] = []     # [name, span id, start, child s]
        self.campaign = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.spans: list[tuple] = []


class Tracer:
    """Spans and per-layer aggregates for the patched layers."""

    def __init__(self, keep_spans: bool = False):
        self.keep_spans = keep_spans
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._span_ids = itertools.count(1)
        self._campaign_ids = itertools.count(1)
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            self._states.append(state)
        return state

    def _enter(self, state: _ThreadState, name: str) -> list:
        if not state.stack:
            # An outermost span starts a campaign; its descendants
            # carry the same id.
            state.campaign = next(self._campaign_ids)
        frame = [name, next(self._span_ids), time.perf_counter(), 0.0]
        state.stack.append(frame)
        return frame

    def _exit(self, state: _ThreadState, frame: list,
              name: str | None = None) -> None:
        end = time.perf_counter()
        state.stack.pop()
        name = name or frame[0]
        duration = end - frame[2]
        state.calls[name] += 1
        state.self_s[name] += duration - frame[3]
        parent = 0
        if state.stack:
            state.stack[-1][3] += duration
            parent = state.stack[-1][1]
        if name in TIMED_LAYERS:
            state.durations[name].append(duration)
        if self.keep_spans:
            state.spans.append((frame[1], name, frame[2] - self.origin,
                                end - self.origin, parent, state.campaign,
                                state.thread_id))

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            state = self._state()
            frame = self._enter(state, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(state, frame)
        return traced

    def _wrap_check(self, check):
        from repro.smt.solver import solver_cache

        def counters(solver) -> tuple:
            stats = solver.stats
            cache = solver_cache()
            return (stats.cache_hits, stats.fast_path_hits,
                    cache.disk.hits if cache is not None else 0,
                    stats.sat_calls)

        def traced(solver, *extra):
            state = self._state()
            before = counters(solver)
            frame = self._enter(state, "smt.check")
            try:
                return check(solver, *extra)
            finally:
                self._exit(state, frame,
                           _check_layer(before, counters(solver)))
        return traced

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        for module_name, path, name in PATCH_POINTS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name))
            self._undo.append((owner, attr, original))
        owner, attr = _resolve("repro.smt.solver", "Solver.check")
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap_check(original))
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def layers(self) -> dict[str, dict]:
        """name -> {"calls", "self_s", "durations_s"} over all threads."""
        merged = {name: {"calls": 0, "self_s": 0.0, "durations_s": []}
                  for name in LAYERS}
        for state in list(self._states):
            for name, calls in state.calls.items():
                merged[name]["calls"] += calls
                merged[name]["self_s"] += state.self_s[name]
            for name, durations in state.durations.items():
                merged[name]["durations_s"].extend(durations)
        return merged

    def spans(self) -> list[dict]:
        records = sorted(span for state in list(self._states)
                         for span in state.spans)
        keys = ("id", "name", "start", "end", "parent", "campaign",
                "thread")
        return [dict(zip(keys, record)) for record in records]


def _check_layer(before: tuple, after: tuple) -> str:
    """Which solver layer answered, from the counter that moved."""
    cache, fast, disk, cdcl = (b - a for a, b in zip(before, after))
    if cache:
        return "smt.check.cache"
    if fast:
        return "smt.check.fast"
    if cdcl:
        return "smt.check.cdcl"
    if disk:
        return "smt.check.disk"
    return "smt.check.trivial"


class ReportTally:
    """Exact work counts summed over the campaigns' ``FuzzReport``\\ s.

    The fuzzing budget is virtual, so for the same inputs these repeat
    exactly; they are the work fingerprint that proves tracing changed
    no behaviour.  Thread-safe: the daemon's scan threads share one.
    """

    FIELDS = ("campaigns", "iterations", "observations", "adaptive_seeds",
              "branches_covered", "solver_checks", "cdcl_calls",
              "cdcl_conflicts", "cdcl_unknowns")

    def __init__(self):
        self._lock = threading.Lock()
        self.counts = dict.fromkeys(self.FIELDS, 0)

    def add(self, report) -> None:
        stats = report.solver_stats
        with self._lock:
            for field, value in (
                    ("campaigns", 1),
                    ("iterations", report.iterations),
                    ("observations", len(report.observations)),
                    ("adaptive_seeds", report.adaptive_seeds),
                    ("branches_covered", len(report.covered)),
                    ("solver_checks", stats.checks),
                    ("cdcl_calls", stats.sat_calls),
                    ("cdcl_conflicts", stats.sat_conflicts),
                    ("cdcl_unknowns", stats.unknowns)):
                self.counts[field] += value

    def observe_run_wasai(self, sink: list | None = None):
        """Wrap ``repro.harness.run_wasai`` so every finished campaign
        is tallied (and, with ``sink``, its ``WasaiRun`` appended);
        returns the undo callable."""
        import repro.harness as harness
        original = harness.run_wasai

        def observed(*args, **kwargs):
            run = original(*args, **kwargs)
            self.add(run.report)
            if sink is not None:
                sink.append(run)
            return run
        harness.run_wasai = observed

        def undo():
            harness.run_wasai = original
        return undo


def _serve_traced(layers_out: Path, argv: list[str]) -> int:
    """Run a ``wasai`` command under the tracer; dump aggregates."""
    from repro.cli import main
    tracer = Tracer()
    tracer.install()
    tally = ReportTally()
    tally.observe_run_wasai()
    try:
        code = main(argv)
    finally:
        doc = {"layers": tracer.layers(), "tally": tally.counts}
        layers_out.write_text(json.dumps(doc), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(_serve_traced(Path(sys.argv[1]), sys.argv[2:]))
