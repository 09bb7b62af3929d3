"""WASAI performance benchmark: one command, two seeded workloads.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py --seed 1                 # all workloads
    python3 benchmarks/perf/run.py --workload svc_mixed --seed 1 \\
        --seconds 35 --trace 0
    python3 benchmarks/perf/run.py --workload maze_batch --seed 1 --trace 1 \\
        --out /tmp/perf

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` first runs that same untraced measurement in a child
process, then reruns the same inputs (the same campaigns, or the same
submit schedule) with every layer wrapped by ``tracer.py``, checks that
the verdict digest and the exact work counts are identical, and reports
the per-layer metrics plus ``trace_overhead``.  Without ``--workload``
each workload runs in its own child process.  ``--tiny`` shrinks every
input set to a smoke-test size.

Every metric is printed by name with its unit; the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when the correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import workloads
from tracer import LAYERS, SOLVER_LAYERS, TIMED_LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKLOADS = ("maze_batch", "svc_mixed")
DEFAULT_SECONDS = 35.0

END_TO_END_UNITS = {"campaigns_per_s": "1/s", "latency_p50_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
SERVICE_UNITS = {"service.submit.p50_ms": "ms",
                 "service.cached.p50_ms": "ms",
                 "service.run.p50_s": "s", "service.run.p90_s": "s",
                 "service.queue_wait.p50_s": "s",
                 "service.queue_wait.p90_s": "s",
                 "service.slo_miss_ratio": "ratio",
                 "service.dedup.cache_hits": "count",
                 "service.dedup.coalesce_hits": "count",
                 "service.shed": "count", "bench.gen_late_max_s": "s"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=lambda p: Path(p).resolve(),
                        default=None,
                        help="write per-workload results (and a traced "
                             "batch's spans) here")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test input sizes")
    return parser.parse_args(argv)


def _child_args(args, workload: str, trace: int,
                out: Path | None = None) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(trace)]
    if args.tiny:
        argv.append("--tiny")
    if out is not None:
        argv += ["--out", str(out)]
    return argv


def _run_child(argv: list[str]) -> tuple[int, dict, dict | None]:
    """Run one benchmark child; (exit code, info, final result)."""
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    info, final = {}, None
    lines = proc.stdout.splitlines()
    for line in lines:
        if line.startswith('{"info"'):
            info = json.loads(line)["info"]
    if lines and lines[-1].startswith('{"correct"'):
        final = json.loads(lines[-1])
    return proc.returncode, info, final


def _environment() -> dict:
    from repro.wasm import translation_enabled
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env={**os.environ,
                            "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = rev.stdout.strip() if rev.returncode == 0 else None
    except OSError:
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "translation_enabled": translation_enabled(),
            "commit": commit}


def _layer_metrics(layers: dict, tally: dict, overhead: float,
                   service: dict | None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, counts normalised per campaign."""
    from repro.metrics import percentile
    campaigns = max(tally.get("campaigns", 0), 1)
    total_self = sum(layer["self_s"] for layer in layers.values()) or 1.0
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        if name == "smt.check.disk":
            continue        # the shared disk tier is off in every run
        layer = layers[name]
        metrics[f"{name}.calls"] = (layer["calls"] / campaigns,
                                    "1/campaign")
        metrics[f"{name}.self_ms"] = (1000.0 * layer["self_s"] / campaigns,
                                      "ms/campaign")
        metrics[f"{name}.share"] = (layer["self_s"] / total_self, "ratio")
    for name in TIMED_LAYERS:
        durations = layers[name]["durations_s"]
        metrics[f"{name}.p50_ms"] = (1000.0 * percentile(durations, 50),
                                     "ms")
        metrics[f"{name}.p95_ms"] = (1000.0 * percentile(durations, 95),
                                     "ms")
    calls = {name: layer["calls"] for name, layer in layers.items()}
    checks = sum(calls[name] for name in SOLVER_LAYERS)
    deploys = calls["engine.deploy_target"]
    metrics.update({
        "instrument.cache_hit_ratio": (
            1.0 - calls["instrument.instrument_module"] / deploys
            if deploys else 0.0, "ratio"),
        "smt.cache_hit_ratio": (calls["smt.check.cache"] / checks
                                if checks else 0.0, "ratio"),
        "smt.fast_path_ratio": (calls["smt.check.fast"] / checks
                                if checks else 0.0, "ratio"),
        "smt.cdcl.unknown_ratio": (
            tally["cdcl_unknowns"] / tally["cdcl_calls"]
            if tally["cdcl_calls"] else 0.0, "ratio"),
        "symbolic.flip_yield": (
            tally["adaptive_seeds"] / tally["solver_checks"]
            if tally["solver_checks"] else 0.0, "ratio"),
        "engine.iterations": (tally["iterations"] / campaigns,
                              "1/campaign"),
        "engine.observations": (tally["observations"] / campaigns,
                                "1/campaign"),
        "smt.cdcl.conflicts": (tally["cdcl_conflicts"] / campaigns,
                               "1/campaign"),
        "symbolic.branches_covered": (tally["branches_covered"] / campaigns,
                                      "1/campaign"),
        "trace_overhead": (overhead, "ratio"),
    })
    for name, unit in SERVICE_UNITS.items():
        metrics[name] = ((service or {}).get(name, 0.0), unit)
    return metrics


def _untraced(args) -> tuple[bool, int, int, dict, dict]:
    if args.workload == "svc_mixed":
        outcome = workloads.run_service(args.seed, args.seconds,
                                        tiny=args.tiny)
    else:
        outcome = workloads.run_batch(args.seed, args.seconds,
                                      tiny=args.tiny)
    metrics = {name: (outcome.metrics[name], unit)
               for name, unit in END_TO_END_UNITS.items()}
    return (outcome.correct, outcome.attempted, outcome.failed, metrics,
            outcome.info)


def _traced(args) -> tuple[bool, int, int, dict, dict]:
    code, base, final = _run_child(_child_args(args, args.workload, 0))
    if final is None or "digest" not in base:
        raise SystemExit(f"untraced {args.workload} run failed "
                         f"(exit {code})")
    if args.workload == "svc_mixed":
        outcome = workloads.run_service(args.seed, args.seconds,
                                        tiny=args.tiny, traced=True,
                                        time_setup=False)
        layers = outcome.layer_doc["layers"]
        tally = outcome.layer_doc["tally"]
        overhead = outcome.info["scaled_run_s_sum"] \
            / base["scaled_run_s_sum"]
        spans = []      # the daemon keeps only aggregates
    else:
        tracer = Tracer(keep_spans=args.out is not None)
        outcome = workloads.run_batch(
            args.seed, args.seconds, tiny=args.tiny,
            limit=base["campaigns"], tracer=tracer, time_setup=False)
        layers = tracer.layers()
        tally = outcome.info["fingerprint"]
        overhead = outcome.info["scaled_sum_s"] / base["scaled_sum_s"]
        spans = tracer.spans()
    same = (outcome.info["digest"] == base["digest"]
            and outcome.info["fingerprint"] == base["fingerprint"])
    metrics = _layer_metrics(layers, tally, overhead,
                             outcome.info.get("service"))
    info = dict(outcome.info, untraced=base, traced_matches_untraced=same,
                self_s_sum=sum(layer["self_s"] for layer in layers.values()))
    if args.out is not None and spans:
        args.out.mkdir(parents=True, exist_ok=True)
        with open(args.out / f"{args.workload}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    correct = bool(final["correct"]) and outcome.correct and same
    return correct, outcome.attempted, outcome.failed, metrics, info


def _emit(workload: str, correct: bool, attempted: int, failed: int,
          metrics: dict[str, tuple[float, str]], info: dict,
          out: Path | None) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload:11s} {name:40s} {value:14.6f} {unit}")
    print(json.dumps({"info": info}, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{workload}.json").write_text(
            json.dumps({"result": result, "info": info}, indent=2,
                       sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)


def _all_workloads(args) -> int:
    """Each workload in its own child process; one combined result."""
    correct, attempted, failed, metrics, worst = True, 0, 0, {}, 0
    for workload in WORKLOADS:
        code, info, final = _run_child(_child_args(args, workload,
                                                   args.trace, args.out))
        worst = max(worst, code)
        if final is None:
            print(f"{workload}: no result (exit {code})", file=sys.stderr)
            correct = False
            continue
        correct = correct and final["correct"]
        attempted += final["attempted"]
        failed += final["failed"]
        for name, metric in final["metrics"].items():
            metrics[f"{workload}.{name}"] = metric
            print(f"{workload:11s} {name:40s} {metric['value']:14.6f} "
                  f"{metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return worst if worst else (0 if correct else 1)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return _all_workloads(args)
    sys.path.insert(0, str(SRC))
    for name in workloads.STRIPPED_ENV:
        os.environ.pop(name, None)
    run = _traced if args.trace else _untraced
    correct, attempted, failed, metrics, info = run(args)
    info = dict(info, workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace,
                environment=_environment())
    _emit(args.workload, correct, attempted, failed, metrics, info,
          args.out)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
