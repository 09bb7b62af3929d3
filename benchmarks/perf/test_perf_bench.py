"""Smoke test for the perf benchmark: ``pytest benchmarks/perf``.

Drives ``run.py`` through the same command line as a benchmark run, at
smoke-test input sizes (``--tiny``), for every workload named in
``BENCHMARK.json``, untraced and traced.
"""

import json
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from tracer import ReportTally, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload: str, trace: int, out: Path | None = None):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "30", "--trace", str(trace),
            "--tiny"]
    if out is not None:
        argv += ["--out", str(out)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    info = next(json.loads(line)["info"] for line in lines
                if line.startswith('{"info"'))
    return info, json.loads(lines[-1])


def assert_metrics(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} \
        == {spec["name"]: spec["unit"] for spec in specs}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    _, result = run_bench(workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_and_spans_nest(workload, tmp_path):
    info, result = run_bench(workload, 1, tmp_path)
    assert_metrics(result, SPEC["per_layer"])
    assert info["traced_matches_untraced"]
    assert info["digest"] == info["untraced"]["digest"]
    assert info["fingerprint"] == info["untraced"]["fingerprint"]
    assert result["metrics"]["trace_overhead"]["value"] > 0
    if workload == "svc_mixed":
        return      # the daemon's spans stay in the daemon
    spans = [json.loads(line) for line in
             (tmp_path / f"{workload}.spans.jsonl").read_text().splitlines()]
    assert spans
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"]:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] \
                <= parent["end"]
            assert (parent["campaign"], parent["thread"]) \
                == (span["campaign"], span["thread"])
    assert abs(info["self_s_sum"] - info["wall_s"]) <= 0.05 * info["wall_s"]


def test_one_failed_campaign_fails_the_run(monkeypatch, capsys):
    import run
    import workloads
    for name in workloads.STRIPPED_ENV:
        monkeypatch.delenv(name, raising=False)
    real_run, real_reset = workloads._run_campaign, workloads._reset_caches
    timed = []      # set once the warm-up is over

    def run_campaign(campaign):
        if timed and not timed[0]:
            timed[0] = campaign.key
            raise RuntimeError("injected failure")
        return real_run(campaign)

    monkeypatch.setattr(workloads, "_reset_caches",
                        lambda: (real_reset(), timed.append(None)))
    monkeypatch.setattr(workloads, "_run_campaign", run_campaign)
    code = run.main(["--workload", "maze_batch", "--seed", "1",
                     "--seconds", "30", "--tiny"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert timed[0] and code != 0
    assert result["correct"] is False and result["failed"] == 1
    assert result["attempted"] > 1


def test_one_failed_submit_fails_the_service_run(monkeypatch):
    import workloads
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    sample = SimpleNamespace(vuln_type="fake_eos", label=True)
    verdict = {"findings": {"fake_eos": {"detected": True}}}
    ok = workloads._Submit(0, 0.0, "alice", 0, outcome="queued",
                           done_at=0.5, rtt_s=0.01,
                           doc={"state": "done", "verdict": verdict,
                                "latency_s": 0.2})
    refused = workloads._Submit(1, 0.25, "bob", 1, error="submit: 429")
    stats = {"dedup": {"cache_hits": 0, "coalesce_hits": 0}, "shed": 1}
    outcome = workloads._service_outcome(
        [sample, sample], [ok, refused], 0.0, stats, 0.1, 100.0, None)
    assert outcome.failed == 1 and outcome.attempted == 2
    assert not outcome.correct
    assert outcome.metrics["campaigns_per_s"] == pytest.approx(1 / 0.5)


def test_tracer_and_tally_count_every_call_across_threads():
    """The traced daemon's scan threads share one tracer and one tally."""
    threads_n, calls_n = 8, 2000
    tracer = Tracer(keep_spans=True)
    tally = ReportTally()
    report = SimpleNamespace(
        iterations=1, observations=[None], adaptive_seeds=0, covered={1},
        solver_stats=SimpleNamespace(checks=1, sat_calls=0,
                                     sat_conflicts=0, unknowns=0))
    inner = tracer._wrap(lambda: None, "smt.check.fast")
    outer = tracer._wrap(lambda: (inner(), tally.add(report)),
                         "harness.run_wasai")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [outer() for _ in
                                                    range(calls_n)])
                   for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    total = threads_n * calls_n
    layers = tracer.layers()
    assert layers["harness.run_wasai"]["calls"] == total
    assert layers["smt.check.fast"]["calls"] == total
    assert tally.counts["campaigns"] == tally.counts["iterations"] == total
    spans = tracer.spans()
    assert len({span["id"] for span in spans}) == 2 * total
    campaigns = {span["campaign"] for span in spans
                 if span["name"] == "harness.run_wasai"}
    assert len(campaigns) == total
