"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def test_gen_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "victim"
    code = main(["gen", "--out", str(out), "--no-fake-eos-guard"])
    assert code == 0
    assert out.with_suffix(".wasm").exists()
    abi = json.loads(out.with_suffix(".abi.json").read_text())
    assert any(a["name"] == "transfer" for a in abi["actions"])
    assert "fake_eos" in capsys.readouterr().out


def test_gen_then_scan_vulnerable(tmp_path, capsys):
    out = tmp_path / "victim"
    main(["gen", "--out", str(out), "--no-fake-eos-guard", "--blockinfo",
          "--reward", "inline"])
    capsys.readouterr()
    code = main(["scan", str(out.with_suffix(".wasm")),
                 "--abi", str(out.with_suffix(".abi.json")),
                 "--timeout-ms", "8000"])
    output = capsys.readouterr().out
    assert code == 1  # vulnerable => nonzero exit
    assert "Fake EOS" in output
    assert "VULNERABLE" in output


def test_scan_patched_contract_clean(tmp_path, capsys):
    out = tmp_path / "safe"
    main(["gen", "--out", str(out), "--reward", "defer"])
    capsys.readouterr()
    code = main(["scan", str(out.with_suffix(".wasm")),
                 "--abi", str(out.with_suffix(".abi.json")),
                 "--timeout-ms", "8000"])
    assert code == 0
    assert "no issues found" in capsys.readouterr().out


def test_scan_with_eosafe(tmp_path, capsys):
    out = tmp_path / "victim"
    main(["gen", "--out", str(out), "--no-auth-check"])
    capsys.readouterr()
    code = main(["scan", str(out.with_suffix(".wasm")),
                 "--abi", str(out.with_suffix(".abi.json")),
                 "--tool", "eosafe"])
    assert code == 1
    assert "Missing Authorization" in capsys.readouterr().out


def test_gen_obfuscated_and_verified(tmp_path):
    out = tmp_path / "hard"
    code = main(["gen", "--out", str(out), "--obfuscate",
                 "--verification"])
    assert code == 0
    from repro.wasm import parse_module, validate_module
    validate_module(parse_module(out.with_suffix(".wasm").read_bytes()))


def test_bench_table4_tiny(capsys):
    code = main(["bench", "table4", "--scale", "0.004",
                 "--timeout-ms", "5000"])
    assert code == 0
    output = capsys.readouterr().out
    assert "wasai" in output
    assert "eosafe" in output
    assert "Total" in output


def test_bench_table4_parallel_jobs(capsys):
    code = main(["bench", "table4", "--scale", "0.004",
                 "--timeout-ms", "5000", "--jobs", "2"])
    assert code == 0
    output = capsys.readouterr().out
    assert "throughput (jobs=2)" in output
    assert "Total" in output


def test_bench_journal_and_resume(tmp_path, capsys):
    journal = tmp_path / "t4.jsonl"
    base = ["bench", "table4", "--scale", "0.004",
            "--timeout-ms", "5000", "--journal", str(journal)]
    assert main(base) == 0
    first = capsys.readouterr().out
    assert journal.exists() and journal.read_text().count("\n") > 0

    assert main(base + ["--resume"]) == 0
    resumed = capsys.readouterr().out
    # The metrics tables (everything before the throughput block) are
    # byte-identical; only the timing block may differ.
    assert resumed.split("--- throughput")[0] \
        == first.split("--- throughput")[0]


def test_bench_resume_requires_journal(capsys):
    code = main(["bench", "table4", "--scale", "0.004", "--resume"])
    assert code == 2
    assert "requires --journal" in capsys.readouterr().err


def test_bench_resilience_flags_accepted(capsys):
    code = main(["bench", "table4", "--scale", "0.004",
                 "--timeout-ms", "5000", "--max-retries", "2",
                 "--quarantine-after", "4"])
    assert code == 0
    assert "Total" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_bench_reports_latency_percentiles(capsys):
    code = main(["bench", "table4", "--scale", "0.004",
                 "--timeout-ms", "5000"])
    assert code == 0
    output = capsys.readouterr().out
    assert "latency task" in output
    assert "p95=" in output


def test_bench_fail_on_quarantine_gates_exit_code(monkeypatch, capsys):
    import repro.cli as cli_mod

    def fake_evaluate_corpus(samples, **kwargs):
        kwargs["perf"].quarantined = 2
        return {}

    monkeypatch.setattr(cli_mod, "evaluate_corpus",
                        fake_evaluate_corpus)
    # Without the flag the (lossy) run still exits 0 — the historical
    # gap this flag closes.
    code = main(["bench", "table4", "--scale", "0.004"])
    assert code == 0
    capsys.readouterr()
    code = main(["bench", "table4", "--scale", "0.004",
                 "--fail-on-quarantine"])
    assert code == 3
    assert "quarantined" in capsys.readouterr().err


def test_unknown_oracle_family_is_usage_error(tmp_path, capsys):
    out = tmp_path / "victim"
    main(["gen", "--out", str(out)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["scan", str(out.with_suffix(".wasm")),
              "--abi", str(out.with_suffix(".abi.json")),
              "--oracles", "token_arith,bogus"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown oracle family 'bogus'" in err
    assert "Traceback" not in err


def test_no_shared_cache_directory(tmp_path, capsys):
    """There is no cache directory: ``--cache-dir`` is no option, and a
    scan run with ``REPRO_CACHE_DIR`` set writes nothing there."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    out = tmp_path / "victim"
    main(["gen", "--out", str(out)])
    capsys.readouterr()
    scan = ["scan", str(out.with_suffix(".wasm")),
            "--abi", str(out.with_suffix(".abi.json")),
            "--timeout-ms", "2000"]
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    for argv in (scan, ["bench", "table4", "--scale", "0.004",
                        "--timeout-ms", "2000"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--cache-dir", str(cache_dir)])
        assert excinfo.value.code == 2
    assert "--cache-dir" in capsys.readouterr().err
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
               PYTHONPATH=str(Path(repro.__file__).parents[1]))
    subprocess.run([sys.executable, "-m", "repro.cli", *scan], env=env,
                   capture_output=True, timeout=120)
    assert list(cache_dir.iterdir()) == []


def test_no_translate_option(capsys):
    """``REPRO_WASM_TRANSLATE=0`` is the one process-wide switch for
    the translator: ``--no-translate`` is no option of either command."""
    for argv in (["scan", "victim.wasm", "--abi", "victim.abi.json"],
                 ["bench", "table4", "--scale", "0.004"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--no-translate"])
        assert excinfo.value.code == 2
        assert "--no-translate" in capsys.readouterr().err


def test_scan_with_semantic_oracles(tmp_path, capsys):
    out = tmp_path / "safe"
    main(["gen", "--out", str(out), "--reward", "none",
          "--maze-depth", "0"])
    capsys.readouterr()
    code = main(["scan", str(out.with_suffix(".wasm")),
                 "--abi", str(out.with_suffix(".abi.json")),
                 "--timeout-ms", "5000", "--oracles", "all"])
    output = capsys.readouterr().out
    assert code == 0
    assert "Token Arithmetic" in output
    assert "On-Chain Data Consistency" in output


def test_bench_semantic_with_family_fp_gate(capsys):
    code = main(["bench", "semantic", "--scale", "0.02",
                 "--timeout-ms", "8000", "--fail-on-family-fp"])
    assert code == 0
    output = capsys.readouterr().out
    assert "token_arith" in output
    assert "data_consistency" in output
    assert "eosafe" not in output  # comparison tools sit this one out


def test_bench_family_fp_gate_exit_code(monkeypatch, capsys):
    import repro.cli as cli_mod
    from repro.metrics import MetricsTable

    def fake_evaluate_corpus(samples, **kwargs):
        table = MetricsTable("wasai", ("token_arith",))
        table.record("token_arith", False, True)  # one clean FP
        return {"wasai": table}

    monkeypatch.setattr(cli_mod, "evaluate_corpus",
                        fake_evaluate_corpus)
    code = main(["bench", "semantic", "--scale", "0.02"])
    assert code == 0  # without the gate the FP only shows in the table
    capsys.readouterr()
    code = main(["bench", "semantic", "--scale", "0.02",
                 "--fail-on-family-fp"])
    assert code == 6
    assert "wasai/token_arith: 1" in capsys.readouterr().err


def test_submit_against_unreachable_daemon_fails_cleanly(tmp_path,
                                                         capsys):
    out = tmp_path / "victim"
    main(["gen", "--out", str(out)])
    capsys.readouterr()
    # No daemon on this port: the client retries the connection
    # failure, then surfaces a typed ServiceError — which the CLI
    # turns into a clean nonzero exit, never a raw URLError traceback.
    code = main(["submit", str(out.with_suffix(".wasm")),
                 "--abi", str(out.with_suffix(".abi.json")),
                 "--url", "http://127.0.0.1:9"])
    assert code == 4
    err = capsys.readouterr().err
    assert "unreachable" in err
    assert "Traceback" not in err


def test_serve_and_submit_round_trip(tmp_path, capsys):
    import threading

    from repro.service import (ScanService, ScanServiceConfig,
                               make_server)

    out = tmp_path / "victim"
    main(["gen", "--out", str(out), "--no-fake-eos-guard"])
    capsys.readouterr()
    service = ScanService(
        store=str(tmp_path / "store.db"),
        config=ScanServiceConfig(workers=1, poll_s=0.02,
                                 default_timeout_ms=4000.0))
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        code = main(["submit", str(out.with_suffix(".wasm")),
                     "--abi", str(out.with_suffix(".abi.json")),
                     "--url", url, "--wait"])
        output = capsys.readouterr().out
        assert code == 1  # vulnerable contract => nonzero, like scan
        assert "outcome: queued" in output
        assert '"state": "done"' in output
        code = main(["status", "--stats", "--url", url])
        assert code == 0
        assert '"completed": 1' in capsys.readouterr().out
    finally:
        server.shutdown()
        server.server_close()
        service.stop(wait_s=5)
        thread.join(timeout=5)
