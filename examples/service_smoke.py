"""Service smoke test: drive a real ``wasai serve`` daemon end to end.

Run by the CI ``service-smoke`` job (and runnable by hand):

1. start the daemon as a subprocess on an ephemeral port;
2. submit a benchgen contract, poll the job to completion;
3. submit a hostile module — it must be rejected at admission with a
   typed ``malformed_module`` diagnostic, never reaching a worker;
4. resubmit the first contract — ``/stats`` must show the dedup cache
   hit and a queue drained back to zero with non-zero p50 latency;
5. burst six fresh contracts at the two workers and SIGTERM at once:
   the daemon must exit 0 and log ``drained; N queued job(s)
   checkpointed`` with N >= 1;
6. restart ``wasai serve`` on the same ``--store``: it must run the N
   checkpointed jobs (``/stats`` ``completed`` >= N), after which every
   burst contract's resubmit is served ``cached``; SIGTERM it again.

Exits non-zero on the first violated expectation.
"""

import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.benchgen import ContractConfig, generate_contract
from repro.service import ServiceClient, ServiceError
from repro.wasm import encode_module


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_healthy(client: ServiceClient, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if client.health()["status"] == "ok":
                return
        except Exception:
            time.sleep(0.2)
    raise SystemExit("daemon never became healthy")


def start_daemon(port: int, store: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", str(port), "--store", str(store),
         "--workers", "2", "--timeout-ms", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


def stop_daemon(daemon: subprocess.Popen) -> str:
    """SIGTERM, require a zero exit, return the daemon's log."""
    daemon.send_signal(signal.SIGTERM)
    code = daemon.wait(timeout=60)
    output = daemon.stdout.read().decode(errors="replace")
    print("--- daemon log ---")
    print(output)
    assert code == 0, f"daemon exited {code}"
    return output


def kill_daemon(daemon: subprocess.Popen) -> None:
    """Failure path: kill a daemon still running and show its log."""
    if daemon.poll() is None:
        daemon.kill()
        daemon.wait()
        print("--- daemon log ---")
        print(daemon.stdout.read().decode(errors="replace"))


def contract(seed: int) -> tuple[bytes, str]:
    generated = generate_contract(
        ContractConfig(seed=seed, fake_eos_guard=False,
                       maze_depth=2 + seed % 4))
    return encode_module(generated.module), generated.abi.to_json()


# A bigger virtual budget for the burst: each campaign then takes long
# enough that most of the burst is still queued when SIGTERM lands.
BURST_CONFIG = {"timeout_ms": 60_000}


def restart_leg(port: int, store: Path) -> None:
    """Drain a burst with SIGTERM, then resume it on a fresh daemon."""
    burst = [contract(seed) for seed in range(1, 7)]
    daemon = start_daemon(port, store)
    try:
        client = ServiceClient(f"http://127.0.0.1:{port}")
        wait_healthy(client)
        for data, abi in burst:
            submitted = client.submit(data, abi, config=BURST_CONFIG,
                                      client="burst")
            assert submitted["outcome"] == "queued", submitted
        output = stop_daemon(daemon)
    finally:
        kill_daemon(daemon)
    found = re.search(r"drained; (\d+) queued job\(s\) checkpointed",
                      output)
    assert found, "no drain line in the daemon log"
    checkpointed = int(found.group(1))
    assert checkpointed >= 1, "the burst was not queued at SIGTERM"
    print(f"drain checkpointed {checkpointed} job(s)")

    port = free_port()
    daemon = start_daemon(port, store)
    try:
        client = ServiceClient(f"http://127.0.0.1:{port}")
        wait_healthy(client)
        deadline = time.monotonic() + 120
        while client.stats()["completed"] < checkpointed:
            assert time.monotonic() < deadline, client.stats()
            time.sleep(0.2)
        for data, abi in burst:
            again = client.submit(data, abi, config=BURST_CONFIG,
                                  client="after-restart")
            assert again["outcome"] == "cached", again
        print(f"restart resumed {checkpointed} job(s); every burst "
              "contract served cached")
        stop_daemon(daemon)
    finally:
        kill_daemon(daemon)


def main() -> int:
    generated = generate_contract(ContractConfig(fake_eos_guard=False))
    wasm = encode_module(generated.module)
    abi = generated.abi.to_json()

    port = free_port()
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "store.db"
        daemon = start_daemon(port, store)
        client = ServiceClient(f"http://127.0.0.1:{port}")
        try:
            wait_healthy(client)
            print("daemon healthy")

            job = client.submit(wasm, abi, client="smoke")
            print(f"submitted: job {job['id']} ({job['outcome']})")
            done = client.wait(job["id"], timeout_s=120)
            assert done["state"] == "done", done
            assert done["verdict"]["vulnerable"] is True, done
            print("verdict: vulnerable (as planted)")

            try:
                client.submit(b"\x00asm\x07\x00\x00\x00hostile", abi)
                raise SystemExit("hostile module was accepted!")
            except ServiceError as exc:
                assert exc.status == 400, exc
                assert exc.error == "malformed_module", exc
                print(f"hostile module rejected at admission: {exc}")

            duplicate = client.submit(wasm, abi, client="smoke2")
            assert duplicate["outcome"] == "cached", duplicate
            assert duplicate["verdict"] == done["verdict"], duplicate
            stats = client.stats()
            assert stats["dedup"]["cache_hits"] == 1, stats["dedup"]
            assert stats["admission_rejected"] == 1, stats
            assert stats["queue_depth"] == 0, stats
            assert stats["latency"]["job"]["p50_s"] > 0, stats
            print(f"stats ok: dedup={stats['dedup']} "
                  f"p50={stats['latency']['job']['p50_s']:.3f}s")

            stop_daemon(daemon)
            print("graceful drain ok")
        finally:
            kill_daemon(daemon)
        restart_leg(free_port(), store)
    print("service smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
