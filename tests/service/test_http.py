"""End-to-end daemon tests over real sockets (ephemeral ports).

The headline scenario is the service's acceptance bar: two concurrent
clients submit the same module; exactly one fuzzing campaign runs,
both receive the identical verdict, and ``GET /stats`` shows the
coalesce hit, the queue draining back to zero and non-zero p50/p95
latency.
"""

import base64
import json
import threading
import urllib.request

import pytest

from repro.resilience import Fault, install_fault_plan
from repro.service import (ScanService, ScanServiceConfig,
                           ServiceClient, ServiceError, make_server)

from .conftest import FAST_TIMEOUT_MS


@pytest.fixture
def daemon(tmp_path):
    """A real daemon on an ephemeral port; torn down afterwards."""
    service = ScanService(
        store=str(tmp_path / "store.db"),
        config=ScanServiceConfig(workers=2, max_depth=8, poll_s=0.02,
                                 default_timeout_ms=FAST_TIMEOUT_MS))
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield ServiceClient(f"http://{host}:{port}"), service
    server.shutdown()
    server.server_close()
    service.stop(wait_s=5)
    thread.join(timeout=5)


def test_healthz(daemon):
    client, _ = daemon
    assert client.health()["status"] == "ok"


def test_unknown_routes_and_jobs_are_404(daemon):
    client, _ = daemon
    with pytest.raises(ServiceError) as excinfo:
        client.status("nonexistent")
    assert excinfo.value.status == 404
    status, _doc = client._request("GET", "/nope")
    assert status == 404
    # The /fleet/* paths are unknown routes like any other.
    status, _doc = client._request("POST", "/fleet/steal", {})
    assert status == 404
    status, _doc = client._request("GET", "/fleet/journal?cursor=0")
    assert status == 404


def test_bad_request_bodies_are_400(daemon):
    client, _ = daemon
    status, doc = client._request("POST", "/scans", {"abi": "{}"})
    assert (status, doc["error"]) == (400, "bad_request")
    status, doc = client._request(
        "POST", "/scans", {"module_b64": "!!!not-base64", "abi": "{}"})
    assert (status, doc["error"]) == (400, "bad_request")


def test_hostile_upload_rejected_at_admission(daemon, sample_contract):
    client, service = daemon
    _, abi = sample_contract
    with pytest.raises(ServiceError) as excinfo:
        client.submit(b"\x00asm\xff\xff\xff\xffgarbage", abi)
    assert excinfo.value.status == 400
    assert excinfo.value.error == "malformed_module"
    assert service.stats()["admission_rejected"] == 1


def test_two_concurrent_clients_share_one_campaign(daemon,
                                                   sample_contract):
    client, service = daemon
    data, abi = sample_contract
    # Keep the single campaign open long enough that the second
    # client's submission provably arrives while it is in flight.
    install_fault_plan(Fault(stage="fuzz", kind="hang", hang_s=0.4))
    results: dict[str, dict] = {}
    errors: list[Exception] = []
    gate = threading.Barrier(2)

    def one_client(name: str) -> None:
        try:
            gate.wait(timeout=10)
            own = ServiceClient(client.base_url)
            doc = own.submit(data, abi, client=name)
            results[name] = own.wait(doc["id"], timeout_s=60)
        except Exception as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [threading.Thread(target=one_client, args=(name,))
               for name in ("alice", "bob")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    # Both clients got a terminal verdict, and it is identical.
    alice, bob = results["alice"], results["bob"]
    assert alice["state"] == bob["state"] == "done"
    assert alice["id"] == bob["id"]
    assert alice["verdict"] == bob["verdict"]
    assert alice["result"] == bob["result"]
    assert alice["verdict"]["vulnerable"] is True

    stats = client.stats()
    assert stats["completed"] == 1          # exactly one campaign ran
    assert stats["dedup"]["coalesce_hits"] == 1
    assert stats["queue_depth"] == 0
    assert stats["running"] == 0
    job_latency = stats["latency"]["job"]
    assert job_latency["p50_s"] > 0
    assert job_latency["p95_s"] > 0

    # A later duplicate submit is a dedup hit served from the store.
    dup = client.submit(data, abi, client="carol")
    assert dup["outcome"] == "cached"
    assert dup["state"] == "done"
    assert dup["verdict"] == alice["verdict"]
    assert client.stats()["dedup"]["cache_hits"] == 1


def test_submit_returns_json_with_correct_content_type(
        daemon, sample_contract):
    client, _ = daemon
    data, abi = sample_contract
    body = json.dumps({
        "module_b64": base64.b64encode(data).decode("ascii"),
        "abi": abi,
    }).encode()
    request = urllib.request.Request(
        client.base_url + "/scans", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=30) as resp:
        assert resp.status in (200, 202)
        assert resp.headers["Content-Type"] == "application/json"
        doc = json.loads(resp.read())
    assert doc["state"] in ("queued", "running", "done")


@pytest.fixture
def tenant_daemon(tmp_path):
    """A daemon with tenant admission installed."""
    from repro.service import TenantBook
    book = TenantBook(require_key=True)
    book.register("team", "team-key", max_submissions=1)
    service = ScanService(
        store=str(tmp_path / "store.db"),
        config=ScanServiceConfig(workers=1, max_depth=8, poll_s=0.02,
                                 default_timeout_ms=FAST_TIMEOUT_MS))
    server = make_server(service, host="127.0.0.1", port=0,
                         tenants=book)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield ServiceClient(f"http://{host}:{port}")
    server.shutdown()
    server.server_close()
    service.stop(wait_s=5)


def test_tenant_headers_cross_the_wire(tenant_daemon, sample_contract):
    client = tenant_daemon
    data, abi = sample_contract
    body = json.dumps({
        "module_b64": base64.b64encode(data).decode("ascii"),
        "abi": abi,
    }).encode()

    def post(headers):
        request = urllib.request.Request(
            client.base_url + "/scans", data=body, method="POST",
            headers={"Content-Type": "application/json", **headers})
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                return resp.status, dict(resp.headers), \
                    json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), \
                json.loads(exc.read())

    # No key → 401; the first keyed submission is admitted; the next
    # one is over quota → typed 429 with kind=quota and Retry-After.
    status, _headers, doc = post({})
    assert status == 401 and doc["error"] == "unauthorized"
    status, _headers, doc = post({"X-Api-Key": "team-key"})
    assert status in (200, 202)
    status, headers, doc = post({"X-Api-Key": "team-key"})
    assert status == 429 and doc["kind"] == "quota"
    assert int(headers["Retry-After"]) >= 1
