"""The transport-free API surface: the typed 429 schema everywhere a
submission can shed, tenant admission, shard redirects, partition
refusal, and the fleet wire verbs.

``ServiceApi.handle`` is driven directly — no sockets — so every
response shape is asserted byte-for-byte deterministically.
"""

import base64
import json

import pytest

from repro.service import (ScanService, ScanServiceConfig, ServiceApi,
                           TenantBook)

from .conftest import contract_bytes

# Every 429 the service emits must carry exactly this schema, with
# kind naming which bound shed the request.
_429_KEYS = {"error", "detail", "kind", "depth", "limit",
             "retry_after_s"}
_KINDS = {"queue", "inflight", "draining", "disk", "quota"}


def _api(tmp_path=None, tenants=None, router=None,
         **config) -> ServiceApi:
    knobs = dict(workers=1, max_depth=2, poll_s=0.02)
    knobs.update(config)
    service = ScanService(config=ScanServiceConfig(**knobs))
    return ServiceApi(service, tenants=tenants, router=router)


def _body(seed: int = 0, **extra) -> bytes:
    data, abi = contract_bytes(seed=seed)
    doc = {"module_b64": base64.b64encode(data).decode("ascii"),
           "abi": abi}
    doc.update(extra)
    return json.dumps(doc).encode("utf-8")


def _assert_429(status: int, doc: dict, kind: str) -> None:
    assert status == 429
    assert _429_KEYS.issubset(doc.keys()), \
        f"429 missing schema fields: {sorted(doc.keys())}"
    assert doc["error"] == "queue_full"
    assert doc["kind"] == kind and kind in _KINDS
    assert doc["retry_after_s"] > 0
    assert isinstance(doc["depth"], int) and isinstance(doc["limit"],
                                                        int)


# -- the typed 429 schema, per shed kind ------------------------------------

def test_queue_depth_shed_emits_the_full_429_schema():
    # Workers never started and max_inflight raised out of the way:
    # distinct modules pile up until queue depth itself is the bound.
    api = _api(max_depth=2, max_inflight=100)
    for seed in range(2):
        status, _doc = api.handle("POST", "/scans", _body(seed=seed))
        assert status == 202
    status, doc = api.handle("POST", "/scans", _body(seed=2))
    _assert_429(status, doc, "queue")


def test_inflight_budget_shed_emits_the_full_429_schema():
    api = _api(max_depth=8, max_inflight=1)
    status, _doc = api.handle("POST", "/scans", _body(seed=0))
    assert status == 202
    status, doc = api.handle("POST", "/scans", _body(seed=1))
    _assert_429(status, doc, "inflight")


def test_draining_shed_emits_the_full_429_schema():
    api = _api()
    api.service.drain(wait_s=0.1)
    status, doc = api.handle("POST", "/scans", _body(seed=0))
    _assert_429(status, doc, "draining")


def test_quota_shed_emits_the_full_429_schema_plus_tenant():
    book = TenantBook(require_key=True)
    book.register("team", "team-key", max_submissions=1)
    api = _api(tenants=book)
    status, _doc = api.handle("POST", "/scans", _body(seed=0),
                              headers={"X-Api-Key": "team-key"})
    assert status == 202 and _doc["tenant"] == "team"
    status, doc = api.handle("POST", "/scans", _body(seed=1),
                             headers={"x-api-key": "team-key"})
    _assert_429(status, doc, "quota")
    assert doc["tenant"] == "team"


def test_refused_submission_does_not_bill_the_tenant():
    book = TenantBook(require_key=True)
    book.register("team", "team-key", max_submissions=1)
    book.register("other", "other-key")
    api = _api(tenants=book, max_depth=1, max_inflight=100)
    status, _doc = api.handle("POST", "/scans", _body(seed=0),
                              headers={"X-Api-Key": "other-key"})
    assert status == 202
    status, doc = api.handle("POST", "/scans", _body(seed=1),
                             headers={"X-Api-Key": "team-key"})
    _assert_429(status, doc, "queue")
    assert book.snapshot()["team"]["admitted"] == 0
    # Capacity frees (a fleet peer takes the queued job).  The retry
    # is the tenant's first admitted submission, not a quota refusal.
    assert len(api.service.steal_unclaimed(1)) == 1
    status, doc = api.handle("POST", "/scans", _body(seed=1),
                             headers={"X-Api-Key": "team-key"})
    assert status == 202 and doc["tenant"] == "team"
    # The quota itself still holds.
    status, doc = api.handle("POST", "/scans", _body(seed=2),
                             headers={"X-Api-Key": "team-key"})
    _assert_429(status, doc, "quota")


# -- tenant admission -------------------------------------------------------

def test_missing_or_unknown_api_key_is_401():
    book = TenantBook(require_key=True)
    book.register("team", "team-key")
    api = _api(tenants=book)
    status, doc = api.handle("POST", "/scans", _body())
    assert status == 401 and doc["error"] == "unauthorized"
    status, doc = api.handle("POST", "/scans", _body(),
                             headers={"X-Api-Key": "nope"})
    assert status == 401 and doc["error"] == "unauthorized"
    # The body field works where custom headers are awkward.
    status, doc = api.handle("POST", "/scans",
                             _body(api_key="team-key"))
    assert status == 202


def test_optional_keys_admit_anonymous_submissions():
    book = TenantBook(require_key=False)
    api = _api(tenants=book)
    status, _doc = api.handle("POST", "/scans", _body())
    assert status == 202


# -- shard redirect ---------------------------------------------------------

def test_wrong_shard_submission_is_redirected_with_location():
    routed_keys = []

    def router(module_hash):
        routed_keys.append(module_hash)
        return "http://owner.example:8734"

    api = _api(router=router)
    status, doc = api.handle("POST", "/scans", _body())
    assert status == 307
    assert doc["error"] == "wrong_shard"
    assert doc["location"] == "http://owner.example:8734/scans"
    assert len(routed_keys) == 1 and routed_keys[0]
    # Nothing was admitted locally.
    assert api.service.stats()["submissions"] == 0


def test_owned_shard_submission_is_served_locally():
    api = _api(router=lambda module_hash: None)
    status, _doc = api.handle("POST", "/scans", _body())
    assert status == 202


# -- partition --------------------------------------------------------------

def test_partitioned_node_refuses_writes_and_serves_stale_reads():
    api = _api()
    status, admitted = api.handle("POST", "/scans", _body(seed=0))
    assert status == 202
    api.service.set_partitioned(True, "minority side")
    status, doc = api.handle("POST", "/scans", _body(seed=1))
    assert status == 503
    assert doc["error"] == "partitioned" and doc["stale"] is True
    assert doc["retry_after_s"] > 0
    status, health = api.handle("GET", "/healthz")
    assert status == 200
    assert health["status"] == "partitioned" and health["stale"]
    status, job = api.handle("GET", f"/scans/{admitted['id']}")
    assert status == 200 and job["id"] == admitted["id"]


# -- fleet wire verbs -------------------------------------------------------

def test_fleet_steal_ships_base64_recipes():
    api = _api(max_depth=8)
    for seed in range(2):
        status, _doc = api.handle("POST", "/scans", _body(seed=seed))
        assert status == 202
    status, doc = api.handle(
        "POST", "/fleet/steal",
        json.dumps({"max_jobs": 1, "thief": "fleet:peer"})
        .encode("utf-8"))
    assert status == 200 and doc["stolen"] == 1
    recipe = doc["recipes"][0]
    assert base64.b64decode(recipe["module_b64"])
    assert recipe["scan_key"] and recipe["abi"]
    assert "module" not in recipe   # raw bytes never cross the wire


def test_fleet_journal_and_replicate_round_trip(tmp_path):
    source = ScanService(
        store=str(tmp_path / "source.db"),
        config=ScanServiceConfig(workers=1, poll_s=0.02))
    source.store.put_verdict("scan-key-1", "mh", {"tool": "wasai"},
                             {"scans": {}})
    source_api = ServiceApi(source)
    status, shipped = source_api.handle("GET",
                                        "/fleet/journal?cursor=0")
    assert status == 200 and len(shipped["entries"]) == 1
    assert shipped["cursor"] > 0
    # Re-shipping from the returned cursor is empty: monotonic.
    status, again = source_api.handle(
        "GET", f"/fleet/journal?cursor={shipped['cursor']}")
    assert status == 200 and again["entries"] == []
    replica_api = _api()
    status, applied = replica_api.handle(
        "POST", "/fleet/replicate",
        json.dumps({"entries": shipped["entries"]}).encode("utf-8"))
    assert status == 200 and applied["applied"] == 1
    assert replica_api.service.store.get_verdict("scan-key-1") \
        == {"scans": {}}
    # Idempotent: replay applies nothing new.
    status, rerun = replica_api.handle(
        "POST", "/fleet/replicate",
        json.dumps({"entries": shipped["entries"]}).encode("utf-8"))
    assert status == 200 and rerun["applied"] == 0


def test_replicate_over_http_never_rewrites_or_drops_a_verdict():
    # The fleet endpoints carry no key, so shipped lines may fill a
    # key the node lacks but never touch one it holds.
    api = _api()
    held = {"scans": {}, "provenance": {"oracle_version": 2,
                                        "source": "fresh"}}
    api.service.store.put_verdict("k", "h", {}, held)
    rewrite = {"module_hash": "h", "config": {}, "result": {
        "scans": {"forged": {}},
        "provenance": {"oracle_version": 99, "source": "replay"}}}
    for inner in ({"verdict": rewrite},
                  {"verdict": None,
                   "provenance": {"oracle_version": 99}}):
        status, doc = api.handle(
            "POST", "/fleet/replicate",
            json.dumps({"entries": [{"v": 1, "key": "k",
                                     "result": inner}]}).encode("utf-8"))
        assert status == 200 and doc["applied"] == 0
        assert api.service.store.get_verdict("k") == held


def test_fleet_partition_toggles_over_the_wire():
    api = _api()
    status, doc = api.handle(
        "POST", "/fleet/partition",
        json.dumps({"partitioned": True,
                    "reason": "drill"}).encode("utf-8"))
    assert status == 200 and doc["partitioned"] is True
    assert api.service.partitioned
    status, doc = api.handle(
        "POST", "/fleet/partition",
        json.dumps({"partitioned": False}).encode("utf-8"))
    assert status == 200 and not api.service.partitioned
