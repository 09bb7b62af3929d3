"""The transport-free API surface: the typed 429 schema everywhere a
submission can shed, tenant admission and billing, and the 400 for a
field that does not parse.

``ServiceApi.handle`` is driven directly — no sockets — so every
response shape is asserted byte-for-byte deterministically.
"""

import base64
import json
import time

import pytest

from repro.service import (ScanService, ScanServiceConfig, ServiceApi,
                           TenantBook)

from .conftest import contract_bytes

# Every 429 the service emits must carry exactly this schema, with
# kind naming which bound shed the request.
_429_KEYS = {"error", "detail", "kind", "depth", "limit",
             "retry_after_s"}
_KINDS = {"queue", "draining", "disk", "quota"}


def _api(tenants=None, **config) -> ServiceApi:
    knobs = dict(workers=1, max_depth=2, poll_s=0.02)
    knobs.update(config)
    service = ScanService(config=ScanServiceConfig(**knobs))
    return ServiceApi(service, tenants=tenants)


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
    # Workers never started: distinct modules pile up until the
    # admission bound (max_depth + workers = 2) refuses the next.
    api = _api(max_depth=1)
    for seed in range(2):
        status, _doc = api.handle("POST", "/scans", _body(seed=seed))
        assert status == 202
    status, doc = api.handle("POST", "/scans", _body(seed=2))
    _assert_429(status, doc, "queue")
    assert (doc["depth"], doc["limit"]) == (2, 2)


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
    api = _api(tenants=book, max_depth=0)    # bound 0 + 1 worker
    status, _doc = api.handle("POST", "/scans", _body(seed=0, ttl_s=0.05),
                              headers={"X-Api-Key": "other-key"})
    assert status == 202
    status, doc = api.handle("POST", "/scans", _body(seed=1),
                             headers={"X-Api-Key": "team-key"})
    _assert_429(status, doc, "queue")
    assert book.snapshot()["team"]["admitted"] == 0
    # Capacity frees (the queued job's TTL runs out).  The retry is
    # the tenant's first admitted submission, not a quota refusal.
    time.sleep(0.1)
    assert api.service.housekeeping_once()["swept"] == 1
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


def test_tenant_rate_limit_refills_its_token_bucket():
    clock = {"t": 0.0}
    book = TenantBook(require_key=True, clock=lambda: clock["t"])
    book.register("team", "team-key", rate_per_s=1.0, burst=2)
    api = _api(tenants=book)
    key = {"X-Api-Key": "team-key"}
    for _ in range(2):              # the full burst fits
        status, _doc = api.handle("POST", "/scans", _body(), headers=key)
        assert status == 202
    status, doc = api.handle("POST", "/scans", _body(), headers=key)
    _assert_429(status, doc, "quota")
    assert doc["retry_after_s"] == pytest.approx(1.0)
    clock["t"] += 1.0               # one token refills
    status, doc = api.handle("POST", "/scans", _body(), headers=key)
    assert status == 202 and doc["tenant"] == "team"
    for headers in ({}, {"X-Api-Key": "wrong"}):
        status, doc = api.handle("POST", "/scans", _body(),
                                 headers=headers)
        assert status == 401 and doc["error"] == "unauthorized"
    assert book.snapshot()["team"]["admitted"] == 3
    assert book.snapshot()["team"]["shed"] == 1


# -- malformed fields -------------------------------------------------------

@pytest.mark.parametrize("path, field, value", [
    ("/scans", "priority", "high"),
    ("/scans", "ttl_s", "soon"),
    ("/scans", "abi", "{not json"),
    ("/scans", "abi", "[]"),
    ("/reverdict", "priority", "x"),
    ("/reverdict", "oracle_version", "v3"),
])
def test_malformed_field_is_400_and_bills_nobody(path, field, value):
    book = TenantBook(require_key=True)
    book.register("team", "team-key", max_submissions=1)
    api = _api(tenants=book)
    key = {"X-Api-Key": "team-key"}
    body = (_body(**{field: value}) if path == "/scans"
            else json.dumps({field: value}).encode("utf-8"))
    status, doc = api.handle("POST", path, body, headers=key)
    assert status == 400 and doc["error"] == "bad_request"
    assert book.snapshot()["team"]["admitted"] == 0
    # The tenant's one submission is still there to spend.
    status, doc = api.handle("POST", "/scans", _body(), headers=key)
    assert status == 202 and doc["tenant"] == "team"
