"""ServiceClient retry behavior, driven through a scripted transport.

No sockets: ``_request_once`` is replaced with a canned sequence of
responses/exceptions, and ``sleep`` is captured, so every backoff
decision is asserted deterministically.
"""

import urllib.error

import pytest

from repro.service import ServiceClient, ServiceError


class ScriptedTransport:
    """Feed the client a fixed sequence of outcomes."""

    def __init__(self, client: ServiceClient, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0
        client._request_once = self._step

    def _step(self, method, path, doc=None, extra_headers=None):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _client(**kwargs):
    sleeps = []
    kwargs.setdefault("max_retries", 3)
    kwargs.setdefault("backoff_base_s", 0.1)
    kwargs.setdefault("backoff_cap_s", 5.0)
    client = ServiceClient("http://test.invalid", sleep=sleeps.append,
                           **kwargs)
    return client, sleeps


def _refused() -> urllib.error.URLError:
    return urllib.error.URLError(ConnectionRefusedError(111,
                                                        "refused"))


def test_429_is_retried_honoring_retry_after():
    client, sleeps = _client()
    transport = ScriptedTransport(client, [
        (429, {"error": "queue_full"}, {"Retry-After": "2"}),
        (202, {"id": "j1", "state": "queued"}, {}),
    ])
    doc = client._checked("GET", "/stats")
    assert doc == {"id": "j1", "state": "queued"}
    assert transport.calls == 2
    assert sleeps == [2.0]          # the server's hint, verbatim


def test_retry_after_is_capped_by_backoff_cap():
    client, sleeps = _client(backoff_cap_s=0.5)
    ScriptedTransport(client, [
        (429, {"error": "queue_full"}, {"Retry-After": "60"}),
        (200, {}, {}),
    ])
    client._checked("GET", "/stats")
    assert sleeps == [0.5]


def test_connection_refused_is_retried_then_succeeds():
    client, sleeps = _client()
    transport = ScriptedTransport(client, [
        _refused(), _refused(),
        (200, {"status": "ok"}, {}),
    ])
    assert client.health() == {"status": "ok"}
    assert transport.calls == 3
    assert len(sleeps) == 2
    # Exponential shape with deterministic jitter: attempt 1 waits at
    # least twice the base, and every delay stays within base*2^n*1.5.
    assert 0.1 <= sleeps[0] <= 0.15
    assert 0.2 <= sleeps[1] <= 0.3


def test_exhausted_retries_surface_typed_not_urlerror():
    client, sleeps = _client(max_retries=2)
    ScriptedTransport(client, [_refused()] * 3)
    with pytest.raises(ServiceError) as excinfo:
        client.health()
    assert excinfo.value.status == 503
    assert excinfo.value.error == "unavailable"
    assert len(sleeps) == 2         # slept between, not after, attempts


def test_non_transient_urlerror_fails_fast():
    client, sleeps = _client()
    transport = ScriptedTransport(client, [
        urllib.error.URLError(OSError("no route to host")),
    ])
    with pytest.raises(ServiceError) as excinfo:
        client.health()
    assert excinfo.value.status == 503
    assert transport.calls == 1     # no retry for a non-transient fault
    assert sleeps == []


def test_jitter_is_deterministic_per_path_and_attempt():
    client, _ = _client()
    first = client._retry_delay("/scans", 1)
    assert client._retry_delay("/scans", 1) == first    # reproducible
    assert client._retry_delay("/stats", 1) != first    # de-synchronized
    base = 0.1 * 2
    assert base <= first <= base * 1.5


def test_http_error_status_is_not_retried():
    client, sleeps = _client()
    transport = ScriptedTransport(client, [
        (400, {"error": "bad_request"}, {}),
    ])
    with pytest.raises(ServiceError) as excinfo:
        client._checked("POST", "/scans", {})
    assert excinfo.value.status == 400
    assert transport.calls == 1
    assert sleeps == []


# -- server errors and headers ---------------------------------------------

def test_5xx_surfaces_immediately_on_a_single_endpoint():
    client, sleeps = _client()
    transport = ScriptedTransport(client, [
        (500, {"error": "internal"}, {}),
    ])
    with pytest.raises(ServiceError) as excinfo:
        client._checked("GET", "/stats")
    assert excinfo.value.status == 500
    assert transport.calls == 1 and sleeps == []


def test_api_key_travels_as_header():
    client = ServiceClient("http://test.invalid", api_key="k-123")
    captured = {}

    class _Resp:
        status = 200
        headers = {}

        def read(self):
            return b"{}"

        def __enter__(self):
            return self

        def __exit__(self, *args):
            return False

    import urllib.request

    def fake_urlopen(request, timeout=None):
        captured["headers"] = dict(request.headers)
        return _Resp()

    original = urllib.request.urlopen
    urllib.request.urlopen = fake_urlopen
    try:
        client._checked("GET", "/stats")
    finally:
        urllib.request.urlopen = original
    assert captured["headers"].get("X-api-key") == "k-123"
