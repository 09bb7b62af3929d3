"""The process-wide instrumentation and solver caches are shared by the
scan daemon's worker threads, so each keeps its bookkeeping under a
lock: a hit read by one thread cannot be evicted by another before the
hit moves the entry to the young end."""

import threading
from collections import OrderedDict
from types import SimpleNamespace

import repro.engine.deploy as deploy
from repro.smt import SAT, SolverCache


class _PausingEntries(OrderedDict):
    """An entry table whose first ``get`` of ``key`` stops right after
    the read until ``release`` is set, holding its caller between the
    read and whatever bookkeeping follows it."""

    def __init__(self, key, entries):
        super().__init__(entries)
        self.key = key
        self.paused = threading.Event()
        self.release = threading.Event()

    def get(self, key, default=None):
        found = super().get(key, default)
        if key == self.key and not self.paused.is_set():
            self.paused.set()
            self.release.wait(5)
        return found


def _race(cache, key, read, evict) -> dict:
    """Run ``read`` on one thread, paused just after it has read
    ``key``, while ``evict`` runs on a second thread; returns what
    ``read`` returned (``value``) or raised (``error``)."""
    entries = _PausingEntries(key, cache._entries)
    cache._entries = entries
    outcome = {}

    def reader():
        try:
            outcome["value"] = read()
        except Exception as exc:
            outcome["error"] = exc

    first = threading.Thread(target=reader)
    first.start()
    assert entries.paused.wait(5)
    second = threading.Thread(target=evict)
    second.start()
    second.join(0.2)        # waits on the lock, or has already evicted
    entries.release.set()
    first.join(5)
    second.join(5)
    assert not first.is_alive() and not second.is_alive()
    return outcome


def test_solver_cache_hit_survives_a_concurrent_eviction():
    cache = SolverCache(max_entries=1)
    cache.store(("a",), SAT, {"x": 1})
    outcome = _race(cache, ("a",), lambda: cache.lookup(("a",)),
                    lambda: cache.store(("b",), SAT, {}))
    assert outcome == {"value": (SAT, {"x": 1})}
    assert (cache.hits, cache.misses, cache.evictions) == (1, 0, 1)
    assert list(cache._entries) == [("b",)]


def test_instrumentation_cache_hit_survives_a_concurrent_eviction(
        monkeypatch):
    # Stand-in modules: the cache keys on the memoised content hash,
    # and the rewrite itself is not what is under test.
    monkeypatch.setattr(deploy, "instrument_module",
                        lambda module: (module, None))
    a = SimpleNamespace(_repro_fingerprint="a")
    b = SimpleNamespace(_repro_fingerprint="b")
    cache = deploy.InstrumentationCache(max_entries=1)
    cache.instrument(a)
    outcome = _race(cache, "a", lambda: cache.instrument(a),
                    lambda: cache.instrument(b))
    assert outcome == {"value": (a, None)}
    assert (cache.hits, cache.misses, cache.evictions) == (1, 2, 1)
    assert list(cache._entries) == ["b"]
