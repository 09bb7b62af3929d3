"""The coordinator/worker seam: one scan node as the fleet sees it.

PR 4/5 built a single self-healing daemon; fleet scale needs the
scheduler split behind an interface so the *same* coordinator logic
(consistent-hash sharding, work stealing, log-shipped replicas,
failover) drives any deployment shape.  :class:`CoordinatorBackend`
is that seam — everything the fleet layer ever does to a node:

* ``submit`` / ``job`` — route work to the node and observe it;
* ``steal`` — pull *unclaimed* queue entries off an overloaded node
  as self-contained recipes a peer can run (never in-flight claims);
* ``ship_journal`` / ``apply_replica_verdicts`` — the read-replica
  pipe: a monotonic cursor over the node store's verdict log on the
  shipping side, replay of its writes, rewrites and drops on the
  applying side (over HTTP, which carries no key: writes of absent
  keys only);
* ``set_partitioned`` — chaos/topology control for partition drills;
* ``kill`` — abrupt node death (no drain, no checkpoint).

Three implementations cover the deployment ladder:

:class:`InProcessBackend`
    wraps a :class:`~repro.service.scheduler.ScanService` directly —
    threads in this process.  Zero serialization; what the tests and
    the 3-node ``wasai chaos --schedule fleet`` drill use.
:class:`ProcessBackend`
    boots a full daemon (service + HTTP server) in a child process
    and talks to it over loopback HTTP — the local process pool, and
    the seam the multi-core scale-out reuses.
:class:`RemoteBackend`
    an already-running ``wasai serve`` daemon anywhere reachable over
    HTTP; the fleet endpoints (``/fleet/steal``, ``/fleet/journal``,
    ``/fleet/replicate``, ``/fleet/partition``) carry the seam's
    verbs on the wire.

Node *unreachability* is a first-class typed outcome
(:class:`BackendUnavailable`), because the fleet's whole job is to
route around it.

:class:`HashRing` is the sharding primitive: consistent hashing with
virtual nodes over sha256, so job placement is deterministic for a
given membership and a membership change only remaps the keys whose
arc actually moved — the "deterministic rebalancing" the drill
asserts.
"""

from __future__ import annotations

import base64
import bisect
import hashlib
from abc import ABC, abstractmethod

from .client import ServiceClient, ServiceError
from .scheduler import NodePartitioned, ScanService
from .queue import QueueFull

__all__ = ["BackendUnavailable", "CoordinatorBackend", "HashRing",
           "InProcessBackend", "ProcessBackend", "RemoteBackend",
           "module_hash_of"]


class BackendUnavailable(Exception):
    """The node is dead or unreachable; the coordinator must route
    around it (and fail over its jobs exactly once)."""


def module_hash_of(data: bytes) -> str:
    """The canonical ``module_content_hash`` of raw contract bytes —
    the fleet's shard key.  Raises
    :class:`~repro.resilience.MalformedModule` for hostile uploads,
    so routing and admission share one rejection path."""
    from ..engine.deploy import module_content_hash
    from ..wasm.hardening import load_untrusted_module
    return module_content_hash(load_untrusted_module(data))


class HashRing:
    """Consistent hashing with virtual nodes (sha256 placement).

    Each node owns ``replicas`` pseudo-random points on a 64-bit
    ring; a key belongs to the first node point at or after its own
    hash.  Placement depends only on (membership, replicas), never on
    join order, so every coordinator — and every node checking for a
    shard redirect — computes identical owners.  Adding or removing
    one node remaps only the keys on the arcs that node's points
    bound: measured in :mod:`tests.service.test_backend`, well under
    ``2/n`` of the keyspace for an ``n``-node ring."""

    def __init__(self, nodes: "tuple[str, ...] | list[str]" = (),
                 replicas: int = 64):
        self.replicas = replicas
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(material: str) -> int:
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for index in range(self.replicas):
            self._points.append((self._hash(f"{node}#{index}"), node))
        self._points.sort()

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [(point, name) for point, name in self._points
                        if name != node]

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def owner(self, key: str) -> str:
        """The node owning ``key`` (a ``module_content_hash``)."""
        if not self._points:
            raise BackendUnavailable("hash ring has no nodes")
        point = self._hash(key)
        index = bisect.bisect_right(self._points, (point, "￿"))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def owners(self, key: str, count: int) -> list[str]:
        """The first ``count`` *distinct* nodes clockwise from the
        key's point — the preference order failover walks."""
        if not self._points:
            raise BackendUnavailable("hash ring has no nodes")
        point = self._hash(key)
        index = bisect.bisect_right(self._points, (point, "￿"))
        out: list[str] = []
        for step in range(len(self._points)):
            name = self._points[(index + step) % len(self._points)][1]
            if name not in out:
                out.append(name)
                if len(out) >= count:
                    break
        return out


class CoordinatorBackend(ABC):
    """Everything the fleet coordinator ever asks of one node."""

    name: str

    # -- lifecycle ---------------------------------------------------------
    @abstractmethod
    def start(self) -> None: ...

    @abstractmethod
    def stop(self) -> None: ...

    @abstractmethod
    def kill(self) -> None:
        """Abrupt death (chaos drill): no drain, no checkpoint."""

    @property
    @abstractmethod
    def alive(self) -> bool: ...

    # -- work --------------------------------------------------------------
    @abstractmethod
    def submit(self, data: bytes, abi_json: "str | dict",
               config: dict | None = None, client: str = "anon",
               priority: int = 0,
               deadline_epoch_s: float | None = None) -> dict: ...

    @abstractmethod
    def job(self, job_id: str) -> dict | None: ...

    @abstractmethod
    def health(self) -> dict: ...

    @abstractmethod
    def stats(self) -> dict: ...

    def queue_depth(self) -> int:
        return int(self.stats().get("queue_depth", 0))

    # -- fleet verbs -------------------------------------------------------
    @abstractmethod
    def steal(self, max_jobs: int,
              thief: str = "fleet") -> list[dict]: ...

    @abstractmethod
    def ship_journal(self, cursor: int = 0
                     ) -> tuple[list[dict], int]: ...

    @abstractmethod
    def apply_replica_verdicts(self, entries: list[dict]) -> int: ...

    @abstractmethod
    def set_partitioned(self, partitioned: bool,
                        reason: str | None = None) -> None: ...


class InProcessBackend(CoordinatorBackend):
    """A node that is a :class:`ScanService` in this process."""

    def __init__(self, name: str, service: ScanService):
        self.name = name
        self.service = service

    def _check(self) -> ScanService:
        if self.service.dead:
            raise BackendUnavailable(f"node {self.name} is dead")
        return self.service

    def start(self) -> None:
        self._check().start()

    def stop(self) -> None:
        if not self.service.dead:
            self.service.stop(wait_s=10.0)

    def kill(self) -> None:
        self.service.kill()

    @property
    def alive(self) -> bool:
        return not self.service.dead

    def submit(self, data: bytes, abi_json: "str | dict",
               config: dict | None = None, client: str = "anon",
               priority: int = 0,
               deadline_epoch_s: float | None = None) -> dict:
        service = self._check()
        submission = service.submit_bytes(
            data, abi_json, config=config, client=client,
            priority=priority, deadline_epoch_s=deadline_epoch_s)
        doc = service.job_doc(submission.job)
        doc["outcome"] = submission.outcome
        return doc

    def job(self, job_id: str) -> dict | None:
        service = self._check()
        job = service.job(job_id)
        return None if job is None else service.job_doc(job)

    def health(self) -> dict:
        return self._check().health()

    def stats(self) -> dict:
        return self._check().stats()

    def steal(self, max_jobs: int, thief: str = "fleet") -> list[dict]:
        return self._check().steal_unclaimed(max_jobs, thief=thief)

    def ship_journal(self, cursor: int = 0) -> tuple[list[dict], int]:
        return self._check().store.read_log(cursor)

    def apply_replica_verdicts(self, entries: list[dict]) -> int:
        return self._check().apply_replica_verdicts(entries)

    def set_partitioned(self, partitioned: bool,
                        reason: str | None = None) -> None:
        # Deliberately no _check(): chaos may label a node that is
        # already unreachable, and healing must always be possible.
        self.service.set_partitioned(partitioned, reason)


class RemoteBackend(CoordinatorBackend):
    """A node reached over HTTP (an independent ``wasai serve``)."""

    def __init__(self, name: str, base_url: str, *,
                 timeout_s: float = 30.0, client: ServiceClient | None = None):
        self.name = name
        self.base_url = base_url.rstrip("/")
        self.client = client or ServiceClient(
            self.base_url, timeout_s=timeout_s, max_retries=1,
            backoff_base_s=0.05, backoff_cap_s=0.5)
        self._killed = False

    def _call(self, op, *args, **kwargs):
        if self._killed:
            raise BackendUnavailable(f"node {self.name} is dead")
        try:
            return op(*args, **kwargs)
        except ServiceError as exc:
            if exc.status == 503 and exc.error == "unavailable":
                raise BackendUnavailable(
                    f"node {self.name} unreachable: {exc}") from exc
            if exc.status == 503 and exc.error == "partitioned":
                raise NodePartitioned(str(exc)) from exc
            if exc.status == 429:
                doc = exc.doc
                raise QueueFull(
                    str(doc.get("detail", exc)),
                    depth=int(doc.get("depth", 0)),
                    limit=int(doc.get("limit", 0)),
                    kind=str(doc.get("kind", "queue")),
                    retry_after_s=float(
                        doc.get("retry_after_s", 1.0))) from exc
            raise

    def start(self) -> None:
        pass                        # the remote daemon has its own life

    def stop(self) -> None:
        pass

    def kill(self) -> None:
        # The coordinator cannot SIGKILL a remote host; it just stops
        # talking to it (chaos uses in-proc/process backends for real
        # kills).
        self._killed = True

    @property
    def alive(self) -> bool:
        return not self._killed

    def submit(self, data: bytes, abi_json: "str | dict",
               config: dict | None = None, client: str = "anon",
               priority: int = 0,
               deadline_epoch_s: float | None = None) -> dict:
        return self._call(self.client.submit, data, abi_json,
                          config=config, client=client,
                          priority=priority,
                          deadline_epoch_s=deadline_epoch_s)

    def job(self, job_id: str) -> dict | None:
        try:
            return self._call(self.client.status, job_id)
        except ServiceError as exc:
            if exc.status == 404:
                return None
            raise

    def health(self) -> dict:
        return self._call(self.client.health)

    def stats(self) -> dict:
        return self._call(self.client.stats)

    def steal(self, max_jobs: int, thief: str = "fleet") -> list[dict]:
        doc = self._call(self.client._checked, "POST", "/fleet/steal",
                         {"max_jobs": max_jobs, "thief": thief})
        recipes = []
        for recipe in doc.get("recipes", ()):
            recipe = dict(recipe)
            recipe["module"] = base64.b64decode(
                recipe.pop("module_b64", ""))
            recipes.append(recipe)
        return recipes

    def ship_journal(self, cursor: int = 0) -> tuple[list[dict], int]:
        doc = self._call(self.client._checked, "GET",
                         f"/fleet/journal?cursor={int(cursor)}")
        return list(doc.get("entries", ())), int(doc.get("cursor", 0))

    def apply_replica_verdicts(self, entries: list[dict]) -> int:
        doc = self._call(self.client._checked, "POST",
                         "/fleet/replicate", {"entries": entries})
        return int(doc.get("applied", 0))

    def set_partitioned(self, partitioned: bool,
                        reason: str | None = None) -> None:
        self._call(self.client._checked, "POST", "/fleet/partition",
                   {"partitioned": bool(partitioned),
                    "reason": reason})


def _process_node_main(name: str, conn, store_path: str,
                       config_doc: dict) -> None:
    """Child-process entry: boot a full daemon, report the port."""
    from .scheduler import ScanServiceConfig
    from .server import make_server, serve_forever
    service = ScanService(
        store=store_path, config=ScanServiceConfig(**config_doc))
    server = make_server(service, host="127.0.0.1", port=0)
    conn.send(server.server_address[1])
    conn.close()
    serve_forever(server, install_signals=True)


class ProcessBackend(RemoteBackend):
    """A node in a supervised local child process (the process-pool
    backend): a whole daemon — store, workers, HTTP — booted
    per node, so node death is *real* process death and the fleet's
    failover path is exercised against the same transport a remote
    deployment uses."""

    def __init__(self, name: str, root: str, *,
                 config: dict | None = None, timeout_s: float = 30.0):
        self.root = root
        self._config = dict(config or {})
        self._process = None
        self._timeout_s = timeout_s
        # base_url is bound at start(); RemoteBackend init is deferred
        # via a placeholder and rebuilt once the child reports a port.
        super().__init__(name, "http://127.0.0.1:0",
                         timeout_s=timeout_s)

    def start(self) -> None:
        if self._process is not None:
            return
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=_process_node_main,
            args=(self.name, child_conn,
                  f"{self.root}/{self.name}.db", self._config),
            daemon=True)
        self._process.start()
        child_conn.close()
        if not parent_conn.poll(self._timeout_s):
            raise BackendUnavailable(
                f"node {self.name} never reported a port")
        port = parent_conn.recv()
        parent_conn.close()
        self.base_url = f"http://127.0.0.1:{port}"
        self.client = ServiceClient(
            self.base_url, timeout_s=self._timeout_s, max_retries=2,
            backoff_base_s=0.05, backoff_cap_s=0.5)

    def stop(self) -> None:
        if self._process is None:
            return
        self._process.terminate()   # SIGTERM: graceful drain
        self._process.join(timeout=15.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=5.0)
        self._process = None

    def kill(self) -> None:
        if self._process is not None:
            self._process.kill()    # SIGKILL: abrupt death
            self._process.join(timeout=5.0)
            self._process = None
        self._killed = True

    @property
    def alive(self) -> bool:
        return (not self._killed and self._process is not None
                and self._process.is_alive())
