"""The fleet coordinator: shard, steal, replicate, survive.

One :class:`ScanFleet` drives N :class:`~repro.service.backend.
CoordinatorBackend` nodes (in-proc, child-process or remote — the
coordinator cannot tell) as a single logical scan service:

**Sharding.**  Every submission is routed by its module's canonical
content hash through a consistent-hash ring
(:class:`~repro.service.backend.HashRing`), so the same module always
lands on the same node — which is what makes node-local dedup and
single-flight coalescing keep working fleet-wide — and a membership
change remaps only the hash arcs that actually moved.

**Exactly-once under failure.**  The coordinator tracks every
submission as a :class:`FleetJob` holding the full resubmission
recipe.  When a node dies (``kill`` in the chaos drill, or a failed
health probe in :meth:`check_nodes`), each of its non-terminal jobs
is failed over to the next live owner on the ring *once*: the record
is remapped before resubmission, the dead node is out of the ring so
nothing routes back, and a zombie worker's late result on the old
node is discarded by its claim token.  Terminal results are cached on
the fleet record, so a job observed ``done`` can never change answer
afterwards — the "no duplicate, no wrong verdict" half of the drill's
contract.

**Work stealing.**  :meth:`rebalance_once` compares queue depths and
moves *unclaimed* queue entries (never in-flight claims) from the
most loaded node to the least, stamping the victim's copy with a
thief claim token so a stolen-then-reappearing job resolves exactly
once.  The fleet record is remapped to the thief, so callers polling
a stolen job never notice.

**Read replicas.**  :meth:`replicate_once` ships each node store's
verdict log (writes, re-verdict rewrites, drops) to every peer behind
a monotonic per-(source, target) cursor; a replica fills keys it
lacks and takes newer re-verdicts and drops, never an older line.  A
replica that was down or partitioned catches up by replaying from its
cursor — or from zero if the source compacted/truncated underneath.

**Partitions.**  :meth:`partition` cuts a strict minority off: those
nodes refuse writes (typed 503, ``stale``-marked reads) and leave the
ring, so the majority keeps serving every shard.  :meth:`heal`
reverses it and immediately replays verdict logs so the rejoined
nodes converge before taking traffic.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .backend import (BackendUnavailable, CoordinatorBackend, HashRing,
                      module_hash_of)
from .queue import TERMINAL_STATES
from .scheduler import NodePartitioned
from .tenants import TenantBook

__all__ = ["FleetConfig", "FleetJob", "ScanFleet"]

# A node's ``stolen`` job is not an answer: the fleet record has
# already moved on to the thief's copy.
_TERMINAL = tuple(state for state in TERMINAL_STATES if state != "stolen")


@dataclass
class FleetConfig:
    """Coordinator knobs."""

    ring_replicas: int = 64      # virtual nodes per member
    steal_threshold: int = 2     # min depth gap before stealing
    steal_batch: int = 4         # max jobs moved per rebalance pass
    health_timeout_s: float = 5.0


@dataclass
class FleetJob:
    """One submission as the coordinator remembers it."""

    fleet_id: str
    node: str                    # current owner's backend name
    node_job_id: str             # its job id *on that node*
    recipe: dict = field(default_factory=dict)
    failovers: int = 0
    stolen: int = 0
    terminal_doc: dict | None = None

    def to_doc(self) -> dict:
        return {"fleet_id": self.fleet_id, "node": self.node,
                "node_job_id": self.node_job_id,
                "failovers": self.failovers, "stolen": self.stolen,
                "terminal": self.terminal_doc is not None}


class ScanFleet:
    """Coordinate a set of scan nodes as one service."""

    def __init__(self, backends: "list[CoordinatorBackend]", *,
                 config: FleetConfig | None = None,
                 tenants: TenantBook | None = None):
        if not backends:
            raise ValueError("a fleet needs at least one node")
        names = [backend.name for backend in backends]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names: {names}")
        self.config = config or FleetConfig()
        self.tenants = tenants
        self.backends: dict[str, CoordinatorBackend] = {
            backend.name: backend for backend in backends}
        self.ring = HashRing(names,
                             replicas=self.config.ring_replicas)
        self._lock = threading.RLock()
        self._jobs: dict[str, FleetJob] = {}
        self._by_node: dict[tuple[str, str], str] = {}
        self._cursors: dict[tuple[str, str], int] = {}
        self._down: set[str] = set()
        self._partitioned: set[str] = set()
        self._seq = 0
        self.submissions = 0
        self.failovers = 0
        self.jobs_stolen = 0
        self.replicated = 0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        for backend in self.backends.values():
            backend.start()

    def stop(self) -> None:
        for backend in self.backends.values():
            try:
                backend.stop()
            except BackendUnavailable:
                pass

    # -- membership --------------------------------------------------------
    def live_nodes(self) -> list[str]:
        with self._lock:
            return sorted(name for name in self.backends
                          if name not in self._down
                          and name not in self._partitioned)

    def owner_of(self, data: bytes) -> tuple[str, str]:
        """(module_content_hash, owning node name) for raw bytes —
        the shard math, exposed for tests, drills and redirects."""
        key = module_hash_of(data)
        return key, self.ring.owner(key)

    # -- submission --------------------------------------------------------
    def submit(self, data: bytes, abi_json: "str | dict",
               config: dict | None = None, client: str = "anon",
               priority: int = 0, api_key: str | None = None,
               deadline_epoch_s: float | None = None) -> dict:
        """Admit (tenant quota), route (ring), place (with failover
        to the next live owner if the first choice is unreachable).
        ``deadline_epoch_s`` rides the recipe, so a failover or steal
        re-places the job with its original caller deadline intact.
        A submission no node accepts is refunded to its tenant."""
        tenant = None
        if self.tenants is not None:
            tenant = self.tenants.admit(api_key)
        key = module_hash_of(data)
        recipe = {"module": data, "abi": abi_json,
                  "config": dict(config or {}), "client": client,
                  "priority": priority,
                  "deadline_epoch_s": deadline_epoch_s,
                  "module_hash": key}
        last_error: Exception | None = None
        for name in self.ring.owners(key, count=len(self.ring)):
            backend = self.backends[name]
            try:
                doc = backend.submit(
                    data, abi_json, config=config, client=client,
                    priority=priority,
                    deadline_epoch_s=deadline_epoch_s)
            except (BackendUnavailable, NodePartitioned) as exc:
                last_error = exc
                continue
            except Exception:
                if tenant is not None:
                    self.tenants.refund(api_key)
                raise
            with self._lock:
                self._seq += 1
                self.submissions += 1
                fleet_id = f"fleet-{self._seq:06d}"
                record = FleetJob(fleet_id, name,
                                  str(doc.get("id")),
                                  recipe=recipe)
                if doc.get("state") in _TERMINAL:
                    record.terminal_doc = self._decorate(doc, record)
                self._jobs[fleet_id] = record
                self._by_node[(name, record.node_job_id)] = fleet_id
            out = dict(doc)
            out["fleet_id"] = fleet_id
            out["node"] = name
            if tenant is not None:
                out["tenant"] = tenant
            return out
        if tenant is not None:
            self.tenants.refund(api_key)
        raise BackendUnavailable(
            f"no live node can take shard {key[:12]}: {last_error}")

    # -- observation -------------------------------------------------------
    def _decorate(self, doc: dict, record: FleetJob) -> dict:
        out = dict(doc)
        out["fleet_id"] = record.fleet_id
        out["node"] = record.node
        out["failovers"] = record.failovers
        return out

    def job(self, fleet_id: str) -> dict | None:
        """The current job doc, terminal results cached fleet-side so
        an answer once observed can never change."""
        with self._lock:
            record = self._jobs.get(fleet_id)
        if record is None:
            return None
        if record.terminal_doc is not None:
            return dict(record.terminal_doc)
        for _ in range(len(self.backends) + 1):
            backend = self.backends.get(record.node)
            if backend is None:
                return self._decorate({"state": "lost"}, record)
            try:
                doc = backend.job(record.node_job_id)
            except (BackendUnavailable, NodePartitioned):
                self.fail_node(record.node)
                continue        # fail_node remapped the record
            if doc is None:
                return None
            if doc.get("state") in _TERMINAL:
                with self._lock:
                    record.terminal_doc = self._decorate(doc, record)
                    return dict(record.terminal_doc)
            return self._decorate(doc, record)
        return self._decorate({"state": "lost"}, record)

    def wait(self, fleet_id: str, timeout_s: float = 120.0,
             poll_s: float = 0.05) -> dict:
        deadline = time.monotonic() + timeout_s
        while True:
            doc = self.job(fleet_id)
            if doc is not None and doc.get("state") in _TERMINAL:
                return doc
            if time.monotonic() >= deadline:
                state = doc.get("state") if doc else "unknown"
                raise TimeoutError(
                    f"fleet job {fleet_id} still {state} after "
                    f"{timeout_s:g}s")
            time.sleep(poll_s)

    # -- work stealing -----------------------------------------------------
    def rebalance_once(self) -> int:
        """One load-balancing pass: if the deepest live queue exceeds
        the shallowest by ``steal_threshold``+, move up to
        ``steal_batch`` *unclaimed* entries and remap their fleet
        records to the thief.  Returns jobs moved."""
        live = self.live_nodes()
        if len(live) < 2:
            return 0
        depths: dict[str, int] = {}
        for name in live:
            try:
                depths[name] = self.backends[name].queue_depth()
            except (BackendUnavailable, NodePartitioned):
                continue
        if len(depths) < 2:
            return 0
        victim = max(depths, key=lambda name: depths[name])
        thief = min(depths, key=lambda name: depths[name])
        if depths[victim] - depths[thief] < self.config.steal_threshold:
            return 0
        try:
            recipes = self.backends[victim].steal(
                self.config.steal_batch, thief=f"fleet:{thief}")
        except (BackendUnavailable, NodePartitioned):
            return 0
        moved = 0
        for recipe in recipes:
            moved += self._place_recipe(recipe, victim, thief,
                                        kind="stolen")
        with self._lock:
            self.jobs_stolen += moved
        return moved

    def _place_recipe(self, recipe: dict, old_node: str,
                      new_node: str, kind: str) -> int:
        """Resubmit a recipe on ``new_node`` and remap the fleet
        record that pointed at ``old_node`` (if any — direct node
        submissions have no fleet record and are simply moved)."""
        backend = self.backends[new_node]
        deadline = recipe.get("deadline_epoch_s")
        try:
            doc = backend.submit(
                recipe["module"], recipe["abi"],
                config=recipe.get("config") or None,
                client=recipe.get("client", "anon"),
                priority=int(recipe.get("priority", 0)),
                deadline_epoch_s=(float(deadline)
                                  if deadline is not None else None))
        except (BackendUnavailable, NodePartitioned):
            return 0
        with self._lock:
            fleet_id = self._by_node.pop(
                (old_node, str(recipe.get("job_id"))), None)
            if fleet_id is not None:
                record = self._jobs[fleet_id]
                record.node = new_node
                record.node_job_id = str(doc.get("id"))
                if kind == "stolen":
                    record.stolen += 1
                else:
                    record.failovers += 1
                if doc.get("state") in _TERMINAL:
                    record.terminal_doc = self._decorate(doc, record)
                self._by_node[(new_node, record.node_job_id)] = fleet_id
        return 1

    # -- replication -------------------------------------------------------
    def replicate_once(self) -> int:
        """Ship every live node's verdict log to every live peer;
        returns verdicts newly applied.  Cursors are per (source,
        target) and monotonic; one from before a compaction or past a
        truncation restarts from zero and relies on the replay
        skipping what the peer already holds."""
        live = self.live_nodes()
        applied = 0
        for source in live:
            for target in live:
                if source == target:
                    continue
                cursor = self._cursors.get((source, target), 0)
                try:
                    entries, new_cursor = \
                        self.backends[source].ship_journal(cursor)
                    if entries:
                        applied += self.backends[target] \
                            .apply_replica_verdicts(entries)
                except (BackendUnavailable, NodePartitioned):
                    continue
                self._cursors[(source, target)] = new_cursor
        with self._lock:
            self.replicated += applied
        return applied

    # -- failure handling --------------------------------------------------
    def check_nodes(self) -> list[str]:
        """Probe every in-ring node; fail (and fail over) the dead
        ones.  Returns the names newly failed."""
        failed: list[str] = []
        for name in self.live_nodes():
            backend = self.backends[name]
            dead = not backend.alive
            if not dead:
                try:
                    backend.health()
                except (BackendUnavailable, NodePartitioned):
                    dead = True
            if dead:
                self.fail_node(name)
                failed.append(name)
        return failed

    def fail_node(self, name: str) -> int:
        """Remove ``name`` from the ring and fail over each of its
        non-terminal fleet jobs to the next live owner — exactly
        once: the record is remapped under the lock before
        resubmission, and the dead node never rejoins with that
        job id."""
        with self._lock:
            if name in self._down:
                return 0
            self._down.add(name)
            self.ring.remove(name)
            orphans = [record for record in self._jobs.values()
                       if record.node == name
                       and record.terminal_doc is None]
        moved = 0
        for record in orphans:
            moved += self._fail_over(record)
        with self._lock:
            self.failovers += moved
        return moved

    def _fail_over(self, record: FleetJob) -> int:
        key = record.recipe.get("module_hash", record.fleet_id)
        try:
            candidates = self.ring.owners(key, count=len(self.ring))
        except BackendUnavailable:
            return 0
        recipe = dict(record.recipe)
        recipe["job_id"] = record.node_job_id
        for name in candidates:
            if self._place_recipe(recipe, record.node, name,
                                  kind="failover"):
                return 1
        return 0

    # -- partitions --------------------------------------------------------
    def partition(self, names: "list[str] | tuple[str, ...]",
                  reason: str = "network partition") -> None:
        """Cut a strict minority off from the fleet: they refuse
        writes, serve stale-marked reads, and leave the ring so the
        majority keeps owning every shard."""
        names = list(names)
        with self._lock:
            alive = [name for name in self.backends
                     if name not in self._down]
        if 2 * len(names) >= len(alive):
            raise ValueError(
                f"refusing to partition {len(names)} of {len(alive)} "
                f"nodes: only a strict minority may be cut off")
        for name in names:
            self.backends[name].set_partitioned(True, reason)
            with self._lock:
                self._partitioned.add(name)
                self.ring.remove(name)

    def heal(self) -> int:
        """End the partition: clear the flags, rejoin the ring, and
        replay verdict logs so rejoined replicas converge.  Returns
        verdicts applied during catch-up."""
        with self._lock:
            names = sorted(self._partitioned)
        for name in names:
            self.backends[name].set_partitioned(False, None)
            with self._lock:
                self._partitioned.discard(name)
                self.ring.add(name)
        return self.replicate_once()

    # -- observability -----------------------------------------------------
    def health(self) -> dict:
        nodes: dict[str, dict] = {}
        worst = "ok"
        for name, backend in self.backends.items():
            if name in self._down:
                nodes[name] = {"status": "dead"}
                worst = "degraded"
                continue
            try:
                nodes[name] = backend.health()
            except (BackendUnavailable, NodePartitioned) as exc:
                nodes[name] = {"status": "unreachable",
                               "detail": str(exc)}
                worst = "degraded"
                continue
            if nodes[name].get("status") not in ("ok", "idle"):
                worst = "degraded"
        return {"status": worst, "nodes": nodes,
                "ring": sorted(self.ring.nodes),
                "down": sorted(self._down),
                "partitioned": sorted(self._partitioned)}

    def stats(self) -> dict:
        with self._lock:
            doc = {
                "submissions": self.submissions,
                "failovers": self.failovers,
                "jobs_stolen": self.jobs_stolen,
                "replicated": self.replicated,
                "jobs_tracked": len(self._jobs),
                "nodes": {},
            }
        if self.tenants is not None:
            doc["tenants"] = self.tenants.snapshot()
        for name, backend in self.backends.items():
            if name in self._down:
                doc["nodes"][name] = {"status": "dead"}
                continue
            try:
                doc["nodes"][name] = backend.stats()
            except (BackendUnavailable, NodePartitioned) as exc:
                doc["nodes"][name] = {"status": "unreachable",
                                      "detail": str(exc)}
        return doc
