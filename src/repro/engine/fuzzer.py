"""The WASAI fuzzing loop (Algorithm 1).

One :class:`WasaiFuzzer` campaign fuzzes one deployed target: it
selects seeds under transaction-dependency guidance (DBG + circular
seed pool), executes them through the adversary-oracle payloads,
captures the instrumented traces, replays them symbolically, flips
unexplored conditional states, and feeds the solved adaptive seeds
back into the pool.  The scanner consumes the resulting observation
log.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import cycle

from ..eosio.chain import ActionRecord, Chain
from ..eosio.name import Name, name_to_string
from ..eosio.token import issue_to, token_balance
from ..instrument.hooks import HookEvent
from ..resilience import faultinject
from ..resilience.errors import (CampaignError, DeadlineExceeded,
                                 DivergenceError, SolverError,
                                 SymbackError)
from ..smt import SolverStats
from ..symbolic import (SeedLayout, branch_coverage_ids, flip_queries,
                        has_unexplored_flip, locate_action_call,
                        replay_action, solve_flips)
from ..scanner.oracles import (AdversarySetup, PAYLOAD_KINDS, build_payload,
                               setup_adversaries)
from .clock import VirtualClock
from .dbg import DatabaseDependencyGraph
from .deploy import FuzzTarget
from .seedpool import SeedPool
from .seeds import Seed, random_seed

__all__ = ["WasaiFuzzer", "FuzzReport", "Observation", "KNOWN_IDENTITIES",
           "MAX_FEEDBACK_FAILURES"]

# Account names every campaign's seed generator may draw on; the
# deployed target's own account is spliced in after "attacker" (see
# WasaiFuzzer._known_identities — the order is part of the RNG stream,
# so changing it changes campaigns byte-for-byte).
KNOWN_IDENTITIES: tuple[str, ...] = ("player", "attacker", "eosio.token",
                                     "bob")

# Containment: after this many symbolic-feedback failures a campaign
# degrades to the black-box mutation loop (the ConFuzzius-style
# fallback) instead of aborting.  This is the only black-box fallback;
# it has no off switch.
MAX_FEEDBACK_FAILURES = 3


@dataclass
class Observation:
    """One victim execution observed during fuzzing."""

    payload_kind: str
    action_name: str
    executed_params: list
    record: ActionRecord
    events: list[HookEvent]
    success: bool
    time_ms: float
    # The exact transaction that produced this observation — kept so
    # the Scanner can emit replayable exploit payloads.
    actions: list = field(default_factory=list)


@dataclass
class FuzzReport:
    """The campaign's output, consumed by the Scanner and the benches."""

    target_account: int
    covered: set = field(default_factory=set)
    coverage_timeline: list[tuple[float, int]] = field(default_factory=list)
    observations: list[Observation] = field(default_factory=list)
    eosponser_id: int | None = None
    iterations: int = 0
    adaptive_seeds: int = 0
    solver_stats: SolverStats = field(default_factory=SolverStats)
    setup: AdversarySetup | None = None
    # Resilience accounting: True once the campaign fell back to pure
    # black-box fuzzing (symbolic feedback lost); ``contained`` lists
    # every fault the loop absorbed instead of aborting.
    degraded: bool = False
    contained: list[str] = field(default_factory=list)
    # Which pipeline stage the absorbed feedback failures blamed
    # (e.g. "solve", "symback"), keyed by stage name with a hit count.
    # The scan service's circuit breakers consume this: containment
    # hides the fault from the campaign, but the service still needs
    # to know *which* stage is failing across jobs.
    feedback_failure_stages: dict = field(default_factory=dict)
    # Divergence-sentinel verdicts: one entry per trace whose symbolic
    # replay disagreed with the recorded concrete operands.  A sample
    # with any entry here is reported as its own row class, never
    # folded into TP/FP counts.
    divergences: list[str] = field(default_factory=list)
    # Sentinel cross-checks that passed across all replays (evidence
    # the sentinel was armed, not just silent).
    sentinel_checkpoints: int = 0
    # End-of-campaign DB snapshot (plain bytes, keyed by
    # (code, scope, table) then primary key) — the read surface of the
    # semantic ``data_consistency`` oracle family.
    db_state: dict = field(default_factory=dict)

    def observations_of(self, payload_kind: str) -> list[Observation]:
        return [o for o in self.observations
                if o.payload_kind == payload_kind]


class WasaiFuzzer:
    """Concolic fuzzing of one deployed target contract."""

    def __init__(self, chain: Chain, target: FuzzTarget,
                 rng: random.Random | None = None,
                 clock: VirtualClock | None = None,
                 timeout_ms: float = 300_000.0,
                 smt_max_conflicts: int = 20_000,
                 max_flips_per_round: int = 4,
                 feedback: bool = True,
                 address_pool: bool = False,
                 trace_dir: "str | None" = None,
                 divergence_check: bool = True,
                 deadline_epoch_s: float | None = None):
        self.chain = chain
        self.target = target
        self.rng = rng or random.Random(0)
        self.clock = clock or VirtualClock()
        self.timeout_ms = timeout_ms
        self.smt_max_conflicts = smt_max_conflicts
        self.max_flips_per_round = max_flips_per_round
        self.feedback = feedback
        self.pool = SeedPool()
        self.dbg = DatabaseDependencyGraph()
        self.report = FuzzReport(target_account=target.account)
        # The address-pool extension (the paper's §4.2/§5 future work):
        # candidate identities mined from the bytecode's name-like
        # constants, rotated as the paying account.
        self.address_pool = address_pool
        self._identities: list[int] = []
        self._identity_rotation = None
        # Optional offline trace redirect (§3.3.1): every observation's
        # raw trace is flushed to its own file, and Symback reads the
        # events back from disk instead of the in-memory buffer.
        self._trace_store = None
        if trace_dir is not None:
            from ..instrument.tracefile import TraceStore
            self._trace_store = TraceStore(trace_dir)
        self._explored_flips: set[tuple] = set()
        self._payload_rotation = cycle(PAYLOAD_KINDS)
        self._action_rotation = None
        self._pending_dependency: list[str] = []
        self._feedback_failures = 0
        self.divergence_check = divergence_check
        # Caller wall-clock deadline (absolute epoch seconds).  The
        # campaign budget itself is *virtual* time, so an overloaded
        # host can take arbitrarily long to burn it; the deadline is
        # the real-time bound the caller actually experiences.  Checked
        # once per round, never inside one (a round is the atomic unit
        # of fuzzing work).
        self.deadline_epoch_s = deadline_epoch_s
        self._started_wall_s: float | None = None

    # -- campaign ----------------------------------------------------------
    def run(self) -> FuzzReport:
        self._started_wall_s = time.time()
        self._check_deadline()
        self._initiate()
        while not self.clock.expired(self.timeout_ms):
            self._check_deadline()
            self._iteration()
        self.report.coverage_timeline.append(
            (self.clock.now_ms, len(self.report.covered)))
        self.report.db_state = self.chain.db.export_state()
        return self.report

    def _check_deadline(self) -> None:
        if self.deadline_epoch_s is None:
            return
        now = time.time()
        if now >= self.deadline_epoch_s:
            elapsed = now - (self._started_wall_s
                             if self._started_wall_s is not None else now)
            raise DeadlineExceeded(
                f"caller deadline passed mid-campaign after "
                f"{self.report.iterations} rounds",
                deadline_epoch_s=self.deadline_epoch_s,
                elapsed_s=elapsed)

    def _initiate(self) -> None:
        """Algorithm 1 L2: local chain + agents + random seed pool."""
        setup = setup_adversaries(self.chain, self.target.account)
        self.report.setup = setup
        # Fund the victim so reward paths can execute.
        issue_to(self.chain, "eosio.token", self.target.account_str,
                 "10000000.0000 EOS")
        known = self._known_identities()
        actions = self.target.abi.action_names()
        for action_name in actions:
            abi_action = self.target.abi.action(action_name)
            for _ in range(3):
                self.pool.add(random_seed(abi_action, self.rng, known))
        self._action_rotation = cycle(actions or ["transfer"])
        if self.address_pool:
            self._identities = self._mine_identities()
            for identity in self._identities:
                self.chain.create_account(identity)
                issue_to(self.chain, "eosio.token",
                         identity, "10000.0000 EOS")
            self._identity_rotation = cycle([setup.player,
                                             *self._identities])

    def _known_identities(self) -> list[str]:
        """KNOWN_IDENTITIES with the target account spliced in at the
        historical position (index 2) to preserve seed RNG streams."""
        known = list(KNOWN_IDENTITIES)
        known.insert(2, self.target.account_str)
        return known

    def _mine_identities(self) -> list[int]:
        """Candidate account identities: i64 constants in the contract
        bytecode that decode to plausible EOSIO names."""
        from ..eosio.name import string_to_name
        candidates: set[int] = set()
        skip = {self.target.account, Name("eosio.token").value,
                Name("transfer").value}
        for func in self.target.module.functions:
            for instr in func.body:
                if instr.op != "i64.const":
                    continue
                value = instr.args[0] & 0xFFFFFFFFFFFFFFFF
                if value in skip or value == 0:
                    continue
                text = name_to_string(value)
                if not text or len(text) < 3:
                    continue
                try:
                    if string_to_name(text) == value:
                        candidates.add(value)
                except ValueError:
                    continue
        return sorted(candidates)[:8]

    def _iteration(self) -> None:
        self.report.iterations += 1
        self.clock.charge_iteration()
        action_name = self._select_action()
        abi_action = (self.target.abi.action(action_name)
                      if self.target.abi.has_action(action_name) else None)
        if abi_action is None:
            return
        # Keep the pool supplied with fresh random seeds alongside the
        # adaptive ones (Algorithm 1 keeps drawing from both).
        known = self._known_identities()
        self.pool.add(random_seed(abi_action, self.rng, known))
        seed = self.pool.next(action_name)
        if seed is None:
            seed = random_seed(abi_action, self.rng, known)
            self.pool.add(seed)
        # Transfer seeds run under every adversary-oracle payload; the
        # other actions only have the direct invocation.
        kinds = PAYLOAD_KINDS if action_name == "transfer" else ("direct",)
        for kind in kinds:
            try:
                observation = self.execute_seed(kind, seed, abi_action)
            except CampaignError as exc:
                # A trapping victim execution (trap storm) costs one
                # observation, never the campaign.
                self.report.contained.append(f"execute: {exc}")
                continue
            if observation is None:
                continue
            self._update_dbg(observation)
            if self.feedback:
                try:
                    self._feedback(observation, abi_action)
                except DivergenceError as exc:
                    self._contain_divergence(exc)
                except CampaignError as exc:
                    self._contain_feedback_failure(exc)

    def _contain_divergence(self, exc: DivergenceError) -> None:
        """Quarantine one diverged trace: its symbolic feedback is
        dropped (no adaptive seeds, no flips) and the verdict is
        recorded so the harness reports the sample as divergent.
        Deliberately *not* routed through the degradation budget —
        divergence is an unsound replay, not an unavailable one."""
        if len(self.report.divergences) < 10:
            self.report.divergences.append(
                f"iteration {self.report.iterations}: {exc}")
        self.report.contained.append(f"divergence: {exc}")

    def _contain_feedback_failure(self, exc: CampaignError) -> None:
        """Absorb one symbolic-feedback fault; degrade to black-box
        fuzzing once the budget is spent (the campaign keeps running
        on random + mutation seeds, exactly the EOSFuzzer loop)."""
        self._feedback_failures += 1
        self.report.contained.append(f"feedback: {exc}")
        stage = exc.stage or "symback"
        self.report.feedback_failure_stages[stage] = \
            self.report.feedback_failure_stages.get(stage, 0) + 1
        if (self._feedback_failures >= MAX_FEEDBACK_FAILURES
                and self.feedback):
            self.feedback = False
            self.report.degraded = True
            self.report.contained.append(
                f"degraded to black-box fuzzing after "
                f"{self._feedback_failures} symbolic failures")

    # -- seed selection (§3.3.2) ----------------------------------------------
    def _select_action(self) -> str:
        if self._pending_dependency:
            return self._pending_dependency.pop(0)
        return next(self._action_rotation)

    def _update_dbg(self, observation: Observation) -> None:
        self.dbg.record(observation.action_name, observation.record.db_ops)
        # Transaction dependency: a failed read means some writer must
        # run first; schedule the writers the DBG knows about.
        if not observation.success:
            for writer in self.dbg.dependency_writers(
                    observation.action_name):
                if writer not in self._pending_dependency:
                    self._pending_dependency.append(writer)

    # -- payload execution -------------------------------------------------------
    def execute_seed(self, kind: str, seed: Seed,
                     abi_action) -> Observation | None:
        """Run one payload; capture the victim's trace."""
        faultinject.inject("trap")
        setup = self.report.setup
        payer = None
        if (self.address_pool and kind == "legit"
                and self._identity_rotation is not None):
            payer = next(self._identity_rotation)
        try:
            actions, executed_params = build_payload(kind, setup, seed,
                                                     abi_action,
                                                     payer=payer)
        except (ValueError, TypeError):
            return None
        result = self.chain.push_transaction(actions)
        self.clock.charge_transaction()
        victim_records = [r for r in result.all_records()
                          if r.receiver == self.target.account
                          and r.wasm_trace]
        if not victim_records:
            return None
        record = victim_records[0]
        if self._trace_store is not None:
            from ..instrument.tracefile import read_trace_ir
            from ..resilience.errors import TraceCorruption
            token = f"iter{self.report.iterations:06d}-{kind}"
            for event in record.wasm_trace:
                self._trace_store.append(token, event)
            path = self._trace_store.finalize(token)
            try:
                events = read_trace_ir(path)
            except TraceCorruption as exc:
                # The offline file rotted between flush and readback
                # (or an injected fault corrupted it).  The in-memory
                # buffer is still intact, so the observation survives;
                # the containment is recorded, never silent.
                self.report.contained.append(
                    f"trace file discarded: {exc}")
                events = record.wasm_trace
        else:
            events = record.wasm_trace
        if faultinject.should_corrupt("trace"):
            events = _corrupt_trace(events, self.target.site_table)
        observation = Observation(kind, seed.action_name, executed_params,
                                  record, events, result.success,
                                  self.clock.now_ms, actions=actions)
        self.report.observations.append(observation)
        # Coverage accounting (only the fuzzing target's traces, §4.1).
        new_cover = branch_coverage_ids(self.target.site_table, events)
        before = len(self.report.covered)
        self.report.covered.update(new_cover)
        if len(self.report.covered) != before:
            self.report.coverage_timeline.append(
                (self.clock.now_ms, len(self.report.covered)))
        # Locate the eosponser from a valid EOS transaction (§3.5).
        if self.report.eosponser_id is None and kind == "legit":
            located = locate_action_call(events, self.target.site_table,
                                         self.target.apply_index)
            if located is not None:
                self.report.eosponser_id = located[1]
        return observation

    # -- symbolic feedback (§3.4) ----------------------------------------------------
    def _feedback(self, observation: Observation, abi_action) -> None:
        target = self.target
        explored = self._explored_flips | self.report.covered
        try:
            if has_unexplored_flip(observation.events, target.site_table,
                                   target.apply_index, target.import_names,
                                   explored):
                layout = SeedLayout(abi_action, observation.executed_params)
                replay = replay_action(target.module, target.site_table,
                                       observation.events, layout,
                                       target.apply_index,
                                       target.import_names,
                                       divergence_check=self.divergence_check)
            else:
                # No side left to flip, so the replay could pose no
                # query: skip it, but pass its fault chokepoint and
                # charge its virtual time as if it ran.
                faultinject.inject("symback")
                replay = None
        except CampaignError:
            raise
        except Exception as exc:
            raise SymbackError.wrap(exc)
        self.clock.charge_replay()
        if replay is None:
            return
        self.report.sentinel_checkpoints += replay.checkpoints
        queries = flip_queries(replay, explored)
        queries = queries[:self.max_flips_per_round]
        if not queries:
            return
        before_unknown = self.report.solver_stats.unknowns
        try:
            seeds = solve_flips(queries, layout, observation.action_name,
                                max_conflicts=self.smt_max_conflicts,
                                stats=self.report.solver_stats)
        except CampaignError:
            raise
        except Exception as exc:
            raise SolverError.wrap(exc)
        capped = self.report.solver_stats.unknowns > before_unknown
        self.clock.charge_smt(len(queries), capped=capped)
        for adaptive in seeds:
            self._explored_flips.add(adaptive.branch_id)
            self.pool.add_front(Seed(adaptive.action_name, adaptive.values,
                                     "adaptive"))
            self.report.adaptive_seeds += 1
        for query in queries:
            self._explored_flips.add(query.branch.flip_id)


def decode_raw_trace(events: list[HookEvent]) -> list[HookEvent]:
    """Returns ``events`` unchanged.  The chain records traces already
    decoded, so the fuzzer never calls this."""
    # benchmarks/perf/tracer.py still patches this name as its
    # ``instrument.decode_raw_trace`` layer.  Delete it together with
    # that patch point (ROADMAP, "Smaller consolidation").
    return events


def _corrupt_trace(events: list[HookEvent],
                   sites) -> list[HookEvent]:
    """Deterministically corrupt a decoded trace (fault injection).

    Acted on when a ``Fault(stage="trace", kind="corrupt")`` matches:
    recorded memory-op addresses and host-call arguments are shifted,
    host-call returns are bumped and recorded branch outcomes flipped,
    producing exactly the concrete/symbolic disagreement a real
    instrumentation or replay bug would — so tests can prove the
    divergence sentinel catches it end-to-end.
    """
    from ..wasm.opcodes import is_load, is_store
    corrupted: list[HookEvent] = []
    for event in events:
        operands = event.operands
        if event.kind == "post" and operands \
                and isinstance(operands[0], int):
            operands = (operands[0] + 1, *operands[1:])
        elif event.kind == "instr" and operands:
            op = sites[event.site_id].instr.op
            if op in ("br_if", "if") and isinstance(operands[-1], int):
                operands = (*operands[:-1], 1 - int(bool(operands[-1])))
            elif (is_load(op) or is_store(op)) \
                    and isinstance(operands[0], int):
                operands = (operands[0] + 4096, *operands[1:])
            elif op in ("call", "call_indirect") \
                    and isinstance(operands[0], int):
                operands = (operands[0] + 1, *operands[1:])
        if operands is event.operands:
            corrupted.append(event)
        else:
            corrupted.append(HookEvent(event.kind, event.site_id,
                                       event.func_id, operands))
    return corrupted
