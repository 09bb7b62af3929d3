"""A deterministic local EOSIO blockchain.

This module replaces the Nodeos testnet the paper runs WASAI against.
It executes transactions made of actions against deployed contracts
(Wasm modules through :mod:`repro.wasm.interpreter`, or native Python
contracts such as ``eosio.token``), with the EOSIO semantics the five
vulnerability classes depend on:

* **notifications** — ``require_recipient`` forwards the *original*
  ``code`` to notified contracts (the Fake Notif surface, §2.3.2),
* **inline actions** — packed into the same transaction and reverted
  together with it (the Rollback surface, §2.3.5),
* **deferred actions** — run as separate transactions that the sender
  cannot revert (the paper's suggested Rollback patch),
* **database rollback** — a failed transaction restores the pre-state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..instrument.hooks import HookEvent, hook_event_builder
from ..wasm.interpreter import (ExecutionLimits, HostFunc, Instance,
                                InstanceTemplate, Trap, TrapResourceLimit)
from ..wasm.module import Module
from .abi import Abi
from .database import Database, DbOperation
from .errors import (AssertionFailure, ChainError, MissingAuthorization,
                     TransactionFailed, UnknownAccount)
from .host import ContextCell, HostCall, build_host_imports
from .name import Name, name_to_string
from .serialize import Encoder

__all__ = ["Action", "ActionRecord", "TransactionResult", "Chain",
           "Contract", "NativeContract", "WasmContract", "ApplyContext"]

MAX_INLINE_DEPTH = 10


@dataclass
class Action:
    """One action of a transaction."""

    account: int          # the contract that owns the action
    name: int             # action name (u64)
    authorization: list[int] = field(default_factory=list)
    data: bytes = b""

    def __post_init__(self):
        self.account = int(Name(self.account))
        self.name = int(Name(self.name))
        self.authorization = [int(Name(a)) for a in self.authorization]

    def pack(self) -> bytes:
        """The packed-action wire format consumed by ``send_inline``."""
        encoder = Encoder()
        encoder.uint(self.account, 8)
        encoder.uint(self.name, 8)
        encoder.varuint32(len(self.authorization))
        for actor in self.authorization:
            encoder.uint(actor, 8)
            encoder.uint(int(Name("active")), 8)
        encoder.varuint32(len(self.data))
        encoder.raw(self.data)
        return encoder.bytes()

    def __repr__(self) -> str:
        return (f"Action({name_to_string(self.name)}@"
                f"{name_to_string(self.account)})")


@dataclass
class ActionRecord:
    """The observable outcome of executing one apply() call."""

    receiver: int
    code: int
    action_name: int
    data: bytes
    is_notification: bool
    host_calls: list[HostCall] = field(default_factory=list)
    # The instrumentation trace, one HookEvent per hook firing.
    wasm_trace: list[HookEvent] = field(default_factory=list)
    console: list[str] = field(default_factory=list)
    db_ops: list[DbOperation] = field(default_factory=list)
    # Set when this apply() aborted (assert/trap); the transaction was
    # reverted but the trace up to the abort is preserved — WASAI's
    # feedback depends on replaying failed executions too.
    error: str | None = None

    def __repr__(self) -> str:
        return (f"ActionRecord({name_to_string(self.action_name)}@"
                f"{name_to_string(self.code)} -> "
                f"{name_to_string(self.receiver)})")


@dataclass
class TransactionResult:
    success: bool
    error: str | None
    records: list[ActionRecord] = field(default_factory=list)
    deferred: list["TransactionResult"] = field(default_factory=list)

    def all_records(self) -> list[ActionRecord]:
        out = list(self.records)
        for deferred in self.deferred:
            out.extend(deferred.all_records())
        return out


class ApplyContext:
    """Execution context of one apply() call (one receiver)."""

    def __init__(self, chain: "Chain", receiver: int, code: int,
                 action: Action, is_notification: bool):
        self.chain = chain
        self.receiver = receiver
        self.code = code
        self.action = action
        self.action_name = action.name
        self.data = action.data
        self.authorization = list(action.authorization)
        self.is_notification = is_notification
        self.console: list[str] = []
        self.host_calls: list[HostCall] = []
        self.wasm_trace: list[HookEvent] = []
        self.wasm_trace_bytes = 0
        self.new_recipients: list[int] = []
        self.inline_actions: list[Action] = []
        self.deferred_actions: list[Action] = []

    def has_authorization(self, account: int) -> bool:
        return account in self.authorization

    def add_recipient(self, account: int) -> None:
        self.new_recipients.append(account)

    def add_inline_action(self, action: Action) -> None:
        # An inline action must be authorised by the sending contract
        # itself or by an authority the parent action carried.
        for actor in action.authorization:
            if actor != self.receiver and not self.has_authorization(actor):
                raise MissingAuthorization(actor)
        self.inline_actions.append(action)

    def add_deferred_action(self, action: Action) -> None:
        for actor in action.authorization:
            if actor != self.receiver and not self.has_authorization(actor):
                raise MissingAuthorization(actor)
        self.deferred_actions.append(action)


class Contract:
    """Base class of deployable contracts."""

    def apply(self, chain: "Chain", ctx: ApplyContext) -> None:
        raise NotImplementedError

    @property
    def abi(self) -> Abi:
        return Abi()


class NativeContract(Contract):
    """A contract implemented in Python (system/agent contracts)."""


class WasmContract(Contract):
    """A contract deployed as a Wasm module.

    ``site_table`` is present for instrumented binaries; its hook
    imports (module namespace ``wasabi``) are bound to the apply
    context's trace buffer, which records one :class:`HookEvent` per
    hook firing (equal firings of one binding share one event).
    """

    def __init__(self, module: Module, abi: Abi | None = None,
                 site_table=None):
        self.module = module
        self._abi = abi or Abi()
        self.site_table = site_table
        # Per-chain execution state, built lazily on the first apply:
        # the host-import dict (bound through a ContextCell so it is
        # constructed once, not per action) and the instance template
        # that rewinds one cached Instance instead of re-instantiating.
        self.unbind()

    @property
    def abi(self) -> Abi:
        return self._abi

    def apply(self, chain: "Chain", ctx: ApplyContext) -> None:
        if self._bound_chain is not chain:
            self._bind(chain)
        self._cell.ctx = ctx
        if self.module.start is None:
            # Applies never overlap (inline actions and notifications
            # run after the triggering apply returns), so the contract
            # can rewind one cached instance per action.
            if self._template is None:
                self._template = InstanceTemplate(
                    self.module, self._imports, self._limits)
            instance = self._template.fresh()
        else:
            # A start function must observe fresh per-instantiation
            # state, so these modules are re-instantiated each apply.
            instance = Instance(self.module, self._imports,
                                limits=self._limits)
        instance.invoke("apply", [ctx.receiver, ctx.code, ctx.action_name])

    def unbind(self) -> None:
        """Drop the per-chain execution state; the next apply rebuilds
        it.  The binding refers back to the chain (the chain holds this
        contract), so dropping it lets the chain, its linear memories
        and its translations be freed by reference counting."""
        self._bound_chain: "Chain | None" = None
        self._cell: ContextCell | None = None
        self._imports: dict | None = None
        self._limits: ExecutionLimits | None = None
        self._template: InstanceTemplate | None = None

    def _bind(self, chain: "Chain") -> None:
        cell = ContextCell()
        imports = build_host_imports(chain, cell)
        for imp in self.module.imports:
            if imp.kind == "func" and imp.module == "wasabi":
                imports[(imp.module, imp.name)] = self._hook(
                    chain, cell, imp.name, self.module.types[imp.desc])
        self._cell = cell
        self._imports = imports
        self._limits = ExecutionLimits(**chain.execution_limits)
        self._template = None
        self._bound_chain = chain

    @staticmethod
    def _hook(chain: "Chain", ctx, hook_name: str, func_type):
        # The trace buffer is host memory an instrumented contract can
        # write into at one entry per executed hook, so it is metered:
        # a hostile contract spinning in a hooked loop traps instead of
        # filling RAM with trace entries.  The budgets, the event size
        # and the event's kind are resolved once at bind time; per
        # event only the two threshold compares and the append of one
        # HookEvent into the per-action buffer remain (the buffer lands
        # on the ActionRecord wholesale, so there is no flush copy or
        # decode pass either).  The recorder made here keeps one event
        # per distinct firing for as long as this binding lives
        # (``unbind`` drops it), so equal firings append the same
        # HookEvent, which must never be mutated; the budgets still
        # count firings, not distinct events.
        cell = ctx if isinstance(ctx, ContextCell) else ContextCell(ctx)
        limits = ExecutionLimits(**chain.execution_limits)
        max_events = limits.max_trace_events
        max_bytes = limits.max_trace_bytes
        event_bytes = 16 + 8 * len(func_type.params)
        make_event = hook_event_builder(hook_name)

        def impl(instance, args):
            ctx = cell.ctx
            trace = ctx.wasm_trace
            if max_events is not None and len(trace) >= max_events:
                raise TrapResourceLimit(
                    f"trace exceeds {max_events} events")
            ctx.wasm_trace_bytes += event_bytes
            if max_bytes is not None \
                    and ctx.wasm_trace_bytes > max_bytes:
                raise TrapResourceLimit(
                    f"trace exceeds {max_bytes} bytes")
            trace.append(make_event(args))
            return []
        return HostFunc(func_type, impl)


class Chain:
    """The local blockchain: accounts, database, transaction engine."""

    def __init__(self, tapos_block_num: int = 1234,
                 tapos_block_prefix: int = 0x5EED_BEEF,
                 current_time: int = 1_600_000_000_000_000,
                 fuel: int = 5_000_000, call_depth: int = 250,
                 limits: "ExecutionLimits | None" = None):
        self.db = Database()
        self.accounts: dict[int, Contract | None] = {}
        self.tapos_block_num = tapos_block_num
        self.tapos_block_prefix = tapos_block_prefix
        self.current_time = current_time
        if limits is not None:
            self.execution_limits = dict(asdict(limits))
        else:
            self.execution_limits = {"fuel": fuel, "call_depth": call_depth}
        self.transaction_log: list[TransactionResult] = []

    # -- account management ----------------------------------------------
    def create_account(self, name: "int | str") -> int:
        account = int(Name(name))
        self.accounts.setdefault(account, None)
        return account

    def set_contract(self, name: "int | str", contract: Contract) -> int:
        account = self.create_account(name)
        self.accounts[account] = contract
        return account

    def get_contract(self, name: "int | str") -> Contract | None:
        return self.accounts.get(int(Name(name)))

    def is_account(self, name: "int | str") -> bool:
        return int(Name(name)) in self.accounts

    def unbind_contracts(self) -> None:
        """Drop every Wasm contract's cached binding to this chain.

        A bound contract and the chain refer to each other, so without
        this a finished chain is cyclic garbage that only a full
        collection frees.  Each binding is rebuilt on the contract's
        next apply, so the chain stays usable."""
        for contract in self.accounts.values():
            if isinstance(contract, WasmContract):
                contract.unbind()

    # -- transaction engine -------------------------------------------------
    def push_action(self, account, action_name, authorization, data: bytes,
                    ) -> TransactionResult:
        """Convenience: a single-action transaction."""
        return self.push_transaction(
            [Action(account, action_name, list(authorization), data)])

    def push_transaction(self, actions: list[Action]) -> TransactionResult:
        """Execute a transaction; on any failure the database state is
        rolled back and the result carries the error.  Deferred actions
        scheduled by the transaction run afterwards, each as its own
        transaction (EOSIO semantics: the sender cannot revert them)."""
        snapshot = self.db.snapshot()
        records: list[ActionRecord] = []
        deferred: list[Action] = []
        result: TransactionResult
        try:
            for action in actions:
                self._run_action(action, records, deferred, depth=0)
            result = TransactionResult(True, None, records)
        except (ChainError, Trap) as exc:
            self.db.restore(snapshot)
            result = TransactionResult(
                False, f"{type(exc).__name__}: {exc}", records)
        if result.success:
            for deferred_action in deferred:
                result.deferred.append(
                    self.push_transaction([deferred_action]))
        self.transaction_log.append(result)
        return result

    def _run_action(self, action: Action, records: list[ActionRecord],
                    deferred: list[Action], depth: int) -> None:
        if depth > MAX_INLINE_DEPTH:
            raise ChainError("inline action depth exceeded")
        if action.account not in self.accounts:
            raise UnknownAccount(
                f"unknown account {name_to_string(action.account)}")
        inline: list[Action] = []
        notified: set[int] = set()
        queue: list[tuple[int, bool]] = [(action.account, False)]
        while queue:
            receiver, is_notification = queue.pop(0)
            notified.add(receiver)
            contract = self.accounts.get(receiver)
            if contract is None:
                continue
            ctx = ApplyContext(self, receiver, action.account, action,
                               is_notification)
            self.db.drain_journal()
            error: Exception | None = None
            try:
                contract.apply(self, ctx)
            except (ChainError, Trap) as exc:
                error = exc
            record = ActionRecord(
                receiver=receiver, code=action.account,
                action_name=action.name, data=action.data,
                is_notification=is_notification,
                host_calls=ctx.host_calls, wasm_trace=ctx.wasm_trace,
                console=ctx.console, db_ops=self.db.drain_journal(),
                error=f"{type(error).__name__}: {error}" if error else None)
            records.append(record)
            if error is not None:
                # Drop the local once raised: the traceback holds this
                # frame, and a frame holding its own exception is a
                # cycle that keeps the whole failed call stack and its
                # trace alive until a full garbage collection.
                try:
                    raise error
                finally:
                    error = None
            for recipient in ctx.new_recipients:
                if recipient not in notified:
                    queue.append((recipient, True))
            inline.extend(ctx.inline_actions)
            deferred.extend(ctx.deferred_actions)
        for inline_action in inline:
            self._run_action(inline_action, records, deferred, depth + 1)
