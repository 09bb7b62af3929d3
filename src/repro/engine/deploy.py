"""Deployment helper: wire a contract binary into the local chain.

Mirrors the paper's *Initiation* stage (Algorithm 1, L2): instrument
the target binary (bin -> bin'), deploy it together with the auxiliary
contracts (``eosio.token`` and the adversary-oracle agents), and keep
the artefacts Symback needs (original module, site table, ABI, the
``apply`` function index).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..eosio.abi import Abi
from ..eosio.chain import Chain, WasmContract
from ..eosio.name import N, Name
from ..eosio.token import deploy_token, issue_to
from ..instrument import SiteTable, instrument_module
from ..resilience import faultinject
from ..resilience.errors import (CampaignError, DeployError,
                                 InstrumentError)
from ..wasm.module import Module

__all__ = ["FuzzTarget", "deploy_target", "setup_chain",
           "InstrumentationCache", "instrumentation_cache",
           "configure_instrumentation_cache", "module_content_hash"]


def module_content_hash(module: Module) -> str:
    """The canonical content hash identifying ``module`` everywhere.

    The binary encoding is canonical for our purposes (the corpus
    builders hand out structurally distinct modules), so hashing the
    encoded bytes yields one identity shared by every consumer: the
    instrumentation cache, the checkpoint journal's resume keys and
    the scan service's artifact store all key on this digest, so they
    can never disagree about whether two modules are "the same".  The
    digest is memoised on the module instance; modules are treated as
    immutable once they reach the deployment layer.
    """
    cached = getattr(module, "_repro_fingerprint", None)
    if cached is not None:
        return cached
    from ..wasm.encoder import encode_module
    digest = hashlib.sha256(encode_module(module)).hexdigest()
    module._repro_fingerprint = digest
    return digest


class InstrumentationCache:
    """Memoises ``instrument_module`` per distinct contract binary.

    The evaluation pipeline redeploys the same module many times — once
    per tool in ``evaluate_corpus``, repeatedly across RQ4 rounds and
    the obfuscation bench — and instrumentation is a full-module
    rewrite, so amortising it is a large win.  Entries (instrumented
    module + site table) are shared read-only: execution state lives in
    per-transaction ``Instance`` objects, never in the module itself.

    The scan daemon's worker threads share the process-wide instance,
    so a lock guards the entry table and counters; it is never held
    while a module is rewritten.
    """

    def __init__(self, max_entries: int = 128):
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, tuple[Module, SiteTable]]" \
            = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def instrument(self, module: Module) -> tuple[Module, SiteTable]:
        key = module_content_hash(module)
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return found
            self.misses += 1
        entry = instrument_module(module)
        with self._lock:
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry


# One cache per process; parallel workers each grow their own.
_INSTRUMENT_CACHE: InstrumentationCache | None = InstrumentationCache()


def instrumentation_cache() -> InstrumentationCache | None:
    """The process-wide instrumentation cache (None when disabled)."""
    return _INSTRUMENT_CACHE


def configure_instrumentation_cache(
        enabled: bool = True) -> InstrumentationCache | None:
    """Replace the process-wide cache (or disable it); returns the new
    cache.  Used by the determinism tests and the ablation benches."""
    global _INSTRUMENT_CACHE
    _INSTRUMENT_CACHE = InstrumentationCache() if enabled else None
    return _INSTRUMENT_CACHE


@dataclass
class FuzzTarget:
    """Everything the fuzzer needs to know about a deployed target."""

    account: int
    module: Module          # the ORIGINAL (uninstrumented) module
    abi: Abi
    site_table: SiteTable
    apply_index: int        # function index of void apply() (original)
    import_names: dict[int, str]

    @property
    def account_str(self) -> str:
        from ..eosio.name import name_to_string
        return name_to_string(self.account)


def deploy_target(chain: Chain, account: "str | int", module: Module,
                  abi: Abi) -> FuzzTarget:
    """Instrument ``module`` and deploy it at ``account``.

    Failures surface as typed campaign errors:
    :class:`~repro.resilience.InstrumentError` for the bin -> bin'
    rewrite, :class:`~repro.resilience.DeployError` for the chain
    side — so the containment policies can tell the stages apart.
    """
    faultinject.inject("instrument")
    try:
        cache = _INSTRUMENT_CACHE
        if cache is not None:
            instrumented, site_table = cache.instrument(module)
        else:
            instrumented, site_table = instrument_module(module)
    except CampaignError:
        raise
    except Exception as exc:
        raise InstrumentError.wrap(exc)
    faultinject.inject("deploy")
    try:
        contract = WasmContract(instrumented, abi, site_table)
        account_name = chain.set_contract(account, contract)
        apply_index = module.export_index("apply", "func")
        if apply_index is None:
            raise ValueError(
                "contract has no exported apply() dispatcher")
        import_names = {
            i: imp.name
            for i, imp in enumerate(module.imported_functions())}
    except CampaignError:
        raise
    except Exception as exc:
        raise DeployError.wrap(exc)
    return FuzzTarget(account_name, module, abi, site_table, apply_index,
                      import_names)


def setup_chain(player_funds: str = "10000000.0000 EOS",
                limits=None) -> Chain:
    """A fresh local chain with eosio.token and standard test accounts
    (the paper's local blockchain initiation).  ``limits``, when given,
    is the :class:`~repro.wasm.interpreter.ExecutionLimits` every Wasm
    contract on this chain will run under."""
    chain = Chain(limits=limits)
    deploy_token(chain, "eosio.token")
    issue_to(chain, "eosio.token", "player", player_funds)
    issue_to(chain, "eosio.token", "attacker", player_funds)
    chain.create_account("bob")
    return chain


def deploy_untrusted_target(chain: Chain, account: "str | int",
                            data: bytes, abi: Abi,
                            budget=None) -> FuzzTarget:
    """Ingest raw (untrusted) contract bytes, then deploy.

    The sandboxed ingestion front door for byte-level inputs: the
    bytes pass through :func:`~repro.wasm.load_untrusted_module`
    (budget enforcement + typed diagnostics) before the usual
    instrument/deploy pipeline sees them, so a hostile binary fails
    the non-retryable *ingest* stage instead of surfacing a raw
    parser exception mid-deployment.
    """
    from ..wasm.hardening import load_untrusted_module
    module = load_untrusted_module(data, budget=budget)
    return deploy_target(chain, account, module, abi)
