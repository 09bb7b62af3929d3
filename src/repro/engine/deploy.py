"""Deployment helper: wire a contract binary into the local chain.

Mirrors the paper's *Initiation* stage (Algorithm 1, L2): instrument
the target binary (bin -> bin'), deploy it together with the auxiliary
contracts (``eosio.token`` and the adversary-oracle agents), and keep
the artefacts Symback needs (original module, site table, ABI, the
``apply`` function index).  A campaign that deploys the same module
more than once (a retry, a second tool, an exploit replay) passes its
:class:`Instrumentation` along and rewrites the module once.
"""

from __future__ import annotations

import hashlib
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

__all__ = ["FuzzTarget", "Instrumentation", "deploy_target",
           "setup_chain", "configure_instrumentation_cache",
           "module_content_hash"]


def module_content_hash(module: Module) -> str:
    """The canonical content hash identifying ``module`` everywhere.

    The binary encoding is canonical for our purposes (the corpus
    builders hand out structurally distinct modules), so hashing the
    encoded bytes yields one identity shared by every consumer: the
    checkpoint journal's resume keys and the scan service's artifact
    store both key on this digest, so they can never disagree about
    whether two modules are "the same".  The digest is memoised on the
    module instance; modules are treated as immutable once they reach
    the deployment layer.
    """
    cached = getattr(module, "_repro_fingerprint", None)
    if cached is not None:
        return cached
    from ..wasm.encoder import encode_module
    digest = hashlib.sha256(encode_module(module)).hexdigest()
    module._repro_fingerprint = digest
    return digest


class Instrumentation:
    """The bin -> bin' rewrite of one module, made on first use and
    kept by its holder: a campaign task, one ``run_wasai`` campaign or
    an exploit replay.  The process keeps none, so an instrumented
    module is freed with the last campaign that deployed it.

    :meth:`pair` returns the ``(instrumented module, site table)``
    pair: the first call rewrites :attr:`module` through
    ``instrument_module`` (looked up in this module at call time), and
    later calls return the same pair.  A failed rewrite is not kept,
    so the next call tries again.  The pair is shared read-only:
    execution state lives in per-transaction ``Instance`` objects,
    never in the module itself.
    """

    def __init__(self, module: Module):
        self.module = module
        self._pair: "tuple[Module, SiteTable] | None" = None

    def pair(self) -> tuple[Module, SiteTable]:
        if self._pair is not None:
            return self._pair
        try:
            self._pair = instrument_module(self.module)
        except CampaignError:
            raise
        except Exception as exc:
            raise InstrumentError.wrap(exc)
        return self._pair


def configure_instrumentation_cache(enabled: bool = True) -> None:
    """Does nothing: instrumentation is per campaign, and there is no
    process-wide cache left to configure."""
    # benchmarks/perf/workloads.py (``_reset_caches``) still calls this.
    # Delete it together with that call (ROADMAP, "Smaller
    # consolidation").


@dataclass
class FuzzTarget:
    """Everything the fuzzer needs to know about a deployed target."""

    account: int
    module: Module          # the ORIGINAL (uninstrumented) module
    abi: Abi
    site_table: SiteTable
    apply_index: int        # function index of void apply() (original)
    import_names: dict[int, str]
    # The rewrite that was deployed; pass it to a later deploy of the
    # same module to skip instrumenting it again.
    instrumentation: Instrumentation

    @property
    def account_str(self) -> str:
        from ..eosio.name import name_to_string
        return name_to_string(self.account)


def deploy_target(chain: Chain, account: "str | int", module: Module,
                  abi: Abi,
                  instrumentation: Instrumentation | None = None
                  ) -> FuzzTarget:
    """Instrument ``module`` and deploy it at ``account``.

    ``instrumentation`` is the :class:`Instrumentation` of ``module``
    that an earlier deploy used (``FuzzTarget.instrumentation``); its
    pair is deployed as is instead of rewriting ``module`` again.
    Without it, the module is instrumented afresh.

    Failures surface as typed campaign errors:
    :class:`~repro.resilience.InstrumentError` for the bin -> bin'
    rewrite, :class:`~repro.resilience.DeployError` for the chain
    side — so the containment policies can tell the stages apart.
    """
    faultinject.inject("instrument")
    if instrumentation is None:
        instrumentation = Instrumentation(module)
    instrumented, site_table = instrumentation.pair()
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
                      import_names, instrumentation)


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
