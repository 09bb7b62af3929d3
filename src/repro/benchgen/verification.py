"""Complicated-verification injection (RQ3, §4.3).

Injects the paper's exact guard shape into the entry of the action
function, at the bytecode level::

    if (i64.ne (i64.load local.get 3) (i64.const 100000)) unreachable
    if (i64.ne (i64.load offset=8 local.get 3) (i64.const <EOS raw>)) unreachable

Only an elaborate input (quantity exactly "10.0000 EOS") survives the
guards, so random fuzzing dies at the entry while adaptive seeds solve
the equalities.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..eosio.asset import EOS_SYMBOL
from ..wasm.module import Module
from ..wasm.opcodes import Instr
from .obfuscate import _copy_module, _signed64

__all__ = ["inject_verification", "VerificationSpec"]


@dataclass(frozen=True)
class VerificationSpec:
    """What the injected guards require of the input."""

    amount: int = 100_000          # 10.0000 EOS, the paper's example
    symbol_raw: int = EOS_SYMBOL.raw   # 1397703940


def inject_verification(module: Module,
                        spec: VerificationSpec | None = None,
                        table_slot: int = 0) -> Module:
    """Return a copy with the verification guards prepended to the
    action function behind ``table_slot`` (the eosponser)."""
    spec = spec or VerificationSpec()
    out = _copy_module(module)
    local_index = _resolve_slot(out, table_slot)
    func = out.functions[local_index]
    guards = [
        # if (quantity.amount != spec.amount) unreachable
        Instr("local.get", 3),
        Instr("i64.load", 3, 0),
        Instr("i64.const", _signed64(spec.amount)),
        Instr("i64.ne"),
        Instr("if", None),
        Instr("unreachable"),
        Instr("end"),
        # if (quantity.symbol != spec.symbol) unreachable
        Instr("local.get", 3),
        Instr("i64.load", 3, 8),
        Instr("i64.const", _signed64(spec.symbol_raw)),
        Instr("i64.ne"),
        Instr("if", None),
        Instr("unreachable"),
        Instr("end"),
    ]
    func.body = guards + list(func.body)
    return out


def _resolve_slot(module: Module, table_slot: int) -> int:
    for elem in module.elements:
        base = elem.offset[0].args[0]
        if base <= table_slot < base + len(elem.func_indices):
            func_index = elem.func_indices[table_slot - base]
            return func_index - module.num_imported_functions
    raise ValueError(f"table slot {table_slot} not populated")
