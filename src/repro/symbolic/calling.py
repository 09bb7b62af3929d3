"""Calling-convention input inference (challenge C3, §3.4.2).

WASAI skips the dispatcher and the deserialising methods: symbolic
execution starts at the action function, whose Local section holds the
deserialised input.  This module builds the Table 2 layout — one
symbolic expression per seed parameter ρ_i bound to Local slot i+1,
with pointer-typed parameters (asset, string) expanded into symbolic
memory content at the *concrete* pointer captured in the trace — and
maps solver models back onto concrete seeds for mutation.  Float
parameters stay concrete, as all float data flow does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..eosio.abi import AbiAction
from ..eosio.asset import Asset, Symbol
from ..smt import BitVec, BitVecVal, Model, Term, to_signed
from .machine import Frame, concrete_term
from .memory import SymbolicMemory

__all__ = ["SeedLayout", "SymbolicParam", "scalar_width"]

# ABI types passed by value in a Local slot, and their Wasm width.
_SCALAR_WIDTHS = {
    "name": 64, "uint64": 64, "int64": 64, "symbol": 64,
    "uint32": 32, "int32": 32, "uint16": 32, "int16": 32,
    "uint8": 32, "int8": 32, "bool": 32,
}
# ABI types left in linear memory behind an i32 pointer (Table 2).
_POINTER_TYPES = ("asset", "string", "bytes")
# ABI float types and their Wasm value type.  The solver has no float
# theory, so their Local slot holds the traced bits and no variable.
_FLOAT_VALTYPES = {"float32": "f32", "float64": "f64"}


def scalar_width(abi_type: str) -> int | None:
    """Local-slot width of a by-value ABI type, or None for pointers."""
    return _SCALAR_WIDTHS.get(abi_type)


@dataclass
class SymbolicParam:
    """One action parameter's symbolic variables, keyed by role."""

    index: int
    name: str
    abi_type: str
    vars: dict[str, Term] = field(default_factory=dict)


class SeedLayout:
    """The symbolic layout of one action invocation's input."""

    def __init__(self, action: AbiAction, seed_values: list,
                 tag: str = "rho"):
        self.action = action
        self.seed_values = list(seed_values)
        self.params: list[SymbolicParam] = []
        for i, param in enumerate(action.params):
            sp = SymbolicParam(i, param.name, param.type)
            prefix = f"{tag}{i}"
            width = scalar_width(param.type)
            if width is not None:
                sp.vars["value"] = BitVec(prefix, width)
            elif param.type == "asset":
                sp.vars["amount"] = BitVec(f"{prefix}_amount", 64)
                sp.vars["symbol"] = BitVec(f"{prefix}_symbol", 64)
            elif param.type in ("string", "bytes"):
                content = _content_bytes(seed_values[i])
                for b in range(len(content)):
                    sp.vars[f"byte{b}"] = BitVec(f"{prefix}_byte{b}", 8)
            elif param.type not in _FLOAT_VALTYPES:
                raise ValueError(f"unsupported ABI type {param.type!r}")
            self.params.append(sp)

    # -- Table 2: initialise μ_l̂ and μ_m --------------------------------------
    def init_frame(self, func_index: int, concrete_args: list,
                   memory: SymbolicMemory) -> Frame:
        """Build the action function's frame.

        ``concrete_args`` are the traced argument values of the
        dispatcher's indirect call: slot 0 is the receiver/context
        (kept concrete) and slot i+1 carries ρ_i — the deserialised
        value for scalars and floats, the i32 pointer for
        memory-resident types.
        """
        locals_init: list[Term] = [BitVecVal(int(concrete_args[0]), 64)
                                   if concrete_args else BitVecVal(0, 64)]
        for sp in self.params:
            slot = sp.index + 1
            concrete = concrete_args[slot] if slot < len(concrete_args) else 0
            width = scalar_width(sp.abi_type)
            if width is not None:
                locals_init.append(sp.vars["value"])
                continue
            if sp.abi_type in _FLOAT_VALTYPES:
                locals_init.append(concrete_term(
                    _FLOAT_VALTYPES[sp.abi_type], concrete))
                continue
            pointer = int(concrete)
            locals_init.append(BitVecVal(pointer, 32))
            if sp.abi_type == "asset":
                memory.store_symbol(pointer, sp.vars["amount"])
                memory.store_symbol(pointer + 8, sp.vars["symbol"])
            else:  # string / bytes: length byte, then content
                content = _content_bytes(self.seed_values[sp.index])
                memory.store_bytes(pointer, bytes([len(content) & 0xFF]))
                for b in range(len(content)):
                    memory.store_symbol(pointer + 1 + b, sp.vars[f"byte{b}"])
        frame = Frame(func_index, locals_init)
        return frame

    # -- path constraints pinning the current seed ------------------------------
    def binding_constraints(self) -> dict[Term, Term]:
        """Map each input variable to its current concrete value (used
        to concretise all-but-one parameter during mutation)."""
        bindings: dict[Term, Term] = {}
        for sp in self.params:
            if sp.abi_type in _FLOAT_VALTYPES:
                continue    # concrete: no variable to bind
            value = self.seed_values[sp.index]
            width = scalar_width(sp.abi_type)
            if width is not None:
                bindings[sp.vars["value"]] = BitVecVal(
                    _scalar_to_int(sp.abi_type, value), width)
            elif sp.abi_type == "asset":
                asset = _as_asset(value)
                bindings[sp.vars["amount"]] = BitVecVal(asset.amount, 64)
                bindings[sp.vars["symbol"]] = BitVecVal(asset.symbol.raw, 64)
            else:
                content = _content_bytes(value)
                for b, byte in enumerate(content):
                    bindings[sp.vars[f"byte{b}"]] = BitVecVal(byte, 8)
        return bindings

    def all_vars(self) -> set[Term]:
        out: set[Term] = set()
        for sp in self.params:
            out.update(sp.vars.values())
        return out

    # -- model -> new concrete seed ---------------------------------------------------
    def seed_from_model(self, model: Model) -> list:
        """Apply a solver model on top of the current seed values."""
        new_values = list(self.seed_values)
        for sp in self.params:
            if sp.abi_type in _FLOAT_VALTYPES:
                continue    # concrete: no model value names it
            width = scalar_width(sp.abi_type)
            if width is not None:
                var = sp.vars["value"]
                if var in model:
                    new_values[sp.index] = _int_to_scalar(
                        sp.abi_type, model[var], width)
            elif sp.abi_type == "asset":
                base = _as_asset(self.seed_values[sp.index])
                amount = base.amount
                symbol = base.symbol
                if sp.vars["amount"] in model:
                    amount = to_signed(model[sp.vars["amount"]], 64)
                if sp.vars["symbol"] in model:
                    try:
                        symbol = Symbol.from_raw(model[sp.vars["symbol"]])
                    except ValueError:
                        pass  # solver picked a non-decodable symbol; keep
                try:
                    new_values[sp.index] = Asset(amount, symbol)
                except ValueError:
                    pass  # out-of-range amount; keep the base value
            else:
                content = bytearray(_content_bytes(self.seed_values[sp.index]))
                changed = False
                for b in range(len(content)):
                    var = sp.vars[f"byte{b}"]
                    if var in model:
                        content[b] = model[var] & 0xFF
                        changed = True
                if changed:
                    if sp.abi_type == "string":
                        # Keep str only when it round-trips exactly;
                        # otherwise carry raw bytes so the solved
                        # values survive re-serialisation.
                        try:
                            new_values[sp.index] = bytes(content).decode(
                                "utf-8")
                        except UnicodeDecodeError:
                            new_values[sp.index] = bytes(content)
                    else:
                        new_values[sp.index] = bytes(content)
        return new_values


def _content_bytes(value) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    raise TypeError(f"expected string/bytes seed value, got {type(value)}")


def _as_asset(value) -> Asset:
    if isinstance(value, Asset):
        return value
    return Asset.from_string(str(value))


def _scalar_to_int(abi_type: str, value) -> int:
    from ..eosio.name import Name
    if abi_type == "name":
        return int(Name(value))
    if abi_type == "symbol":
        return value.raw if isinstance(value, Symbol) else int(value)
    if abi_type == "bool":
        return 1 if value else 0
    return int(value)


def _int_to_scalar(abi_type: str, raw: int, width: int):
    from ..eosio.name import Name
    if abi_type == "name":
        return Name(raw)
    if abi_type == "symbol":
        try:
            return Symbol.from_raw(raw)
        except ValueError:
            return raw
    if abi_type == "bool":
        return bool(raw & 1)
    if abi_type.startswith("int"):
        return to_signed(raw, width)
    return raw
