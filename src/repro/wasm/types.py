"""WebAssembly value and function types."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ValType", "I32", "I64", "F32", "F64", "FuncType", "Limits",
           "GlobalType", "TableType", "MemoryType"]


class ValType:
    """A Wasm value type; instances are the four singletons below."""

    __slots__ = ("name", "code", "bits")

    def __init__(self, name: str, code: int, bits: int):
        self.name = name
        self.code = code
        self.bits = bits

    def __repr__(self) -> str:
        return self.name

    def __reduce__(self):
        # Equality is identity (these are singletons); unpickling must
        # resolve to the canonical instance, not construct a copy —
        # the executor pickles task payloads (modules included) under
        # any multiprocessing start method other than fork.
        return (ValType.from_name, (self.name,))

    @property
    def is_float(self) -> bool:
        return self.name.startswith("f")

    @staticmethod
    def from_code(code: int) -> "ValType":
        try:
            return _BY_CODE[code]
        except KeyError:
            raise ValueError(f"unknown value type code 0x{code:02x}") from None

    @staticmethod
    def from_name(name: str) -> "ValType":
        try:
            return _BY_NAME[name]
        except KeyError:
            raise ValueError(f"unknown value type {name!r}") from None


I32 = ValType("i32", 0x7F, 32)
I64 = ValType("i64", 0x7E, 64)
F32 = ValType("f32", 0x7D, 32)
F64 = ValType("f64", 0x7C, 64)

_BY_CODE = {t.code: t for t in (I32, I64, F32, F64)}
_BY_NAME = {t.name: t for t in (I32, I64, F32, F64)}


@dataclass(frozen=True)
class FuncType:
    """A function signature: parameter and result types."""

    params: tuple[ValType, ...] = ()
    results: tuple[ValType, ...] = ()

    def __repr__(self) -> str:
        ps = " ".join(p.name for p in self.params)
        rs = " ".join(r.name for r in self.results)
        return f"(func ({ps}) -> ({rs}))"


@dataclass(frozen=True)
class Limits:
    """Table/memory limits (min pages/elements, optional max)."""

    minimum: int
    maximum: int | None = None


@dataclass(frozen=True)
class GlobalType:
    valtype: ValType
    mutable: bool


@dataclass(frozen=True)
class TableType:
    limits: Limits
    elem_kind: int = 0x70  # funcref


@dataclass(frozen=True)
class MemoryType:
    limits: Limits
