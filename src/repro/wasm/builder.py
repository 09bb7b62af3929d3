"""A programmatic assembler for WebAssembly modules.

The benchmark generator (:mod:`repro.benchgen`) uses this builder to
emit genuine EOSIO-style contract binaries — dispatcher ``apply``
function, indirect-call action dispatch, byte-stream deserialisation —
that then flow through the parser, instrumenter, interpreter and
symbolic engine exactly like Mainnet binaries would.
"""

from __future__ import annotations

from .encoder import encode_module
from .module import (DataSegment, Element, Export, Function, Global, Import,
                     Module)
from .opcodes import Instr
from .types import (FuncType, GlobalType, Limits, MemoryType, TableType,
                    ValType)

__all__ = ["ModuleBuilder", "FunctionBuilder"]


def _valtypes(names) -> tuple[ValType, ...]:
    return tuple(ValType.from_name(n) for n in names)


class FunctionBuilder:
    """Accumulates the body of one function."""

    def __init__(self, module_builder: "ModuleBuilder", name: str,
                 params, results, locals_):
        self._mb = module_builder
        self.name = name
        self.params = _valtypes(params)
        self.results = _valtypes(results)
        self.locals = list(_valtypes(locals_))
        self.body: list[Instr] = []
        self.index: int | None = None  # assigned at build()

    # -- raw emission ------------------------------------------------------
    def emit(self, op: str, *args) -> "FunctionBuilder":
        self.body.append(Instr(op, *args))
        return self

    def extend(self, instructions: list[Instr]) -> "FunctionBuilder":
        self.body.extend(instructions)
        return self

    # -- convenience -------------------------------------------------------
    def i32_const(self, value: int) -> "FunctionBuilder":
        return self.emit("i32.const", _wrap_signed(value, 32))

    def i64_const(self, value: int) -> "FunctionBuilder":
        return self.emit("i64.const", _wrap_signed(value, 64))

    def local_get(self, index: int) -> "FunctionBuilder":
        return self.emit("local.get", index)

    def local_set(self, index: int) -> "FunctionBuilder":
        return self.emit("local.set", index)

    def call(self, target: "FunctionBuilder | int | str") -> "FunctionBuilder":
        """Call a function by builder, import name or raw index.

        Builder/name targets are fixed up at :meth:`ModuleBuilder.build`
        time (function indices shift as imports are added).
        """
        self.body.append(_PendingCall(target))
        return self

    def add_local(self, valtype_name: str) -> int:
        """Declare an extra local; returns its index."""
        index = len(self.params) + len(self.locals)
        self.locals.append(ValType.from_name(valtype_name))
        return index


class _PendingCall(Instr):
    """A call whose target index is resolved at build time."""

    __slots__ = ("target",)

    def __init__(self, target):
        super().__init__("call", 0)
        self.target = target


def _wrap_signed(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


class ModuleBuilder:
    """Assemble a :class:`Module` (and its binary encoding)."""

    def __init__(self) -> None:
        self._imports: list[tuple[str, str, FuncType]] = []
        self._functions: list[FunctionBuilder] = []
        self._globals: list[tuple[ValType, bool, Instr]] = []
        self._exports: list[tuple[str, str, object]] = []
        self._memory_pages: int | None = None
        self._memory_max: int | None = None
        self._table_entries: dict[int, object] = {}
        self._data: list[tuple[int, bytes]] = []
        self._start: object | None = None

    # -- declarations --------------------------------------------------------
    def import_function(self, module: str, name: str, params=(), results=()) -> int:
        """Declare a function import; returns its function index."""
        for i, (m, n, _) in enumerate(self._imports):
            if m == module and n == name:
                return i
        self._imports.append((module, name,
                              FuncType(_valtypes(params), _valtypes(results))))
        return len(self._imports) - 1

    def function(self, name: str, params=(), results=(), locals_=()) -> FunctionBuilder:
        fb = FunctionBuilder(self, name, params, results, locals_)
        self._functions.append(fb)
        return fb

    def add_memory(self, min_pages: int = 1, max_pages: int | None = None) -> None:
        self._memory_pages = min_pages
        self._memory_max = max_pages

    def add_global(self, valtype_name: str, mutable: bool, init: int | float) -> int:
        valtype = ValType.from_name(valtype_name)
        const_op = f"{valtype.name}.const"
        value = init
        if not valtype.is_float:
            value = _wrap_signed(int(init), valtype.bits)
        self._globals.append((valtype, mutable, Instr(const_op, value)))
        return len(self._globals) - 1

    def export_function(self, name: str, target: FunctionBuilder) -> None:
        self._exports.append((name, "func", target))

    def add_table_entry(self, slot: int, target: FunctionBuilder) -> None:
        """Place a function into the indirect-call table at ``slot``."""
        self._table_entries[slot] = target

    def add_data(self, offset: int, data: bytes) -> None:
        self._data.append((offset, data))

    def set_start(self, target: FunctionBuilder) -> None:
        self._start = target

    # -- assembly ---------------------------------------------------------------
    def build(self) -> Module:
        module = Module()
        for imp_module, imp_name, func_type in self._imports:
            type_index = module.add_type(func_type)
            module.imports.append(Import(imp_module, imp_name, "func",
                                         type_index))
        import_count = len(self._imports)
        for i, fb in enumerate(self._functions):
            fb.index = import_count + i
        name_to_fb = {fb.name: fb for fb in self._functions}

        def resolve(target) -> int:
            if isinstance(target, FunctionBuilder):
                return target.index
            if isinstance(target, str):
                if target in name_to_fb:
                    return name_to_fb[target].index
                raise KeyError(f"no function named {target!r}")
            return int(target)

        for fb in self._functions:
            type_index = module.add_type(FuncType(fb.params, fb.results))
            body = []
            for instr in fb.body:
                if isinstance(instr, _PendingCall):
                    body.append(Instr("call", resolve(instr.target)))
                else:
                    body.append(instr)
            module.functions.append(Function(type_index, list(fb.locals), body))
        if self._memory_pages is not None:
            module.memories.append(
                MemoryType(Limits(self._memory_pages, self._memory_max)))
        for valtype, mutable, init in self._globals:
            module.globals.append(Global(GlobalType(valtype, mutable), [init]))
        for name, kind, target in self._exports:
            index = resolve(target) if kind == "func" else int(target)
            module.exports.append(Export(name, kind, index))
        if self._table_entries:
            size = max(self._table_entries) + 1
            module.tables.append(TableType(Limits(size, size)))
            # One element segment per contiguous run.
            slots = sorted(self._table_entries)
            run_start = slots[0]
            run: list[int] = []
            prev = None
            for slot in slots:
                if prev is not None and slot != prev + 1:
                    module.elements.append(
                        Element(0, [Instr("i32.const", run_start)], run))
                    run_start, run = slot, []
                run.append(resolve(self._table_entries[slot]))
                prev = slot
            module.elements.append(
                Element(0, [Instr("i32.const", run_start)], run))
        for offset, data in self._data:
            module.data_segments.append(
                DataSegment(0, [Instr("i32.const", offset)], data))
        if self._start is not None:
            module.start = resolve(self._start)
        return module

    def build_bytes(self) -> bytes:
        return encode_module(self.build())
