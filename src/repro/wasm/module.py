"""The in-memory model of a WebAssembly module.

Function bodies are flat instruction lists (the binary layout), with
``block``/``loop``/``if``/``else``/``end`` markers kept inline; the
interpreter and instrumenter build side tables over them as needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .opcodes import Instr
from .types import FuncType, GlobalType, Limits, MemoryType, TableType, ValType

__all__ = ["Module", "Import", "Export", "Function", "Global", "Element",
           "DataSegment", "PAGE_SIZE"]

PAGE_SIZE = 65536


@dataclass
class Import:
    """An import entry.  ``kind`` in {"func", "table", "memory", "global"};
    ``desc`` is a type index (func) or a *Type dataclass."""

    module: str
    name: str
    kind: str
    desc: object


@dataclass
class Export:
    name: str
    kind: str
    index: int


@dataclass
class Function:
    """A locally defined function: its type index, extra local variable
    declarations, and the body instruction list (without trailing end).

    ``hook_idioms`` maps the start pc of each hook idiom the
    instrumenter wrote into the body to its operand count; the
    translator runs exactly those idioms as one step each.  It is not
    part of the binary, so a parsed or built function has none and runs
    one step per instruction, and equality ignores it."""

    type_index: int
    locals: list[ValType] = field(default_factory=list)
    body: list[Instr] = field(default_factory=list)
    hook_idioms: dict[int, int] = field(default_factory=dict, compare=False,
                                        repr=False)


@dataclass
class Global:
    type: GlobalType
    init: list[Instr] = field(default_factory=list)


@dataclass
class Element:
    """An active element segment populating the funcref table."""

    table_index: int
    offset: list[Instr]
    func_indices: list[int]


@dataclass
class DataSegment:
    memory_index: int
    offset: list[Instr]
    data: bytes


@dataclass
class Module:
    types: list[FuncType] = field(default_factory=list)
    imports: list[Import] = field(default_factory=list)
    functions: list[Function] = field(default_factory=list)
    tables: list[TableType] = field(default_factory=list)
    memories: list[MemoryType] = field(default_factory=list)
    globals: list[Global] = field(default_factory=list)
    exports: list[Export] = field(default_factory=list)
    start: int | None = None
    elements: list[Element] = field(default_factory=list)
    data_segments: list[DataSegment] = field(default_factory=list)

    # -- index-space helpers (imports precede local definitions) ---------
    # The function-index space is consulted on every ``call`` the
    # interpreter executes, so the import scan is memoised.  The memo
    # is keyed on ``len(self.imports)``: the builders only ever append
    # imports while a module is under construction, so a stale entry
    # is invalidated by the very mutation that would make it wrong.
    def imported_functions(self) -> list[Import]:
        cached = getattr(self, "_imported_funcs_memo", None)
        if cached is not None and cached[0] == len(self.imports):
            return cached[1]
        imported = [imp for imp in self.imports if imp.kind == "func"]
        self._imported_funcs_memo = (len(self.imports), imported)
        return imported

    @property
    def num_imported_functions(self) -> int:
        return len(self.imported_functions())

    def function_type(self, func_index: int) -> FuncType:
        """Resolve a function index (imports first) to its signature."""
        imported = self.imported_functions()
        if func_index < len(imported):
            return self.types[imported[func_index].desc]
        local = self.functions[func_index - len(imported)]
        return self.types[local.type_index]

    def local_function(self, func_index: int) -> Function:
        offset = self.num_imported_functions
        if func_index < offset:
            raise IndexError(f"function {func_index} is imported")
        return self.functions[func_index - offset]

    def is_imported_function(self, func_index: int) -> bool:
        return func_index < self.num_imported_functions

    def add_type(self, func_type: FuncType) -> int:
        """Intern a function type, returning its index."""
        for i, existing in enumerate(self.types):
            if existing == func_type:
                return i
        self.types.append(func_type)
        return len(self.types) - 1

    def export_index(self, name: str, kind: str = "func") -> int | None:
        for export in self.exports:
            if export.name == name and export.kind == kind:
                return export.index
        return None
