"""Contract-level bytecode instrumentation (challenge C1, §3.3.1).

``instrument_module`` rewrites a Wasm module so that every reachable
instruction is preceded by a hook call that duplicates its runtime
operands (spilled through fresh scratch locals), and function bodies
are bracketed with ``begin_function``/``end_function`` labels.  Calls
additionally get a ``post`` hook capturing their return values — the
five invocation hooks of the paper's Table 1.

Every hook firing is written as one idiom: k ``local.set`` spills of
its operands, ``i32.const`` of the site id (of the function index, for
a label), k ``local.get`` loads, the ``call`` to the hook import and k
``local.get`` reloads.  Each instrumented function records the start
pc and k of every idiom it holds in ``Function.hook_idioms``, and the
translator (:mod:`repro.wasm.translate`) runs exactly those idioms as
one step each.

Each body is rewritten in one pass.  Hooks are imported after the
module's own imports, in first-use order, so a hook call is written
with its final import index when the hook is first used, and one
``call`` instruction per hook import serves every site.  Likewise one
``local.set k`` and one ``local.get k`` per scratch slot serve every
spill, load and reload of the module: an ``Instr`` is never mutated,
so the rewrite shares them.  Only the original calls to local
functions are patched afterwards, once the number of hook imports
they shift past is known.

The rewrite is purely contract-level: the virtual machine is left
untouched, which is exactly the property the paper claims makes WASAI
portable across Wasm blockchains.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..wasm.module import (DataSegment, Element, Export, Function, Import,
                           Module)
from ..wasm.opcodes import Instr
from ..wasm.types import ValType
from ..wasm.validation import type_function
from .hooks import (BEGIN_FUNCTION, END_FUNCTION, HOOK_MODULE,
                    hook_func_type, post_hook_name, trace_hook_name)

__all__ = ["Site", "SiteTable", "instrument_module"]


@dataclass(frozen=True)
class Site:
    """One instrumentation site in the *original* module.

    ``func_index`` is the original function index (import space) and
    ``pc`` the instruction offset inside that function's body.
    ``kind`` is "instr" or "post".
    """

    kind: str
    func_index: int
    pc: int
    instr: Instr


class SiteTable:
    """Maps hook site ids back to original-module instructions."""

    def __init__(self) -> None:
        self.sites: list[Site] = []

    def add(self, site: Site) -> int:
        self.sites.append(site)
        return len(self.sites) - 1

    def __getitem__(self, site_id: int) -> Site:
        return self.sites[site_id]

    def __len__(self) -> int:
        return len(self.sites)


def instrument_module(module: Module) -> tuple[Module, SiteTable]:
    """Return an instrumented copy of ``module`` plus its site table.

    The input module is not mutated.  Hook imports are appended after
    the existing imports; all function references are shifted
    accordingly.
    """
    import_count = module.num_imported_functions
    site_table = SiteTable()
    hook_calls: dict[str, Instr] = {}

    def hook_call(name: str) -> Instr:
        """The one ``call`` of hook ``name``, imported on first use."""
        call = hook_calls.get(name)
        if call is None:
            call = hook_calls[name] = Instr("call",
                                            import_count + len(hook_calls))
        return call

    scratch_instrs: dict[tuple[str, int], Instr] = {}

    def scratch_instr(op: str, slot: int) -> Instr:
        """The one ``local.set``/``local.get`` of scratch local ``slot``."""
        instr = scratch_instrs.get((op, slot))
        if instr is None:
            instr = scratch_instrs[op, slot] = Instr(op, slot)
        return instr

    if module.functions:
        # Every body opens and closes with a label, so the two label
        # hooks take the first two hook indices.
        hook_call(BEGIN_FUNCTION)
        hook_call(END_FUNCTION)
    local_calls: list[tuple[list[Instr], int]] = []
    functions = [
        _instrument_function(module, func, import_count + local_index,
                             site_table, hook_call, scratch_instr,
                             local_calls)
        for local_index, func in enumerate(module.functions)]
    shift = len(hook_calls)
    for body, pc in local_calls:
        body[pc] = Instr("call", body[pc].args[0] + shift)

    def remap(func_index: int) -> int:
        return func_index + shift if func_index >= import_count else func_index

    out = Module()
    out.types = list(module.types)
    out.imports = list(module.imports)
    for name in hook_calls:
        type_index = out.add_type(hook_func_type(name))
        out.imports.append(Import(HOOK_MODULE, name, "func", type_index))
    out.functions = functions
    out.tables = list(module.tables)
    out.memories = list(module.memories)
    out.globals = list(module.globals)
    out.exports = [Export(e.name, e.kind,
                          remap(e.index) if e.kind == "func" else e.index)
                   for e in module.exports]
    out.start = remap(module.start) if module.start is not None else None
    out.elements = [Element(e.table_index, list(e.offset),
                            [remap(i) for i in e.func_indices])
                    for e in module.elements]
    out.data_segments = [DataSegment(d.memory_index, list(d.offset), d.data)
                         for d in module.data_segments]
    return out, site_table


def _instrument_function(module: Module, func: Function, func_index: int,
                         site_table: SiteTable, hook_call, scratch_instr,
                         local_calls: list) -> Function:
    """The instrumented copy of ``func``.  Each original call to a
    local function is noted in ``local_calls`` as (new body, pc), for
    the caller to patch."""
    import_count = module.num_imported_functions
    param_count = len(module.types[func.type_index].params)
    new_locals = list(func.locals)
    scratch: dict[str, list[int]] = {}
    body: list[Instr] = []
    idioms: dict[int, int] = {}

    def scratch_locals(types: list[ValType]) -> list[int]:
        """Get per-type scratch local indices for a spill of ``types``."""
        used: dict[str, int] = {}
        indices = []
        for valtype in types:
            pool = scratch.setdefault(valtype.name, [])
            position = used.get(valtype.name, 0)
            while len(pool) <= position:
                pool.append(param_count + len(new_locals))
                new_locals.append(valtype)
            indices.append(pool[position])
            used[valtype.name] = position + 1
        return indices

    def emit(hook_name: str, value: int, types: list[ValType]) -> None:
        """Write one hook idiom: spill operands of ``types`` off the
        stack, pass ``value`` and them to the hook, then reload them."""
        slots = scratch_locals(types)
        idioms[len(body)] = len(slots)
        # The stack top is the last operand, so spill in reverse.
        body.extend(scratch_instr("local.set", slot)
                    for slot in reversed(slots))
        body.append(Instr("i32.const", _as_s32(value)))
        loads = [scratch_instr("local.get", slot) for slot in slots]
        body.extend(loads)
        body.append(hook_call(hook_name))
        body.extend(loads)

    emit(BEGIN_FUNCTION, func_index, [])
    for pc, (instr, typing) in enumerate(zip(func.body,
                                             type_function(module, func))):
        post = False
        if not typing.reachable or instr.op in ("end", "else"):
            pass  # dead code never fires hooks; end/else are pure markers
        elif instr.op == "return":
            emit(END_FUNCTION, func_index, [])
        elif all(isinstance(t, ValType) for t in typing.pops):
            # (An operand of unknown type is polymorphic: no hook.)
            site_id = site_table.add(Site("instr", func_index, pc, instr))
            emit(trace_hook_name(typing.pops), site_id, typing.pops)
            post = instr.op in ("call", "call_indirect")
        if instr.op == "call" and instr.args[0] >= import_count:
            local_calls.append((body, len(body)))
        body.append(instr)
        if post:
            # Post hook after calls: duplicate the returned values.
            site_id = site_table.add(Site("post", func_index, pc, instr))
            emit(post_hook_name(typing.pushes), site_id, typing.pushes)
    emit(END_FUNCTION, func_index, [])
    return Function(func.type_index, new_locals, body, hook_idioms=idioms)


def _as_s32(value: int) -> int:
    """Encode an unsigned id as the signed immediate i32.const wants."""
    return value - (1 << 32) if value >= 1 << 31 else value
