"""Low-level hook definitions (§3.3.1, Table 1).

Hooks are function imports under the ``wasabi`` module namespace that
the instrumented bytecode calls with duplicated runtime operands.  Each
distinct operand-type tuple gets its own import (the generalisation of
the paper's ``logi``/``logsf``/``logdf`` Nodeos extensions, which the
chain binds to the per-action trace buffer).

Hook kinds:

* ``trace[_t1[_t2[_t3]]]`` — fired *before* an instruction, carrying the
  site id and the instruction's operands (this subsumes the paper's
  ``call_pre``: for ``call``/``call_indirect`` the operands are the
  invocation arguments).
* ``post[_t1...]`` — fired *after* a call returns, carrying the returned
  values (the paper's ``call_post``).
* ``begin_function`` / ``end_function`` — function-body labels.

A hook firing is recorded as one :class:`HookEvent`.  The chain's hook
sink resolves each import's event shape once, when it binds the import
(:func:`hook_event_builder`), so a trace is recorded already decoded:
there is no raw ``(hook_name, args)`` form to decode afterwards.
"""

from __future__ import annotations

from ..wasm.types import F32, F64, FuncType, I32, I64, ValType

__all__ = ["HOOK_MODULE", "trace_hook_name", "post_hook_name",
           "BEGIN_FUNCTION", "END_FUNCTION", "hook_func_type",
           "parse_hook_name", "hook_event_builder", "HookEvent"]

HOOK_MODULE = "wasabi"
BEGIN_FUNCTION = "begin_function"
END_FUNCTION = "end_function"

_SUFFIX = {"i32": I32, "i64": I64, "f32": F32, "f64": F64}


def trace_hook_name(operand_types: list[ValType]) -> str:
    if not operand_types:
        return "trace"
    return "trace_" + "_".join(t.name for t in operand_types)


def post_hook_name(result_types: list[ValType]) -> str:
    if not result_types:
        return "post"
    return "post_" + "_".join(t.name for t in result_types)


def hook_func_type(hook_name: str) -> FuncType:
    """The Wasm signature of a hook import."""
    if hook_name in (BEGIN_FUNCTION, END_FUNCTION):
        return FuncType((I32,), ())
    kind, types = parse_hook_name(hook_name)
    return FuncType((I32, *types), ())


# Each deployment parses each of its hook names; there are only a
# handful of distinct names, so the parse is memoised.
_PARSE_MEMO: dict[str, tuple[str, tuple[ValType, ...]]] = {}


def parse_hook_name(hook_name: str) -> tuple[str, tuple[ValType, ...]]:
    """Split ``"trace_i32_i64"`` into ("trace", (I32, I64))."""
    cached = _PARSE_MEMO.get(hook_name)
    if cached is not None:
        return cached
    if hook_name in (BEGIN_FUNCTION, END_FUNCTION):
        parsed = (hook_name, ())
    else:
        parts = hook_name.split("_")
        kind = parts[0]
        if kind not in ("trace", "post"):
            raise ValueError(f"unknown hook {hook_name!r}")
        parsed = (kind, tuple(_SUFFIX[p] for p in parts[1:]))
    _PARSE_MEMO[hook_name] = parsed
    return parsed


def hook_event_builder(hook_name: str):
    """The function from one firing's ``args`` (``[site or function id,
    *operands]``) to its :class:`HookEvent`, with the event kind
    resolved here, once per hook import, instead of per event."""
    if hook_name in (BEGIN_FUNCTION, END_FUNCTION):
        label = "begin" if hook_name == BEGIN_FUNCTION else "end"
        return lambda args: HookEvent(label, None, args[0], ())
    kind, _ = parse_hook_name(hook_name)
    label = "instr" if kind == "trace" else "post"
    return lambda args: HookEvent(label, args[0], None, tuple(args[1:]))


class HookEvent:
    """A decoded trace event: one hook firing.

    ``kind`` is "instr" (pre-instruction trace), "post" (call return),
    "begin" or "end".  For "instr"/"post", ``site_id`` indexes the
    instrumentation site table; for "begin"/"end" ``func_id`` is the
    original function index.  Events compare (and hash) by value.
    """

    __slots__ = ("kind", "site_id", "func_id", "operands")

    def __init__(self, kind: str, site_id: int | None,
                 func_id: int | None, operands: tuple):
        self.kind = kind
        self.site_id = site_id
        self.func_id = func_id
        self.operands = operands

    def _key(self) -> tuple:
        return (self.kind, self.site_id, self.func_id, self.operands)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HookEvent):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        target = self.site_id if self.site_id is not None else self.func_id
        return f"HookEvent({self.kind}, {target}, {self.operands})"
