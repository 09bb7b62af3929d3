"""repro.instrument — Wasabi-style contract-level instrumentation.

Rewrites contract bytecode so every executed instruction emits a trace
through host-bound hooks (§3.3.1 / Table 1), without modifying the
virtual machine.
"""

from .hooks import (BEGIN_FUNCTION, END_FUNCTION, HOOK_MODULE, HookEvent,
                    hook_func_type, parse_hook_name, post_hook_name,
                    trace_hook_name)
from .instrumenter import Site, SiteTable, instrument_module
from .tracefile import (TraceStore, decode_raw_trace, read_trace_ir,
                        write_trace_ir)

__all__ = [
    "BEGIN_FUNCTION", "END_FUNCTION", "HOOK_MODULE", "HookEvent",
    "hook_func_type", "parse_hook_name", "post_hook_name",
    "trace_hook_name", "Site", "SiteTable", "instrument_module",
    "TraceStore", "decode_raw_trace", "write_trace_ir", "read_trace_ir",
]
