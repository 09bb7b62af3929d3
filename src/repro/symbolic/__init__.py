"""repro.symbolic — Symback, the EOSVM simulator for symbolic replay.

Implements the paper's §3.4: the concrete-address memory model (C2),
the calling-convention input inference (C3), trace simulation under
Table 3's operational semantics, and constraint flipping for adaptive
seed generation.
"""

from .calling import SeedLayout, SymbolicParam, scalar_width
from .flip import AdaptiveSeed, FlipQuery, flip_queries, solve_flips
from .machine import Frame, MachineState, as_term
from .memory import SymbolicLoad, SymbolicMemory
from .simulate import (BranchRecord, ReplayResult, branch_coverage_ids,
                       has_unexplored_flip, locate_action_call,
                       replay_action)

__all__ = [
    "SeedLayout", "SymbolicParam", "scalar_width", "AdaptiveSeed",
    "FlipQuery", "flip_queries", "solve_flips", "Frame", "MachineState",
    "as_term", "SymbolicLoad", "SymbolicMemory", "BranchRecord",
    "ReplayResult", "branch_coverage_ids", "has_unexplored_flip",
    "locate_action_call", "replay_action",
]
