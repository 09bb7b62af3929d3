"""repro.engine — the fuzzing skeleton (Algorithm 1)."""

from .clock import CostModel, VirtualClock
from .dbg import DatabaseDependencyGraph
from .deploy import (FuzzTarget, Instrumentation,
                     configure_instrumentation_cache, deploy_target,
                     deploy_untrusted_target, module_content_hash,
                     setup_chain)
from .fuzzer import FuzzReport, Observation, WasaiFuzzer
from .seedpool import SeedPool
from .seeds import Seed, random_seed, random_value

__all__ = [
    "CostModel", "VirtualClock", "DatabaseDependencyGraph", "FuzzTarget",
    "deploy_target", "deploy_untrusted_target", "setup_chain",
    "FuzzReport", "Observation",
    "WasaiFuzzer", "SeedPool", "Seed", "random_seed", "random_value",
    "Instrumentation", "configure_instrumentation_cache",
    "module_content_hash",
]
