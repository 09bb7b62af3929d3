"""Shared fixtures for the fault-injection suite.

Every test runs with a clean fault plan and scope; whatever a test
installs is torn down afterwards so faults can never leak into
unrelated tests (or into a worker pool spawned later).
"""

import pytest

from repro.resilience import clear_fault_plan, set_fault_scope
from repro.smt import configure_solver_cache


@pytest.fixture(autouse=True)
def clean_fault_state():
    clear_fault_plan()
    set_fault_scope("")
    yield
    clear_fault_plan()
    set_fault_scope("")


@pytest.fixture(autouse=True)
def fresh_caches():
    configure_solver_cache(enabled=True)
    yield
    configure_solver_cache(enabled=True)
