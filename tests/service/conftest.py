"""Shared fixtures for the scan-service suite.

Fault plans and scopes are process-global; every test starts and ends
clean so an injected fault can never leak into another test (or into
a daemon thread that outlives its test).  Contract fixtures are tiny
benchgen modules with a short virtual budget, so whole-service tests
stay fast.
"""

import pytest

from repro.benchgen import ContractConfig, generate_contract
from repro.resilience import clear_fault_plan, set_fault_scope
from repro.wasm import encode_module

# A small real budget keeps one campaign well under a second while
# still exercising the full concolic pipeline (and reliably covering
# the fake-EOS finding the HTTP tests assert on).
FAST_TIMEOUT_MS = 4_000.0


@pytest.fixture(autouse=True)
def clean_fault_state():
    clear_fault_plan()
    set_fault_scope("")
    yield
    clear_fault_plan()
    set_fault_scope("")


def contract_bytes(seed: int = 0) -> tuple[bytes, str]:
    """(wasm bytes, abi json) for one vulnerable contract; different
    ``seed`` values yield structurally distinct modules (the benchgen
    seed alone does not perturb the emitted bytes, maze depth does)."""
    generated = generate_contract(
        ContractConfig(seed=seed, fake_eos_guard=False,
                       maze_depth=2 + seed))
    return encode_module(generated.module), generated.abi.to_json()


@pytest.fixture(scope="session")
def sample_contract() -> tuple[bytes, str]:
    return contract_bytes(seed=0)


@pytest.fixture
def fast_config() -> dict:
    return {"timeout_ms": FAST_TIMEOUT_MS}
