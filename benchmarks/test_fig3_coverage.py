"""Figure 3 (RQ1): branch coverage of WASAI vs EOSFuzzer over time.

Reproduces the coverage-vs-time series on real-world-like contracts.
Expected shape (§4.1): EOSFuzzer leads during the first seconds while
WASAI pays for SMT solving; WASAI crosses over shortly after (paper:
~10 s) and finishes with roughly 2x the distinct branches.
"""

import numpy as np
import pytest

from repro import build_rq1_contracts, run_eosfuzzer, run_wasai
from .conftest import env_int

TIMEOUT_MS = 300_000.0  # the paper's five-minute campaigns
GRID = np.concatenate([np.arange(0.0, 30_001.0, 2_000.0),
                       np.arange(40_000.0, TIMEOUT_MS + 1, 20_000.0)])


def coverage_series(contracts, runner):
    """Cumulative distinct branches over all contracts at each grid
    point (the Figure 3 y-axis)."""
    total = np.zeros(len(GRID))
    for index, generated in enumerate(contracts):
        run = runner(generated.module, generated.abi,
                     timeout_ms=TIMEOUT_MS, rng_seed=100 + index)
        values = np.zeros(len(GRID))
        for time_ms, count in run.report.coverage_timeline:
            values[GRID >= time_ms] = count
        total += values
    return total


@pytest.fixture(scope="module")
def contracts():
    return build_rq1_contracts(count=env_int("REPRO_FIG3_CONTRACTS", 12),
                               seed=41)


@pytest.fixture(scope="module")
def series(contracts):
    wasai = coverage_series(contracts, run_wasai)
    eosfuzzer = coverage_series(contracts, run_eosfuzzer)
    return wasai, eosfuzzer


def test_fig3_series(benchmark, contracts, series):
    wasai, eosfuzzer = series
    # Benchmark one WASAI campaign (the unit of Figure 3's cost).
    generated = contracts[0]
    benchmark.pedantic(
        lambda: run_wasai(generated.module, generated.abi,
                          timeout_ms=TIMEOUT_MS, rng_seed=100),
        rounds=1, iterations=1)
    print("\nFigure 3: cumulative distinct branches "
          f"({len(contracts)} contracts, 300 virtual seconds)")
    print(f"{'t (s)':>8} {'WASAI':>10} {'EOSFuzzer':>10}")
    for i in range(len(GRID)):
        print(f"{GRID[i] / 1000:8.0f} {wasai[i]:10.0f} "
              f"{eosfuzzer[i]:10.0f}")
    ratio = wasai[-1] / max(eosfuzzer[-1], 1)
    print(f"final coverage ratio: {ratio:.2f}x (paper: ~2x)")
    assert ratio >= 1.5, f"coverage advantage collapsed: {ratio:.2f}x"
    crossover = next((GRID[i] for i in range(len(GRID))
                      if wasai[i] > eosfuzzer[i]), None)
    assert crossover is not None and crossover <= 30_000


def test_fig3_eosfuzzer_leads_early(series):
    wasai, eosfuzzer = series
    early = GRID <= 2_000
    assert eosfuzzer[early][-1] >= wasai[early][-1], (
        "EOSFuzzer should lead while WASAI pays solver time up front")


def test_fig3_wasai_overtakes(series):
    wasai, eosfuzzer = series
    crossover = None
    for i in range(len(GRID)):
        if wasai[i] > eosfuzzer[i]:
            crossover = GRID[i]
            break
    assert crossover is not None, "WASAI never overtook EOSFuzzer"
    assert crossover <= 30_000, f"crossover too late: {crossover} ms"


def test_fig3_final_ratio_near_2x(series):
    wasai, eosfuzzer = series
    ratio = wasai[-1] / max(eosfuzzer[-1], 1)
    assert ratio >= 1.5, f"coverage advantage collapsed: {ratio:.2f}x"
