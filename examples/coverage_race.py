#!/usr/bin/env python3
"""Coverage race: WASAI vs EOSFuzzer (a miniature Figure 3).

Fuzzes a handful of branch-heavy contracts with both tools under the
same deterministic virtual clock and prints the cumulative
distinct-branch series: EOSFuzzer leads for a moment while WASAI pays
for constraint solving, then WASAI pulls away to roughly double
coverage.

Run:  python examples/coverage_race.py
"""

from repro import build_rq1_contracts, run_eosfuzzer, run_wasai

CONTRACTS = 6
TIMEOUT_MS = 120_000.0
GRID = [0.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0, 15_000.0, 30_000.0,
        60_000.0, 120_000.0]


def series(runner, contracts):
    total = [0.0] * len(GRID)
    for index, generated in enumerate(contracts):
        run = runner(generated.module, generated.abi,
                     timeout_ms=TIMEOUT_MS, rng_seed=500 + index)
        values = [0.0] * len(GRID)
        for time_ms, count in run.report.coverage_timeline:
            for i, t in enumerate(GRID):
                if t >= time_ms:
                    values[i] = count
        total = [a + b for a, b in zip(total, values)]
    return total


def main() -> None:
    contracts = build_rq1_contracts(count=CONTRACTS, seed=99)
    print(f"racing on {CONTRACTS} branch-heavy contracts "
          f"({TIMEOUT_MS / 1000:.0f} virtual seconds each)...\n")
    wasai = series(run_wasai, contracts)
    eosfuzzer = series(run_eosfuzzer, contracts)

    width = 46
    peak = max(*wasai, *eosfuzzer, 1.0)
    print(f"{'t':>7}  {'WASAI':>6} {'EOSFzr':>6}   cumulative distinct branches")
    for i, t in enumerate(GRID):
        bar_w = "#" * round(width * wasai[i] / peak)
        bar_e = "-" * round(width * eosfuzzer[i] / peak)
        print(f"{t / 1000:6.0f}s  {wasai[i]:6.0f} {eosfuzzer[i]:6.0f}   "
              f"W|{bar_w}")
        print(f"{'':7}  {'':6} {'':6}   E|{bar_e}")
    ratio = wasai[-1] / max(eosfuzzer[-1], 1)
    print(f"\nfinal coverage ratio: {ratio:.2f}x (the paper reports ~2x)")


if __name__ == "__main__":
    main()
