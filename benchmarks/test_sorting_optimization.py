"""Sec V-C: the order-insensitive sorting optimization on CC's UB bins.

Paper anchor: sorting binned updates improves CC's bin compression ratio
from 1.26x to 1.55x across inputs (similar trends on other apps).
"""

from conftest import run_once

from repro.harness import EXPERIMENTS


def test_sorting_optimization(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["sorting"], runner)
    report(result)
    mean = next(r for r in result.rows if r["input"] == "mean")
    # Sorting improves the mean ratio.
    assert mean["sorted_ratio"] > mean["unsorted_ratio"]
    # Both ratios show real compression.
    assert mean["unsorted_ratio"] > 1.1
    # Sorting never hurts on any single input (the runtime may keep the
    # unsorted orientation when it wins, so >= holds per input).
    for row in result.rows:
        assert row["sorted_ratio"] >= row["unsorted_ratio"] * 0.999
