"""Fig 21: sensitivity to the fetcher scratchpad (queue) size.

Paper anchors: going 1 KB -> 2 KB improves CC on uk-2005 by 2.6% (no
preprocessing) / 10% (DFS); 4 KB adds almost nothing — 2 KB already
provides enough decoupling.  This experiment exercises the *functional*
fetcher model, where queue depth directly limits how far the access unit
can run ahead.
"""

from conftest import run_once

from repro.harness import EXPERIMENTS


def test_fig21_scratchpad(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["fig21"], runner)
    report(result)
    for row in result.rows:
        # 1 KB is slower than the 2 KB default...
        assert row["1KB"] <= 1.0
        # ...and 4 KB brings little further benefit (<15%).
        assert row["4KB"] <= 1.15
        assert row["4KB"] >= 0.95
