"""Fig 22: compressed memory hierarchy (VSC+BDI LLC, LCP memory).

Paper anchors: without preprocessing, CMH yields no speedup on Push and
only ~11% on UB; with preprocessing it gains a little more (3%/28%) but
remains far below SpZip (1.5x/4.2x) — line-granular, access-pattern-blind
compression cannot exploit what SpZip's semantic compression does.
"""

from conftest import run_once

from repro.harness import EXPERIMENTS


def test_fig22_cmh_no_preprocessing(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["fig22"], runner)
    report(result)
    gmean = next(r for r in result.rows if r["app"] == "gmean")
    # CMH gives Push little to nothing.
    assert gmean["push+cmh"] < 1.35
    # UB+CMH is a modest win at best.
    assert gmean["ub+cmh"] < 1.5 * gmean["ub"]


def test_fig22_cmh_preprocessed(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["fig22-preprocessed"],
                      runner)
    report(result)
    gmean = next(r for r in result.rows if r["app"] == "gmean")
    assert gmean["push+cmh"] < 1.35


def test_cmh_far_below_spzip(benchmark, runner):
    """The section's headline comparison, on one representative app."""

    def measure():
        push = runner.run("pr", "push", "ukl", "dfs")
        cmh = runner.run("pr", "push+cmh", "ukl", "dfs")
        spzip = runner.run("pr", "push+spzip", "ukl", "dfs")
        return (cmh.speedup_over(push), spzip.speedup_over(push))

    cmh_speedup, spzip_speedup = run_once(benchmark, measure)
    assert spzip_speedup > 1.2 * cmh_speedup
