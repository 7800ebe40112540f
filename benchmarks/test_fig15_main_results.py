"""Fig 15: the main evaluation — all apps, all schemes, both variants.

Paper anchors (gmeans over Push):

* without preprocessing: Push+SpZip 1.6x, UB+SpZip 3.8x, PHI 4.1x,
  PHI+SpZip 6.1x; PHI+SpZip is consistently fastest; UB+SpZip is close
  to PHI without PHI's cache changes;
* with DFS preprocessing: UB drops *below* Push (gmean ~0.6x); SpZip
  still accelerates everything; PHI+SpZip ~5.9x;
* traffic: compression benefits all apps, most mutedly PR/PRD (floats).
"""

from conftest import run_once

from repro.harness import EXPERIMENTS


def test_fig15a_speedups_no_preprocessing(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["fig15a"], runner)
    report(result)
    gmean = next(r for r in result.rows if r["app"] == "gmean")
    # Orderings the paper calls out.
    assert gmean["phi+spzip"] == max(
        v for k, v in gmean.items() if k != "app")
    assert gmean["push+spzip"] > 1.2
    assert gmean["ub+spzip"] > gmean["ub"]
    assert gmean["phi"] > gmean["push+spzip"]
    # Rough factors (paper: 6.1x; shape tolerance ~2x).
    assert 3.0 < gmean["phi+spzip"] < 12.0
    # PHI+SpZip fastest on every app (paper: "consistently the fastest").
    for row in result.rows:
        values = {k: v for k, v in row.items() if k != "app"}
        assert values["phi+spzip"] == max(values.values())


def test_fig15b_traffic_no_preprocessing(runner, report, benchmark):
    result = run_once(benchmark, EXPERIMENTS["fig15b"], runner)
    report(result)
    rows = {(r["app"], r["scheme"]): r for r in result.rows}
    # Push+SpZip barely reduces traffic (compression ineffective on
    # scattered accesses) -- except SP, whose input is structured.
    for app in ("pr", "bfs", "cc"):
        assert rows[(app, "push+spzip")]["total"] > 0.75
    assert rows[("sp", "push+spzip")]["total"] < 0.75
    # SpZip reduces traffic substantially over UB and PHI.
    for app in ("pr", "dc", "bfs"):
        assert rows[(app, "ub+spzip")]["total"] < \
            0.8 * rows[(app, "ub")]["total"]
        assert rows[(app, "phi+spzip")]["total"] < \
            0.8 * rows[(app, "phi")]["total"]
    # DC compresses best (constant update payloads).
    assert rows[("dc", "phi+spzip")]["total"] < \
        rows[("pr", "phi+spzip")]["total"] * 1.2


def test_fig15c_speedups_dfs(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["fig15c"], runner)
    report(result)
    gmean = next(r for r in result.rows if r["app"] == "gmean")
    # Preprocessing flips UB below Push.
    assert gmean["ub"] < 1.05
    # SpZip still helps everything; PHI+SpZip fastest.
    assert gmean["push+spzip"] > 1.2
    assert gmean["ub+spzip"] > 1.5
    assert gmean["phi+spzip"] == max(
        v for k, v in gmean.items() if k != "app")
    assert 3.0 < gmean["phi+spzip"] < 12.0


def test_fig15d_traffic_dfs(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["fig15d"], runner)
    report(result)
    rows = {(r["app"], r["scheme"]): r for r in result.rows}
    # Preprocessed adjacency compresses well: Push+SpZip now reduces
    # total traffic (paper: 1.4x over Push).
    for app in ("pr", "cc", "bfs"):
        push = rows[(app, "push")]
        z = rows[(app, "push+spzip")]
        assert z["adjacency"] < 0.75 * push["adjacency"]
        assert z["total"] < 0.9 * push["total"]
    # UB now incurs much more traffic than Push (paper: 3.1x).
    for app in ("pr", "cc"):
        assert rows[(app, "ub")]["total"] > 1.5
