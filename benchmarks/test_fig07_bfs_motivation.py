"""Fig 7: BFS on uk-2005 — per-scheme performance and traffic breakdown.

Paper anchors (no preprocessing): destination-vertex scatter consumes
over 80% of Push's traffic; Push+SpZip is ~1.7x faster with nearly the
same traffic (compression ineffective on scattered data); UB cuts traffic
and UB+SpZip compresses the now-sequential updates; PHI+SpZip is fastest.
"""

from conftest import run_once

from repro.harness import EXPERIMENTS


def test_fig07_bfs_motivation(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["fig07"], runner)
    report(result)
    by_scheme = {row["scheme"]: row for row in result.rows}
    # Scatter updates dominate Push's traffic.
    assert by_scheme["push"]["destination_vertex"] > 0.5
    # Push+SpZip accelerates mainly via offload, not compression.
    assert by_scheme["push+spzip"]["speedup"] > 1.3
    assert by_scheme["push+spzip"]["traffic"] > 0.75
    # UB turns scatter into streaming updates...
    assert by_scheme["ub"]["updates"] > by_scheme["ub"][
        "destination_vertex"]
    # ...which SpZip then compresses well.
    assert by_scheme["ub+spzip"]["traffic"] < 0.7 * by_scheme["ub"][
        "traffic"]
    # PHI+SpZip is the fastest configuration.
    fastest = max(result.rows, key=lambda r: r["speedup"])
    assert fastest["scheme"] == "phi+spzip"
