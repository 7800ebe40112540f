"""Fig 8: the Fig 7 experiment under DFS preprocessing.

Paper anchors: preprocessing dramatically reduces Push's destination
traffic; UB becomes *worse* than Push (it streams updates regardless of
locality, ~3.1x Push's traffic); the adjacency matrix now dominates and
compresses well (~2.3x), so every +SpZip variant gains; PHI+SpZip stays
fastest.
"""

from conftest import run_once

from repro.harness import EXPERIMENTS


def test_fig08_bfs_preprocessed(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["fig08"], runner)
    report(result)
    by_scheme = {row["scheme"]: row for row in result.rows}
    # Preprocessing flips the Push-vs-UB tradeoff: UB is now slower...
    assert by_scheme["ub"]["speedup"] < 1.0
    # ...because it streams updates the locality would have absorbed.
    assert by_scheme["ub"]["traffic"] > 2.0
    # Adjacency dominates Push's traffic and compresses well.
    push = by_scheme["push"]
    assert push["adjacency"] > push["destination_vertex"]
    z = by_scheme["push+spzip"]
    assert z["adjacency"] < 0.6 * push["adjacency"]
    # PHI+SpZip remains fastest.
    fastest = max(result.rows, key=lambda r: r["speedup"])
    assert fastest["scheme"] == "phi+spzip"
