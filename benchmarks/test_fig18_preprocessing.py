"""Fig 18: impact of the preprocessing algorithm on compression.

Paper anchors (uk-2005, averaged over graph apps): without compression
the four preprocessings achieve similar traffic; with compression,
topological orders (BFS/DFS) and GOrder pull ahead of degree sorting,
because they improve the adjacency matrix's value locality (compression
ratios ~2.3-2.4x vs ~1.4x for DegreeSort); DFS nearly matches the
heavyweight GOrder.
"""

from conftest import run_once

from repro.harness import EXPERIMENTS


def test_fig18_preprocessing(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["fig18"], runner)
    report(result)
    total = {(r["preprocessing"], r["scheme"]): r["total"]
             for r in result.rows}
    adj_ratio = {r["preprocessing"]: r.get("adj_compression")
                 for r in result.rows if "adj_compression" in r}
    # Compression (PHI+SpZip) reduces traffic under every preprocessing.
    for pp in ("none", "degree", "bfs", "dfs", "gorder"):
        assert total[(pp, "phi+spzip")] < total[(pp, "phi")]
    # Topological orders compress the adjacency better than DegreeSort.
    assert adj_ratio["bfs"] > adj_ratio["degree"]
    assert adj_ratio["dfs"] > adj_ratio["degree"]
    # DFS nearly matches the heavyweight GOrder (within 20%).
    assert adj_ratio["dfs"] > 0.8 * adj_ratio["gorder"]
    # Randomized ids compress worst.
    assert adj_ratio["none"] == min(adj_ratio.values())
