"""Table III: input datasets — paper shapes vs generated stand-ins."""

import pytest
from conftest import run_once

from repro.harness import EXPERIMENTS


def test_table3_datasets(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["table3"], runner)
    report(result)
    rows = {row["graph"]: row for row in result.rows}
    assert set(rows) == {"arb", "ukl", "twi", "it", "web", "nlp"}
    # Average degree is preserved through the scale-down.
    for name, row in rows.items():
        paper_degree = row["paper_edges_m"] / row["paper_vertices_m"]
        assert row["model_avg_degree"] == pytest.approx(paper_degree,
                                                        rel=0.2)
    # twi is the densest input, web the largest by vertices (as in
    # the paper).
    assert rows["web"]["model_vertices"] == max(
        r["model_vertices"] for r in rows.values())
