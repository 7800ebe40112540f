"""Table I: area breakdown of the SpZip fetcher and compressor.

The analytical area model must reproduce the paper's synthesized numbers
at the default configuration, and the combined engines must stay ~0.2%
of a core.
"""

import pytest
from conftest import run_once

from repro.harness import EXPERIMENTS


def test_table1_area(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["table1"], runner)
    report(result)
    totals = {(row["engine"], row["component"]): row["area_um2"]
              for row in result.rows}
    assert totals[("fetcher", "Total")] == pytest.approx(47.3e3, rel=0.01)
    assert totals[("compressor", "Total")] == pytest.approx(45.5e3,
                                                            rel=0.01)
    assert totals[("fetcher", "DecompU")] == pytest.approx(22.5e3,
                                                           rel=0.01)
    assert "0.2" in result.notes
