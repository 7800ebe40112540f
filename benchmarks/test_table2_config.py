"""Table II: the simulated system configuration."""

from conftest import run_once

from repro.harness import EXPERIMENTS


def test_table2_config(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["table2"], runner)
    report(result)
    values = {row["component"]: row["value"] for row in result.rows}
    assert "16 cores" in values["Cores"]
    assert "3.5 GHz" in values["Cores"]
    assert "32 MB" in values["L3 cache"]
    assert "DRRIP" in values["L3 cache"]
    assert "51.2 GB/s" in values["Memory"]
    assert "4x4" in values["Global NoC"]
    assert "2048 B scratchpad" in values["SpZip engines"]
