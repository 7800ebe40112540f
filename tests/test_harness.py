"""Tests for the experiment harness (registry + rendering).

These run the registry's experiments at a tiny scale — they validate the
harness machinery and the result *structure*; the paper-anchor
assertions on full-scale numbers live in ``benchmarks/``.
"""

import os

import pytest

from repro.harness import (
    EXPERIMENTS,
    ExperimentResult,
    render_table,
    save_table,
)
from repro.harness.experiments import fig21_scratchpad
from repro.jobs import JobRunner

TINY = 131072


@pytest.fixture(scope="module")
def runner():
    return JobRunner(scale=TINY)


class TestRegistry:
    def test_every_figure_and_table_registered(self):
        expected = {"fig07", "fig08", "fig15a", "fig15b", "fig15c",
                    "fig15d", "fig16", "fig17", "fig18", "fig19",
                    "fig19-preprocessed", "fig20", "fig21", "fig22",
                    "fig22-preprocessed", "sorting", "table1", "table2",
                    "table3"}
        assert set(EXPERIMENTS) == expected

    def test_tables_run_without_runner_state(self):
        runner = JobRunner(scale=TINY)
        for experiment_id in ("table1", "table2"):
            result = EXPERIMENTS[experiment_id](runner)
            assert isinstance(result, ExperimentResult)
            assert result.rows
        assert not runner._results


class TestResultStructure:
    def test_fig07_rows_cover_all_schemes(self, runner):
        result = EXPERIMENTS["fig07"](runner)
        assert [r["scheme"] for r in result.rows] == [
            "push", "push+spzip", "ub", "ub+spzip", "phi", "phi+spzip"]
        push = result.rows[0]
        assert push["speedup"] == pytest.approx(1.0)
        assert push["traffic"] == pytest.approx(1.0)

    def test_fig15_speedups_have_gmean_row(self, runner):
        result = EXPERIMENTS["fig15a"](runner)
        apps = [r["app"] for r in result.rows]
        assert apps[-1] == "gmean"
        assert set(apps[:-1]) == {"pr", "prd", "cc", "re", "dc", "bfs",
                                  "sp"}

    def test_fig15_traffic_breakdown_sums(self, runner):
        result = EXPERIMENTS["fig15b"](runner)
        for row in result.rows:
            total = sum(row[c] for c in ("adjacency", "source_vertex",
                                         "destination_vertex",
                                         "updates"))
            assert row["total"] == pytest.approx(total)

    def test_fig19_columns(self, runner):
        result = EXPERIMENTS["fig19"](runner)
        assert result.columns == ["app", "phi", "+adjacency", "+bins",
                                  "+vertex"]
        for row in result.rows:
            assert row["phi"] == pytest.approx(1.0)

    def test_table3_lists_every_input(self, runner):
        result = EXPERIMENTS["table3"](runner)
        assert {r["graph"] for r in result.rows} == \
            {"arb", "ukl", "twi", "it", "web", "nlp"}

    def test_fig21_runs_functional_engine(self, runner):
        result = fig21_scratchpad(rows_to_walk=64)(runner)
        assert {r["graph"] for r in result.rows} == {"none", "dfs"}
        for row in result.rows:
            assert row["2KB"] == pytest.approx(1.0)

    def test_sorting_rows_per_input(self, runner):
        result = EXPERIMENTS["sorting"](runner)
        assert result.rows[-1]["input"] == "mean"
        assert len(result.rows) == 6  # 5 inputs + mean


class TestRendering:
    def test_render_contains_header_and_rows(self, runner):
        result = EXPERIMENTS["table2"](runner)
        text = render_table(result)
        assert text.startswith("== table2:")
        assert "component" in text
        assert "L3 cache" in text

    def test_render_formats_floats(self, runner):
        result = EXPERIMENTS["fig07"](runner)
        text = render_table(result)
        assert "1.00" in text

    def test_save_table_writes_file(self, runner, tmp_path):
        result = EXPERIMENTS["table1"](runner)
        path = save_table(result, str(tmp_path))
        assert os.path.exists(path)
        with open(path) as handle:
            assert "DecompU" in handle.read()

    def test_notes_rendered(self, runner):
        result = EXPERIMENTS["table1"](runner)
        assert "core overhead" in result.notes
        assert "note:" in render_table(result)

    def test_column_accessor(self, runner):
        result = EXPERIMENTS["fig07"](runner)
        speedups = result.column("speedup")
        assert len(speedups) == 6
