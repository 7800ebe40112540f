"""Tests for the Pull execution-style extension (paper Sec II-C)."""

import pytest

from repro.schemes import scheme_names
from repro.sim import Runner


@pytest.fixture(scope="module")
def runner():
    return Runner(scale=16384)


class TestPullScheme:
    def test_extra_schemes_exported(self):
        assert scheme_names("extensions") == ("pull", "pull+spzip")

    def test_pull_runs_on_all_active_apps(self, runner):
        run = runner.run("pr", "pull", "ukl", "none")
        assert run.total_traffic > 0
        assert run.scheme == "pull"

    def test_pull_avoids_update_traffic(self, runner):
        """Pull gathers; it never produces binned updates."""
        run = runner.run("pr", "pull", "ukl", "none")
        assert run.traffic["updates"] == 0

    def test_pull_writes_destinations_once(self, runner):
        """Sequential single write pass over the destination array."""
        pull = runner.run("pr", "pull", "ukl", "none")
        push = runner.run("pr", "push", "ukl", "none")
        assert pull.traffic["destination_vertex"] < \
            push.traffic["destination_vertex"]

    def test_pull_beats_push_without_atomics(self, runner):
        """No atomic RMWs: Pull's core cost per edge is lower."""
        pull = runner.run("pr", "pull", "ukl", "none")
        push = runner.run("pr", "push", "ukl", "none")
        assert pull.speedup_over(push) > 1.0

    def test_pull_spzip_compresses_incoming_adjacency(self, runner):
        plain = runner.run("pr", "pull", "ukl", "dfs")
        spzip = runner.run("pr", "pull+spzip", "ukl", "dfs")
        assert spzip.traffic["adjacency"] < plain.traffic["adjacency"]
        assert spzip.speedup_over(plain) > 1.0

    def test_sparse_frontier_falls_back_to_push(self, runner):
        """Direction optimization: BFS's sparse frontiers use Push, so
        pull == push-like traffic there."""
        pull = runner.run("bfs", "pull", "ukl", "none")
        push = runner.run("bfs", "push", "ukl", "none")
        # Same destination scatter profile on frontier iterations.
        assert pull.traffic["destination_vertex"] == pytest.approx(
            push.traffic["destination_vertex"], rel=0.25)

    def test_gather_misses_drop_with_preprocessing(self, runner):
        none = runner.run("pr", "pull", "ukl", "none")
        dfs = runner.run("pr", "pull", "ukl", "dfs")
        assert dfs.traffic["source_vertex"] <= \
            none.traffic["source_vertex"] * 1.05
