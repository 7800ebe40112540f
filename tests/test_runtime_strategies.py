"""Tests for the execution-strategy models and the timing layer."""

import pytest

from repro.graph.datasets import load_preprocessed
from repro.jobs import JobRunner
from repro.schemes import SCHEME_COSTS
from repro.sim.runner import sized_model_config
from repro.sim.timing import (
    PhaseWork,
    SchemeCosts,
    effective_bytes_per_cycle,
    phase_cycles,
)
from repro.config import SystemConfig

TEST_SCALE = 16384  # small instances: fast but non-degenerate


@pytest.fixture(scope="module")
def runner():
    return JobRunner(scale=TEST_SCALE)


class TestTimingModel:
    def test_sequential_beats_random_bandwidth(self):
        system = SystemConfig()
        seq = effective_bytes_per_cycle(system, 1000, 0)
        rand = effective_bytes_per_cycle(system, 0, 1000)
        assert seq > rand
        assert seq == pytest.approx(system.bytes_per_cycle)

    def test_empty_traffic_uses_peak(self):
        system = SystemConfig()
        assert effective_bytes_per_cycle(system, 0, 0) == \
            system.bytes_per_cycle

    def test_phase_cycles_bottleneck(self):
        system = SystemConfig()
        costs = SchemeCosts(cycles_per_edge=1000.0, cycles_per_vertex=0,
                            stall_per_miss=0)
        work = PhaseWork(edges=16, seq_bytes=64)
        total, compute, memory = phase_cycles(work, costs, system)
        assert total == compute > memory

    def test_all_schemes_have_costs(self):
        for base in ["push", "ub", "phi", "pull"]:
            assert (base, None) in SCHEME_COSTS
            assert (base, "spzip") in SCHEME_COSTS

    def test_spzip_schemes_cost_less_per_edge(self):
        for base in ["push", "ub", "phi"]:
            assert SCHEME_COSTS[(base, "spzip")].cycles_per_edge < \
                SCHEME_COSTS[(base, None)].cycles_per_edge


class TestStrategyInvariants:
    """Paper-grounded invariants that must hold on any input."""

    @pytest.mark.parametrize("app", ["pr", "bfs", "dc"])
    def test_spzip_never_increases_traffic(self, runner, app):
        for scheme in ["push", "ub", "phi"]:
            plain = runner.run(app, scheme, "ukl", "none")
            spzip = runner.run(app, f"{scheme}+spzip", "ukl", "none")
            assert spzip.total_traffic <= plain.total_traffic * 1.001

    @pytest.mark.parametrize("app", ["pr", "bfs"])
    def test_spzip_always_speeds_up(self, runner, app):
        for scheme in ["push", "ub", "phi"]:
            plain = runner.run(app, scheme, "ukl", "none")
            spzip = runner.run(app, f"{scheme}+spzip", "ukl", "none")
            assert spzip.speedup_over(plain) >= 1.0

    def test_traffic_breakdown_covers_classes(self, runner):
        run = runner.run("pr", "push", "ukl", "none")
        assert set(run.traffic) == {"adjacency", "source_vertex",
                                    "destination_vertex", "updates"}
        assert run.total_traffic > 0

    def test_push_dest_dominates_without_preprocessing(self, runner):
        """Fig 7: scatter updates dominate Push traffic."""
        run = runner.run("bfs", "push", "ukl", "none")
        dest = run.traffic["destination_vertex"]
        assert dest > 0.4 * run.total_traffic

    def test_ub_shifts_traffic_to_updates(self, runner):
        run = runner.run("bfs", "ub", "ukl", "none")
        assert run.traffic["updates"] > run.traffic["destination_vertex"]

    def test_preprocessing_cuts_push_dest_traffic(self, runner):
        none = runner.run("pr", "push", "ukl", "none")
        dfs = runner.run("pr", "push", "ukl", "dfs")
        assert dfs.traffic["destination_vertex"] < \
            0.5 * none.traffic["destination_vertex"]

    def test_preprocessing_does_not_help_ub_updates(self, runner):
        """Sec II-D: UB streams all updates regardless of locality."""
        none = runner.run("pr", "ub", "ukl", "none")
        dfs = runner.run("pr", "ub", "ukl", "dfs")
        assert dfs.traffic["updates"] >= 0.8 * none.traffic["updates"]

    def test_phi_spills_less_with_preprocessing(self, runner):
        none = runner.run("pr", "phi", "ukl", "none")
        dfs = runner.run("pr", "phi", "ukl", "dfs")
        assert dfs.traffic["updates"] < none.traffic["updates"]

    def test_unknown_scheme_rejected(self, runner):
        with pytest.raises(KeyError):
            runner.run("pr", "gather-apply-scatter", "ukl", "none")


class TestAblations:
    def test_compression_parts_monotonic(self, runner):
        """Fig 19: each additional compressed structure helps traffic."""
        prev = None
        for parts in [frozenset(), frozenset({"adjacency"}),
                      frozenset({"adjacency", "updates"}),
                      frozenset({"adjacency", "updates", "vertex"})]:
            run = runner.run("dc", "phi+spzip", "ukl", "none",
                             parts=parts)
            if prev is not None:
                assert run.total_traffic <= prev.total_traffic * 1.001
            prev = run

    def test_decoupled_only_keeps_raw_traffic(self, runner):
        phi = runner.run("pr", "phi", "ukl", "none")
        decoupled = runner.run("pr", "phi+spzip", "ukl", "none",
                               decoupled_only=True)
        full = runner.run("pr", "phi+spzip", "ukl", "none")
        assert decoupled.total_traffic == pytest.approx(phi.total_traffic,
                                                        rel=0.01)
        assert decoupled.cycles <= phi.cycles
        assert full.cycles <= decoupled.cycles
        assert "decoupled-only" in decoupled.scheme


class TestCmh:
    def test_cmh_schemes_run(self, runner):
        for scheme in ["push+cmh", "ub+cmh"]:
            run = runner.run("pr", scheme, "ukl", "none")
            assert run.total_traffic > 0
            assert run.scheme == scheme

    def test_cmh_gains_less_than_spzip(self, runner):
        """Fig 22's headline: CMH is far weaker than SpZip."""
        push = runner.run("pr", "push", "ukl", "dfs")
        cmh = runner.run("pr", "push+cmh", "ukl", "dfs")
        spzip = runner.run("pr", "push+spzip", "ukl", "dfs")
        assert cmh.speedup_over(push) < spzip.speedup_over(push)

    def test_cmh_ratios_recorded(self, runner):
        run = runner.run("pr", "push+cmh", "ukl", "none")
        assert set(run.extras) >= {"adj_lcp", "dst_lcp", "dst_bdi"}
        assert run.extras["dst_bdi"] > 0.9  # floats may not compress


class TestRunner:
    def test_memoization_shares_profiles(self, runner):
        first = runner.profiles("pr", "ukl", "none")
        second = runner.profiles("pr", "ukl", "none")
        assert first is second

    def test_run_all_schemes(self, runner):
        results = runner.run_all_schemes("dc", "arb", "none")
        assert set(results) == {"push", "push+spzip", "ub", "ub+spzip",
                                "phi", "phi+spzip"}

    def test_llc_sized_per_input(self, runner):
        def llc_bytes(dataset):
            graph = load_preprocessed(dataset, "none", runner.scale)
            cfg = sized_model_config(runner.system, runner.scale,
                                     graph.num_vertices)
            return cfg.system.llc.size_bytes
        assert llc_bytes("web") > llc_bytes("arb")
