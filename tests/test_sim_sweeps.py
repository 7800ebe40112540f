"""Tests for the sensitivity sweeps."""

from dataclasses import replace

import pytest

from repro.sim import Runner
from repro.sim.sweeps import bandwidth_sweep, core_sweep, llc_sweep
from repro.stages import stage_counters


@pytest.fixture(scope="module")
def runner():
    return Runner(scale=65536)


class TestBandwidthSweep:
    def test_regimes(self, runner):
        """Scarce bandwidth: both schemes are bandwidth-bound, so the
        advantage equals the traffic ratio.  Abundant bandwidth: both
        hit their compute floors, so the advantage saturates at the
        offload ratio and more bandwidth buys nothing further."""
        rows = bandwidth_sweep(runner, "pr", "ukl",
                               factors=(0.5, 2.0, 4.0),
                               schemes=("push", "phi+spzip"))
        scarce, mid, abundant = (row["phi+spzip"] for row in rows)
        assert scarce < mid            # traffic-ratio-limited regime
        assert abundant <= mid * 1.05  # compute-floor saturation

    def test_baseline_always_one(self, runner):
        rows = bandwidth_sweep(runner, "dc", "arb",
                               factors=(1.0,),
                               schemes=("push", "phi"))
        assert rows[0]["push"] == pytest.approx(1.0)


class TestLlcSweep:
    def test_bigger_llc_helps_push(self, runner):
        """More capacity -> fewer destination scatter misses."""
        rows = llc_sweep(runner, "pr", "web",
                         factors=(0.25, 2.0), schemes=("push",
                                                       "phi+spzip"))
        small = rows[0]["phi+spzip"]  # SpZip advantage over Push
        big = rows[1]["phi+spzip"]
        # When Push stops missing, SpZip's relative edge narrows.
        assert big <= small * 1.1

    def test_llc_bytes_reported(self, runner):
        rows = llc_sweep(runner, "dc", "arb", factors=(0.5,),
                         schemes=("push",))
        assert rows[0]["llc_bytes"] > 0

    def test_unit_point_agrees_with_the_runner(self, runner):
        """At factor 1 the swept LLC is the per-input sized one, so the
        row is the runner's own speedup."""
        rows = llc_sweep(runner, "bfs", "ukl", factors=(1.0,),
                         schemes=("push", "phi+spzip"))
        push = runner.run("bfs", "push", "ukl")
        spzip = runner.run("bfs", "phi+spzip", "ukl")
        assert rows[0]["phi+spzip"] == spzip.speedup_over(push)


class TestCoreSweep:
    def test_core_bound_scheme_scales_then_saturates(self, runner):
        rows = core_sweep(runner, "pr", "ukl", counts=(4, 32),
                          scheme="push")
        assert rows[0]["speedup"] == pytest.approx(1.0)
        assert rows[1]["speedup"] >= 1.0

    def test_memory_bound_scheme_stops_scaling(self, runner):
        rows = core_sweep(runner, "pr", "ukl", counts=(4, 64),
                          scheme="phi+spzip")
        # Bandwidth-bound: 16x the cores buys far less than 16x.
        assert rows[1]["speedup"] < 8.0

    @pytest.mark.parametrize("scheme", ["push", "phi+spzip"])
    def test_rows_match_a_runner_per_core_count(self, runner, scheme):
        """The work-stealing imbalance depends on the core count, so
        every point must price at its own count, exactly like a runner
        built for it."""
        counts = (4, 16, 64)
        rows = core_sweep(runner, "pr", "ukl", counts=counts,
                          scheme=scheme)
        runs = [Runner(scale=runner.scale,
                       system=replace(runner.system, num_cores=count))
                .run("pr", scheme, "ukl") for count in counts]
        assert rows == [{"cores": count,
                         "speedup": runs[0].cycles / run.cycles,
                         "bound": "memory" if run.bandwidth_bound
                         else "core"}
                        for count, run in zip(counts, runs)]


@pytest.mark.parametrize("sweep, kwargs, cells", [
    (bandwidth_sweep, {"factors": (0.5, 1.0, 2.0),
                       "schemes": ("push", "phi+spzip")}, 3 * 2),
    (core_sweep, {"counts": (4, 16, 64), "scheme": "phi"}, 3),
], ids=["bandwidth", "cores"])
def test_points_reprice_timing_only(runner, sweep, kwargs, cells):
    """Swept points share one stage store: stream/replay/compress run
    once per sweep, timing once per cell."""
    before = stage_counters()
    sweep(runner, "cc", "twi", **kwargs)
    after = stage_counters()
    computed = {stage: after.get(f"{stage}.computed", 0)
                - before.get(f"{stage}.computed", 0)
                for stage in ("stream", "replay", "compress", "timing")}
    assert computed == {"stream": 1, "replay": 1, "compress": 1,
                        "timing": cells}
