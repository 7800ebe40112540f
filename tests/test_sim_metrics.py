"""Tests for metrics records and workload sampling."""

import numpy as np
import pytest

from repro.runtime.workload import Iteration, sample_iterations
from repro.sim.metrics import (
    RunMetrics,
    TRAFFIC_CLASSES,
    merge_traffic,
)


def run(cycles, traffic=None, compute=None, memory=None):
    return RunMetrics(app="pr", scheme="push", dataset="ukl",
                      preprocessing="none", cycles=cycles,
                      compute_cycles=compute if compute is not None
                      else cycles,
                      memory_cycles=memory if memory is not None
                      else cycles / 2,
                      traffic=traffic or {})


class TestRunMetrics:
    def test_speedup(self):
        assert run(100).speedup_over(run(200)) == 2.0

    def test_speedup_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            run(0).speedup_over(run(100))

    def test_total_traffic_only_counts_known_classes(self):
        r = run(10, traffic={"adjacency": 5, "updates": 7, "bogus": 100})
        assert r.total_traffic == 12

    def test_traffic_ratio(self):
        a = run(10, traffic={"adjacency": 50})
        b = run(10, traffic={"adjacency": 100})
        assert a.traffic_ratio_over(b) == 0.5
        with pytest.raises(ValueError):
            a.traffic_ratio_over(run(10))

    def test_normalized_breakdown_covers_all_classes(self):
        a = run(10, traffic={"adjacency": 30})
        base = run(10, traffic={"adjacency": 60})
        breakdown = a.normalized_breakdown(base)
        assert set(breakdown) == set(TRAFFIC_CLASSES)
        assert breakdown["adjacency"] == 0.5
        assert breakdown["updates"] == 0.0

    def test_bandwidth_bound(self):
        assert run(10, compute=4, memory=10).bandwidth_bound
        assert not run(10, compute=10, memory=4).bandwidth_bound


class TestHelpers:
    def test_merge_traffic(self):
        merged = merge_traffic([{"adjacency": 1}, {"adjacency": 2,
                                                   "updates": 5}])
        assert merged["adjacency"] == 3
        assert merged["updates"] == 5


class TestIterationSampling:
    def make(self, count):
        return [Iteration(sources=np.array([i]),
                          src_values=np.array([i]),
                          update_values=np.array([i]),
                          weight=1.0, index=i)
                for i in range(count)]

    def test_short_runs_unsampled(self):
        iterations = self.make(2)
        assert sample_iterations(iterations, period=5) is iterations

    def test_weights_cover_skipped_iterations(self):
        sampled = sample_iterations(self.make(12), period=5)
        assert [it.index for it in sampled] == [0, 5, 10]
        assert [it.weight for it in sampled] == [5.0, 5.0, 2.0]
        assert sum(it.weight for it in sampled) == 12

    def test_period_one_keeps_everything(self):
        iterations = self.make(7)
        assert sample_iterations(iterations, period=1) is iterations
