"""Tests for the chunking + work-stealing parallelism model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.scheduling import (
    chunk_weights,
    iteration_imbalance,
    simulate_static_partition,
    simulate_work_stealing,
)


class TestChunking:
    def test_chunk_weights_sum_preserved(self):
        degrees = np.array([3, 5, 0, 7, 2, 9, 1])
        chunks = chunk_weights(degrees, chunk_vertices=3)
        assert chunks.sum() == degrees.sum()
        assert chunks.tolist() == [8, 18, 1]

    def test_empty(self):
        assert chunk_weights(np.array([], dtype=np.int64)).size == 0


class TestWorkStealing:
    def test_balanced_chunks_perfectly_divide(self):
        result = simulate_work_stealing([10.0] * 32, num_cores=16)
        assert result.makespan == pytest.approx(20.0)
        assert result.imbalance == pytest.approx(1.0)
        assert result.utilization == pytest.approx(1.0)

    def test_single_huge_chunk_bounds_makespan(self):
        chunks = [100.0] + [1.0] * 15
        result = simulate_work_stealing(chunks, num_cores=16)
        assert result.makespan == pytest.approx(100.0)
        assert result.imbalance > 10

    def test_stealing_beats_static_partition(self):
        rng = np.random.default_rng(0)
        # Skewed chunks in adversarial round-robin order.
        chunks = (rng.pareto(1.0, 256) * 10 + 1).tolist()
        stolen = simulate_work_stealing(chunks, num_cores=16)
        static = simulate_static_partition(chunks, num_cores=16)
        assert stolen.makespan <= static.makespan * 1.0001
        assert stolen.steals > 0

    def test_empty_chunks(self):
        result = simulate_work_stealing([], num_cores=16)
        assert result.makespan == 0.0
        assert result.imbalance == 1.0

    def test_makespan_lower_bounds(self):
        """Makespan >= max(total/cores, biggest chunk)."""
        chunks = [7.0, 3.0, 12.0, 5.0]
        result = simulate_work_stealing(chunks, num_cores=2)
        assert result.makespan >= max(sum(chunks) / 2, max(chunks)) - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=80),
           st.integers(1, 16))
    def test_work_conserved_and_bounded(self, chunks, cores):
        result = simulate_work_stealing(chunks, num_cores=cores)
        assert result.total_work == pytest.approx(sum(chunks))
        assert result.makespan >= max(chunks) - 1e-9
        assert result.makespan <= sum(chunks) + 1e-9
        assert result.imbalance >= 1.0 - 1e-9


class TestIterationImbalance:
    def test_uniform_degrees_balanced(self):
        degrees = np.full(4096, 10)
        assert iteration_imbalance(degrees) < 1.05

    def test_mega_hub_creates_imbalance(self):
        degrees = np.ones(640, dtype=np.int64)
        degrees[0] = 100_000
        assert iteration_imbalance(degrees) > 5

    def test_imbalance_feeds_compute_model(self):
        """Strategies stretch compute (not traffic) by the factor."""
        from repro.jobs import JobRunner
        runner = JobRunner(scale=16384)
        run = runner.run("pr", "push", "ukl", "none")
        profile = runner.profiles("pr", "ukl", "none")[0]
        assert profile.load_imbalance >= 1.0
        assert run.compute_cycles > 0
