"""Tests for DCL tooling: dot rendering."""

from repro.dcl import program_to_dot
from repro.engine import csr_traversal, pagerank_push


class TestProgramToDot:
    def test_contains_operators_and_queues(self):
        dot = program_to_dot(pagerank_push())
        assert dot.startswith("digraph")
        assert '"fetch_offsets"' in dot
        assert '"prefetch_scores"' in dot
        assert "neighbors (4B)" in dot

    def test_core_terminals_for_io_queues(self):
        dot = program_to_dot(csr_traversal())
        assert "core_in ->" in dot        # input queue from the core
        assert '-> core_out' in dot       # rows queue to the core

    def test_custom_name(self):
        assert program_to_dot(csr_traversal(),
                              name="fig2").startswith("digraph fig2")

