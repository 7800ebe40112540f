"""Unit tests for marker-tagged queues."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dcl import Entry, MarkerQueue


class TestCapacity:
    def test_capacity_in_bytes(self):
        q = MarkerQueue("q", capacity_bytes=16, elem_bytes=4)
        for i in range(4):
            q.push(i)
        assert not q.has_space()
        with pytest.raises(OverflowError):
            q.push(99)

    def test_marker_words_cost_four_bytes(self):
        q = MarkerQueue("q", capacity_bytes=8, elem_bytes=1)
        q.push(0, marker=True)
        q.push(0, marker=True)
        assert q.free_bytes == 0

    def test_narrow_elements_pack_tighter(self):
        q = MarkerQueue("q", capacity_bytes=8, elem_bytes=1)
        for i in range(8):
            q.push(i)
        assert len(q) == 8

    def test_too_small_capacity_rejected(self):
        with pytest.raises(ValueError):
            MarkerQueue("q", capacity_bytes=2, elem_bytes=4)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            MarkerQueue("q", capacity_bytes=64, elem_bytes=3)

    def test_has_space_mixed(self):
        q = MarkerQueue("q", capacity_bytes=12, elem_bytes=8)
        assert q.has_space(entries=1, markers=1)
        assert not q.has_space(entries=1, markers=2)


class TestFifo:
    def test_order_preserved(self):
        q = MarkerQueue("q", capacity_bytes=64)
        for v in [5, 6, 7]:
            q.push(v)
        q.push(1, marker=True)
        out = [q.pop() for _ in range(4)]
        assert out == [Entry(5), Entry(6), Entry(7), Entry(1, True)]

    def test_pop_empty_raises(self):
        q = MarkerQueue("q", capacity_bytes=64)
        with pytest.raises(IndexError):
            q.pop()
        assert q.try_pop() is None

    def test_peek_does_not_consume(self):
        q = MarkerQueue("q", capacity_bytes=64)
        q.push(9)
        assert q.peek() == Entry(9)
        assert len(q) == 1

    def test_try_push(self):
        q = MarkerQueue("q", capacity_bytes=4, elem_bytes=4)
        assert q.try_push(1)
        assert not q.try_push(2)

    def test_space_freed_on_pop(self):
        q = MarkerQueue("q", capacity_bytes=4, elem_bytes=4)
        q.push(1)
        q.pop()
        assert q.try_push(2)

    def test_reserved_push_consumes_credit(self):
        q = MarkerQueue("q", capacity_bytes=8, elem_bytes=4)
        assert q.reserve(entries=1)
        q.push(7, reserved=True)
        assert q.reserved_bytes == 0
        assert q.used_bytes == 4

    def test_stats(self):
        q = MarkerQueue("q", capacity_bytes=64, elem_bytes=4)
        q.push(1)
        q.push(2)
        q.pop()
        assert q.total_pushed == 2
        assert q.high_water_bytes == 8

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1000), st.booleans()),
                    max_size=60))
    def test_fifo_property(self, items):
        q = MarkerQueue("q", capacity_bytes=1 << 12, elem_bytes=4)
        for value, marker in items:
            q.push(value, marker)
        out = [q.pop() for _ in range(len(items))]
        assert [(e.value, e.marker) for e in out] == items
