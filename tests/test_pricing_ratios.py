"""CMH measured-ratio helpers: edge cases and vectorized equivalence.

``_bdi_ratio``/``_lcp_fetch_ratio`` price the compressed-hierarchy
baseline (Fig 22) off the workload's actual bytes.  The vectorized
implementations must match the per-line real encoder bit for bit,
and the fixed edge-case semantics hold: every line counts, including a
zero-padded trailing partial line — sub-line and non-multiple buffers
used to be silently dropped or degenerate to 1.0.
"""

import numpy as np
import pytest

from repro.compression import bdi_encode_line, bdi_line_sizes
from repro.memory.address import LINE_BYTES
from repro.schemes.pricing import (
    LCP_SLOT_SIZES,
    PAGE_BYTES,
    _bdi_ratio,
    _lcp_fetch_ratio,
)
from tests.oracles.pricing import bdi_ratio_scalar, lcp_fetch_ratio_scalar


def _buffers():
    rng = np.random.default_rng(42)
    yield "empty", b""
    yield "sub-line", b"\x07" * 10
    yield "one-line", bytes(LINE_BYTES)
    yield "non-multiple", bytes(LINE_BYTES * 3 + 17)
    yield "page", np.arange(PAGE_BYTES // 4, dtype=np.uint32).tobytes()
    yield "page-plus-tail", (
        np.arange(PAGE_BYTES // 4, dtype=np.uint32).tobytes() + b"\xff" * 5)
    yield "random", rng.integers(0, 256, 4 * PAGE_BYTES + 100,
                                 dtype=np.uint8).tobytes()
    yield "clustered", (10 ** 6 + np.cumsum(
        rng.integers(0, 4, 2048))).astype(np.uint32).tobytes()
    yield "repeats", (b"\xab" * 8) * (PAGE_BYTES // 8)


class TestBdiLineSizes:
    @pytest.mark.parametrize("label,data", list(_buffers()))
    def test_matches_scalar_per_line(self, label, data):
        sizes = bdi_line_sizes(data)
        padded = data + bytes((-len(data)) % LINE_BYTES)
        expected = [len(bdi_encode_line(padded[s:s + LINE_BYTES]))
                    for s in range(0, len(padded), LINE_BYTES)]
        assert sizes.tolist() == expected

    def test_empty(self):
        assert bdi_line_sizes(b"").size == 0

    def test_zero_and_repeat_tags_beat_delta_modes(self):
        # An all-zero line (tag size 1) and a repeated-word line
        # (tag size 9) must win over every delta mode, matching the
        # scalar encoder's early returns.
        assert bdi_line_sizes(bytes(LINE_BYTES)).tolist() == [1]
        assert bdi_line_sizes((b"\x11" * 8) * 8).tolist() == [9]


class TestBdiRatio:
    @pytest.mark.parametrize("label,data", list(_buffers()))
    def test_matches_scalar_reference(self, label, data):
        assert _bdi_ratio(data) == bdi_ratio_scalar(data)

    def test_empty_is_neutral(self):
        assert _bdi_ratio(b"") == 1.0

    def test_sub_line_buffer_counts(self):
        # 10 zero bytes pad to one all-zero line: 64 raw / 1 compressed.
        assert _bdi_ratio(bytes(10)) == pytest.approx(64.0)

    def test_non_multiple_tail_counts(self):
        # Before the fix the 17-byte tail was dropped; an incompressible
        # tail must now pull the ratio down.
        rng = np.random.default_rng(7)
        body = bytes(LINE_BYTES * 3)  # three all-zero lines
        tail = rng.integers(0, 256, 17, dtype=np.uint8).tobytes()
        with_tail = _bdi_ratio(body + tail)
        assert with_tail < _bdi_ratio(body)
        assert with_tail == bdi_ratio_scalar(body + tail)


class TestLcpFetchRatio:
    @pytest.mark.parametrize("label,data", list(_buffers()))
    def test_matches_scalar_reference(self, label, data):
        assert _lcp_fetch_ratio(data) == lcp_fetch_ratio_scalar(data)

    def test_empty_is_neutral(self):
        assert _lcp_fetch_ratio(b"") == 1.0

    def test_uniform_zero_page_uses_smallest_slot(self):
        assert _lcp_fetch_ratio(bytes(PAGE_BYTES)) == \
            LINE_BYTES / min(LCP_SLOT_SIZES)

    def test_one_bad_line_forces_whole_page_slot(self):
        rng = np.random.default_rng(9)
        page = bytearray(PAGE_BYTES)
        page[:LINE_BYTES] = rng.integers(0, 256, LINE_BYTES,
                                         dtype=np.uint8).tobytes()
        # Worst line is incompressible (65 > every slot) -> raw slots.
        assert _lcp_fetch_ratio(bytes(page)) == 1.0
