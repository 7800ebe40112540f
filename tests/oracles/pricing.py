"""Scalar oracles of the CMH baseline's BDI and LCP ratios.

Line-by-line and page-by-page references for
:func:`repro.schemes.pricing._bdi_ratio` and
:func:`repro.schemes.pricing._lcp_fetch_ratio`, which size every line
in one vectorized pass (``tests/test_pricing_ratios.py`` holds the two
sides equal).
"""

import numpy as np

from repro.compression import bdi_line_size
from repro.memory.address import LINE_BYTES
from repro.schemes.pricing import LCP_SLOT_SIZES, PAGE_BYTES


def pad_line(line: bytes) -> bytes:
    """Zero-pad a trailing partial line to the full 64 bytes."""
    return line if len(line) == LINE_BYTES \
        else line + bytes(LINE_BYTES - len(line))


def bdi_ratio_scalar(data: bytes) -> float:
    """Per-line reference for ``_bdi_ratio``."""
    if not data:
        return 1.0
    sizes = [bdi_line_size(pad_line(data[start:start + LINE_BYTES]))
             for start in range(0, len(data), LINE_BYTES)]
    return (len(sizes) * LINE_BYTES) / sum(sizes)


def lcp_fetch_ratio_scalar(data: bytes) -> float:
    """Per-page reference for ``_lcp_fetch_ratio``."""
    if not data:
        return 1.0
    ratios = []
    for page_start in range(0, len(data), PAGE_BYTES):
        page = data[page_start:page_start + PAGE_BYTES]
        worst = max(
            bdi_line_size(pad_line(page[start:start + LINE_BYTES]))
            for start in range(0, len(page), LINE_BYTES))
        slot = LINE_BYTES
        for candidate in LCP_SLOT_SIZES:
            if worst <= candidate:
                slot = candidate
                break
        ratios.append(LINE_BYTES / slot)
    return float(np.mean(ratios)) if ratios else 1.0
