"""BPC's plane-class sizing kernel against the scalar encoder.

``_batch_chunk_sizes`` sizes every row of a chunk table from five
word-wide reductions over the rows' DBX words, never building a plane;
``BpcCodec._encode_chunk`` builds each plane and codes it symbol by
symbol.  They must agree on every row: every element width, every
chunk length the codec accepts, and every plane class the symbol code
tells apart.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.bpc import BpcCodec, _batch_chunk_sizes, _dbx_planes

#: Kinds of row, each named after the plane class its deltas make
#: (random rows make raw planes).
KINDS = ("zero-run", "all-ones", "one-bit", "adjacent-pair", "pair-apart",
         "three-or-more", "random")


def _positions(kind: str, deltas: int, first: int, gap: int) -> list:
    """Delta indices that carry the row's step for one kind of row."""
    last = deltas - 1
    if kind == "zero-run":
        return []
    if kind == "all-ones":
        return list(range(deltas))
    if kind == "one-bit":
        return [min(first, last)]
    if kind == "adjacent-pair":
        start = min(first, last - 1)
        return [start, start + 1] if start >= 0 else [0]
    if kind == "pair-apart":
        start = min(first, max(0, last - 2))
        return sorted({start, min(last, start + 2 + gap)})
    if kind == "three-or-more":
        return list(range(min(first, last), deltas, 1 + gap % 3))
    raise ValueError(kind)


def _row(kind: str, item: int, length: int, base: int, step: int,
         first: int, gap: int, noise: list) -> np.ndarray:
    """A row whose deltas are ``step`` at the kind's positions and zero
    elsewhere (or ``noise``, for random rows).  Sums wrap at the
    element width, and a wrapping step sets the borrow plane of a
    64-bit row."""
    mask = (1 << (8 * item)) - 1
    deltas = [0] * (length - 1)
    if kind == "random":
        deltas = [(noise[d % len(noise)] * (d + 1)) & mask
                  for d in range(length - 1)]
    else:
        for d in _positions(kind, length - 1, first, gap):
            deltas[d] = step
    values = [base & mask]
    for delta in deltas:
        values.append((values[-1] + delta) & mask)
    return np.array(values, dtype=f"u{item}")


@st.composite
def tables(draw):
    """A (rows, length) table of one element width, each row of one
    kind; steps near the top of the width make 64-bit rows wrap."""
    item = draw(st.sampled_from([1, 2, 4, 8]))
    length = draw(st.integers(2, 257))
    mask = (1 << (8 * item)) - 1
    steps = st.one_of(st.integers(1, mask),
                      st.integers(0, 8 * item - 1).map(lambda k: 1 << k),
                      st.integers(1, 255).map(lambda k: (mask + 1 - k)))
    rows = [_row(draw(st.sampled_from(KINDS)), item, length,
                 draw(st.integers(0, mask)), draw(steps),
                 draw(st.integers(0, length)), draw(st.integers(0, 7)),
                 draw(st.lists(st.integers(0, mask), min_size=1,
                               max_size=4)))
            for _ in range(draw(st.integers(1, 3)))]
    return np.stack(rows)


@settings(max_examples=100, deadline=None)
@given(table=tables())
def test_batch_chunk_sizes_match_the_scalar_encoder(table):
    item = table.dtype.itemsize
    width = 8 * item
    codec = BpcCodec(table.shape[1])
    assert _batch_chunk_sizes(table, width, item).tolist() == \
        [len(codec._encode_chunk(row, width)) for row in table]


def _classes(row: np.ndarray) -> set:
    """The plane classes of a row's DBX planes, as the encoder sees
    them (see ``_encode_planes``)."""
    width = 8 * row.dtype.itemsize
    full = (1 << (row.size - 1)) - 1
    found = set()
    for plane in (int(p) for p in _dbx_planes(row, width)):
        low = plane & -plane
        if plane == 0:
            found.add("zero-run")
        elif plane == full:
            found.add("all-ones")
        elif plane == low:
            found.add("one-bit")
        elif plane == low | (low << 1):
            found.add("adjacent-pair")
        elif bin(plane).count("1") == 2:
            found.add("pair-apart")
        else:
            found.add("three-or-more")
    return found


@pytest.mark.parametrize("kind", KINDS[:-1])
def test_each_kind_of_row_reaches_its_plane_class(kind):
    """The strategy reaches every class the symbol code tells apart."""
    row = _row(kind, 4, 33, base=1000, step=5, first=3, gap=2, noise=[1])
    assert kind in _classes(row)


def test_a_wrapping_step_sets_the_borrow_plane():
    row = _row("one-bit", 8, 9, base=2 ** 64 - 2, step=5, first=0, gap=0,
               noise=[1])
    top = int(_dbx_planes(row, 64)[0])  # MSB first: plane 64
    assert top == 1
    assert _batch_chunk_sizes(row[None], 64, 8).tolist() == \
        [len(BpcCodec(row.size)._encode_chunk(row, 64))]
