"""Closed-form codec size models and chunk framings for the codec suites.

Two test-side pieces that the codec property sweep
(``tests/test_compression_properties.py``) runs every registry codec
through:

* :func:`model_size` — an *exact*, closed-form size of each codec's
  output, derived from its format in a handful of numpy passes rather
  than by running the encoder.  The differential suite holds
  ``len(codec.encode(values))`` equal to it byte for byte, so a format
  change in any encoder shows up as a size mismatch.  The BDI and BPC
  models size lines and sub-chunks through the pricer's own kernels
  (:func:`~repro.compression.bdi.bdi_line_sizes` and the plane-class
  kernel behind :func:`~repro.compression.bpc.bpc_chunk_encoded_sizes`),
  so the same suite holds those kernels to the real encoders on
  adversarial shapes.
* :class:`ChunkedCodec` and :class:`SortingCodec` — the paper's
  chunk framing and order-insensitive chunk sort (Sec III-C), built
  around any registry codec by :func:`make_shape`.  They give the sweep
  its ``-chunked`` and ``-chunked-sorted`` shapes: many short,
  independently encoded groups, whose sizes the model computes per group.

A *group* is a slice of the value stream that a codec encodes as a
self-contained unit: one chunk of :class:`ChunkedCodec` framing, or the
single group ``[0, n)`` for a bare codec.  The per-codec functions take
``group_starts`` (int64, strictly increasing, ``group_starts[0] == 0``)
and return one size per group.  The equivalences the model must get
right, each pinned by the differential suite:

* a first element with the top bit set zigzags to a 65-bit value that
  would overflow uint64 — the encoders carry it as a Python int; here
  those (rare) lanes are patched to the exact closed form (varint:
  always 9 bytes; nibble: always 22 groups);
* RLE runs restart at group boundaries, exactly like re-invoking the
  encoder per chunk;
* FOR and BPC sub-chunk *within* each group (a 16-element frame holds
  one short FOR chunk, not part of a 64-element one);
* nibble streams round up to whole bytes once per group, because the
  terminator pad is emitted per ``encode`` call.
"""

from typing import Optional

import numpy as np

from repro.compression import make_codec
from repro.compression.base import Codec, RawCodec, as_unsigned_bits
from repro.compression.bdi import LINE_BYTES, BdiCodec, bdi_line_sizes
from repro.compression.bpc import BpcCodec, _batch_chunk_sizes
from repro.compression.counted import CountedCodec
from repro.compression.delta import DeltaCodec, _varint_sizes, _zigzag_u64
from repro.compression.forcodec import ForCodec
from repro.compression.nibble import NibbleCodec
from repro.compression.rle import RleCodec

_SIGN_BIT = np.uint64(1) << np.uint64(63)
#: thresholds for vectorized ``int.bit_length``: 2^1 .. 2^63
_POW2 = np.uint64(1) << np.arange(1, 64, dtype=np.uint64)

_LEN_BYTES = 2
_MAX_CHUNK_PAYLOAD = (1 << (8 * _LEN_BYTES)) - 1


# -- chunk framings ----------------------------------------------------------

class ChunkedCodec(Codec):
    """Frame an inner codec into length-prefixed fixed-element chunks.

    Every chunk is emitted as a 2-byte little-endian length followed by
    the inner codec's payload, so a consumer can walk chunk boundaries
    without decoding.
    """

    def __init__(self, inner: Codec, chunk_elems: int = 32) -> None:
        if chunk_elems <= 0:
            raise ValueError("chunk_elems must be positive")
        self.inner = inner
        self.chunk_elems = chunk_elems
        self.name = f"chunked-{inner.name}"

    def encode(self, values: np.ndarray) -> bytes:
        out = bytearray()
        for start in range(0, values.size, self.chunk_elems):
            payload = self.inner.encode(values[start:start
                                               + self.chunk_elems])
            if len(payload) > _MAX_CHUNK_PAYLOAD:
                raise ValueError("chunk payload exceeds 64 KiB frame limit")
            out += len(payload).to_bytes(_LEN_BYTES, "little")
            out += payload
        return bytes(out)

    def decode(self, data: bytes, count: int, dtype: np.dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        pieces = []
        offset = 0
        remaining = count
        while remaining > 0:
            size = int.from_bytes(data[offset:offset + _LEN_BYTES], "little")
            offset += _LEN_BYTES
            n = min(self.chunk_elems, remaining)
            pieces.append(self.inner.decode(data[offset:offset + size], n,
                                            dtype))
            offset += size
            remaining -= n
        if not pieces:
            return np.empty(0, dtype=dtype)
        return np.concatenate(pieces)


class SortingCodec(Codec):
    """Sort each chunk before compressing (order-insensitive data only).

    Decoding returns each chunk's sorted permutation, so the round-trip
    target is the per-chunk sorted multiset, not the original order.
    """

    def __init__(self, inner: Codec, chunk_elems: int = 32) -> None:
        self.inner = inner
        self.chunk_elems = chunk_elems
        self.name = f"sorted-{inner.name}"

    def sorted_chunks(self, values: np.ndarray) -> np.ndarray:
        out = values.copy()
        full = (out.size // self.chunk_elems) * self.chunk_elems
        if full:
            out[:full].reshape(-1, self.chunk_elems).sort(axis=1)
        if full < out.size:
            out[full:].sort()
        return out

    def encode(self, values: np.ndarray) -> bytes:
        return self.inner.encode(self.sorted_chunks(values))

    def decode(self, data: bytes, count: int, dtype: np.dtype) -> np.ndarray:
        return self.inner.decode(data, count, dtype)


def make_shape(name: str, chunk_elems: Optional[int] = None,
               sort: bool = False) -> Codec:
    """Registry codec ``name``, optionally chunk-framed and chunk-sorted."""
    codec = make_codec(name)
    if sort and chunk_elems is None:
        raise ValueError("sorting requires an explicit chunk size")
    if chunk_elems is not None:
        codec = ChunkedCodec(codec, chunk_elems)
        if sort:
            codec = SortingCodec(codec, chunk_elems)
    return codec


# -- closed-form sizes -------------------------------------------------------

def nibble_size_bits(value: int) -> int:
    """Encoded size of one non-negative value in the nibble code, in bits.

    Each nibble carries three payload bits and a continuation bit.
    """
    groups = 1
    value >>= 3
    while value:
        groups += 1
        value >>= 3
    return 4 * groups


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` over a uint64 array."""
    values = np.asarray(values, dtype=np.uint64)
    out = np.searchsorted(_POW2, values, side="right") + 1
    out[values == np.uint64(0)] = 0
    return out.astype(np.int64, copy=False)


def group_lengths(group_starts: np.ndarray, total: int) -> np.ndarray:
    """Element count of each group."""
    gs = np.asarray(group_starts, dtype=np.int64)
    return np.diff(np.concatenate([gs, [total]]))


def _zigzag_stream(bits: np.ndarray, group_starts: np.ndarray):
    """Zigzagged per-group delta stream shared by delta and nibble sizing.

    Element 0 of each group carries the zigzag of its own bit pattern;
    later elements carry the zigzag of the wrapped 64-bit delta.  Returns
    ``(zz, overflow_firsts)`` where ``overflow_firsts`` indexes the lanes
    whose true zigzag needs 65 bits (first element >= 2^63) and therefore
    wrapped in the uint64 array — callers patch those with closed forms.
    """
    deltas = np.diff(bits.view(np.int64))
    zz = np.empty(bits.shape, dtype=np.uint64)
    zz[1:] = _zigzag_u64(deltas)
    firsts = bits[group_starts]
    zz[group_starts] = firsts << np.uint64(1)  # wraps when top bit set
    overflow = group_starts[np.flatnonzero(firsts >= _SIGN_BIT)]
    return zz, overflow


def delta_group_sizes(bits: np.ndarray,
                      group_starts: np.ndarray) -> np.ndarray:
    """Per-group :class:`DeltaCodec` sizes over uint64 bit patterns."""
    gs = np.asarray(group_starts, dtype=np.int64)
    if bits.size == 0:
        return np.zeros(gs.size, dtype=np.int64)
    zz, overflow = _zigzag_stream(bits, gs)
    sizes = _varint_sizes(zz)
    # A 65-bit zigzag always lands in the 9-byte varint bucket.
    sizes[overflow] = 9
    return np.add.reduceat(sizes, gs)


def nibble_group_sizes(bits: np.ndarray,
                       group_starts: np.ndarray) -> np.ndarray:
    """Per-group :class:`NibbleCodec` sizes over uint64 bit patterns."""
    gs = np.asarray(group_starts, dtype=np.int64)
    if bits.size == 0:
        return np.zeros(gs.size, dtype=np.int64)
    zz, overflow = _zigzag_stream(bits, gs)
    nbits = 4 * np.maximum(1, (bit_lengths(zz) + 2) // 3)
    # Every 65-bit zigzag takes the same ceil(65 / 3) = 22 nibble groups.
    nbits[overflow] = nibble_size_bits(1 << 64)
    per_group = np.add.reduceat(nbits, gs)
    return (per_group + 7) // 8  # terminator pad per encode call


def rle_group_sizes(bits: np.ndarray,
                    group_starts: np.ndarray) -> np.ndarray:
    """Per-group :class:`RleCodec` sizes; runs restart at group starts."""
    gs = np.asarray(group_starts, dtype=np.int64)
    n = bits.size
    if n == 0:
        return np.zeros(gs.size, dtype=np.int64)
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.not_equal(bits[1:], bits[:-1], out=new_run[1:])
    new_run[gs] = True
    run_starts = np.flatnonzero(new_run)
    lengths = np.diff(np.concatenate([run_starts, [n]])).astype(np.uint64)
    sizes = _varint_sizes(lengths) + _varint_sizes(bits[run_starts])
    return np.add.reduceat(sizes, np.searchsorted(run_starts, gs))


def _subchunk_starts(group_starts: np.ndarray, total: int,
                     chunk_elems: int):
    """Chunk-of-``chunk_elems`` boundaries *within* each group.

    Returns ``(sub_starts, first_sub)``: global start of every sub-chunk,
    plus the index of each group's first sub-chunk (for ``reduceat``).
    """
    glen = group_lengths(group_starts, total)
    nsub = -(-glen // chunk_elems)
    first_sub = np.concatenate([[0], np.cumsum(nsub)[:-1]]).astype(np.int64)
    within = np.arange(int(nsub.sum()), dtype=np.int64) \
        - np.repeat(first_sub, nsub)
    sub_starts = np.repeat(group_starts, nsub) + within * chunk_elems
    return sub_starts, first_sub


def for_group_sizes(bits: np.ndarray, group_starts: np.ndarray,
                    chunk_elems: int) -> np.ndarray:
    """Per-group :class:`ForCodec` sizes over uint64 bit patterns."""
    gs = np.asarray(group_starts, dtype=np.int64)
    if bits.size == 0:
        return np.zeros(gs.size, dtype=np.int64)
    sub_starts, first_sub = _subchunk_starts(gs, bits.size, chunk_elems)
    bases = np.minimum.reduceat(bits, sub_starts)
    widths = bit_lengths(np.maximum.reduceat(bits, sub_starts) - bases)
    sub_len = np.diff(np.concatenate([sub_starts, [bits.size]]))
    sizes = 2 + _varint_sizes(bases) + (sub_len * widths + 7) // 8
    return np.add.reduceat(sizes, first_sub)


def bpc_group_sizes(bits: np.ndarray, group_starts: np.ndarray,
                    chunk_elems: int) -> np.ndarray:
    """Per-group :class:`BpcCodec` sizes over native-width bit patterns.

    Sub-chunks are batched by length class through the pricer's BPC
    plane-class kernel, which is exact for every length a codec can have.
    """
    gs = np.asarray(group_starts, dtype=np.int64)
    if bits.size == 0:
        return np.zeros(gs.size, dtype=np.int64)
    item = bits.dtype.itemsize
    sub_starts, first_sub = _subchunk_starts(gs, bits.size, chunk_elems)
    sub_len = np.diff(np.concatenate([sub_starts, [bits.size]]))
    sizes = np.empty(sub_starts.size, dtype=np.int64)
    for length in np.unique(sub_len).tolist():
        sel = np.flatnonzero(sub_len == length)
        table = bits[sub_starts[sel][:, None] + np.arange(length)]
        sizes[sel] = _batch_chunk_sizes(table, 8 * item, item)
    return np.add.reduceat(sizes, first_sub)


def bdi_group_sizes(bits: np.ndarray,
                    group_starts: np.ndarray) -> np.ndarray:
    """Per-group :class:`BdiCodec` sizes over native-width bit patterns.

    Each group is an independent BDI stream: its raw bytes are split into
    64-byte lines, the last line zero-padded, one size-prefix byte per
    line.  Groups are batched by length class so every class is one
    :func:`bdi_line_sizes` call.
    """
    gs = np.asarray(group_starts, dtype=np.int64)
    if bits.size == 0:
        return np.zeros(gs.size, dtype=np.int64)
    item = bits.dtype.itemsize
    glen = group_lengths(gs, bits.size)
    out = np.empty(gs.size, dtype=np.int64)
    for length in np.unique(glen).tolist():
        sel = np.flatnonzero(glen == length)
        raw_len = length * item
        nlines = -(-raw_len // LINE_BYTES)
        rows = np.ascontiguousarray(
            bits[gs[sel][:, None] + np.arange(length)])
        mat = np.zeros((sel.size, nlines * LINE_BYTES), dtype=np.uint8)
        mat[:, :raw_len] = rows.view(np.uint8).reshape(sel.size, raw_len)
        line_sizes = bdi_line_sizes(mat.tobytes()).reshape(sel.size, nlines)
        out[sel] = nlines + line_sizes.sum(axis=1)
    return out


def group_sizes(codec: Codec, values: np.ndarray,
                group_starts: np.ndarray) -> np.ndarray:
    """Closed-form per-group encoded sizes of registry codec ``codec``."""
    gs = np.asarray(group_starts, dtype=np.int64)
    if isinstance(codec, RawCodec):
        return group_lengths(gs, values.size) * values.dtype.itemsize
    if isinstance(codec, CountedCodec):
        counts = group_lengths(gs, values.size).astype(np.uint64)
        return _varint_sizes(counts) + group_sizes(codec.inner, values, gs)
    if isinstance(codec, (DeltaCodec, NibbleCodec, RleCodec, ForCodec)):
        bits = as_unsigned_bits(values).astype(np.uint64)
        if isinstance(codec, DeltaCodec):
            return delta_group_sizes(bits, gs)
        if isinstance(codec, NibbleCodec):
            return nibble_group_sizes(bits, gs)
        if isinstance(codec, RleCodec):
            return rle_group_sizes(bits, gs)
        return for_group_sizes(bits, gs, codec.chunk_elems)
    if isinstance(codec, BpcCodec):
        return bpc_group_sizes(as_unsigned_bits(values), gs,
                               codec.chunk_elems)
    if isinstance(codec, BdiCodec):
        return bdi_group_sizes(as_unsigned_bits(values), gs)
    raise TypeError(f"no size model for codec {codec.name!r}")


def model_size(codec: Codec, values: np.ndarray) -> int:
    """Closed-form ``len(codec.encode(values))`` for every sweep shape."""
    if isinstance(codec, SortingCodec):
        return model_size(codec.inner, codec.sorted_chunks(values))
    if isinstance(codec, ChunkedCodec):
        if values.size == 0:
            return 0
        starts = np.arange(0, values.size, codec.chunk_elems,
                           dtype=np.int64)
        return int(_LEN_BYTES * starts.size
                   + group_sizes(codec.inner, values, starts).sum())
    return int(group_sizes(codec, values, np.zeros(1, dtype=np.int64))[0])
