"""Bit-Plane Compression (Kim et al., ISCA 2016), as used by SpZip.

BPC transforms a chunk of fixed-width elements so that value locality turns
into long runs of zero *bit planes*, then entropy-codes the planes.  The
paper's implementation "supports 32- or 64-bit elements, and uses a simple
byte-level symbol encoding for each bitplane" (Sec III-E); we implement the
same structure:

1. the first element of the chunk is the *base*, stored verbatim;
2. the remaining elements are delta-encoded against their predecessor
   (wrapped, width+1-bit signed deltas);
3. the deltas are transposed into ``width+1`` bit planes (plane ``k`` holds
   bit ``k`` of every delta) — the Delta-BitPlane (DBP) transform;
4. adjacent planes are XORed (DBX transform), which zeroes planes whenever
   consecutive bit positions agree across the chunk;
5. each DBX plane is emitted with a byte-level symbol code:

   ========  ==================================  =====
   symbol    meaning                             bytes
   ========  ==================================  =====
   ``0x00``  run of all-zero planes (+len byte)  2
   ``0x01``  all-ones plane                      1
   ``0x02``  single set bit (+position byte)     2
   ``0x03``  two consecutive set bits (+pos)     2
   ``0xFF``  raw plane payload follows           1+W/8
   ========  ==================================  =====

A chunk holds 2 to 257 elements, so a position byte can name any bit of
a plane.  If the symbol-coded chunk would be no smaller than the raw
chunk, the encoder falls back to a raw chunk (1-byte flag + verbatim
data), so BPC never expands data by more than one byte per chunk.

BPC works well on long, sequentially accessed streams (update bins, vertex
data) and poorly on short ones; the registry's ``best-of`` codec picks
between BPC and delta per stream, as the paper does.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Codec, as_unsigned_bits, from_unsigned_bits

#: Default chunk length (elements); the paper compresses 32-element chunks.
BPC_CHUNK = 32

_FLAG_COMPRESSED = 0xC5
_FLAG_RAW = 0x52

_SYM_ZERO_RUN = 0x00
_SYM_ALL_ONES = 0x01
_SYM_SINGLE_ONE = 0x02
_SYM_TWO_ONES = 0x03
_SYM_RAW = 0xFF

_ONE = np.uint64(1)


def _dbx_planes(chunk_bits: np.ndarray, width: int) -> np.ndarray:
    """DBP+DBX transform of one chunk.

    Returns an int array of ``width + 1`` plane words; plane word ``k``
    packs bit ``k`` of each delta, delta ``d`` at bit position ``d``.
    Plane order in the output stream is MSB first (plane ``width`` down
    to plane 0) so that sign/exponent planes cluster at the front.
    """
    values = chunk_bits.astype(object)  # python ints: need width+1 bits
    deltas = [
        (int(values[i + 1]) - int(values[i])) & ((1 << (width + 1)) - 1)
        for i in range(len(values) - 1)
    ]
    nplanes = width + 1
    planes = np.zeros(nplanes, dtype=object)
    for d, delta in enumerate(deltas):
        for k in range(nplanes):
            if (delta >> k) & 1:
                planes[k] |= 1 << d
    # DBX: xor of adjacent DBP planes, walking from MSB down.
    dbx = np.zeros(nplanes, dtype=object)
    dbx[nplanes - 1] = planes[nplanes - 1]
    for k in range(nplanes - 2, -1, -1):
        dbx[k] = planes[k] ^ planes[k + 1]
    return dbx[::-1]  # MSB plane first


def _encode_planes(dbx: np.ndarray, plane_width: int) -> bytes:
    """Symbol-encode a sequence of DBX plane words."""
    out = bytearray()
    raw_bytes = (plane_width + 7) // 8
    i = 0
    n = len(dbx)
    while i < n:
        plane = int(dbx[i])
        if plane == 0:
            run = 1
            while i + run < n and int(dbx[i + run]) == 0 and run < 255:
                run += 1
            out.append(_SYM_ZERO_RUN)
            out.append(run)
            i += run
            continue
        all_ones = (1 << plane_width) - 1
        if plane == all_ones:
            out.append(_SYM_ALL_ONES)
        elif plane & (plane - 1) == 0:
            out.append(_SYM_SINGLE_ONE)
            out.append(plane.bit_length() - 1)
        elif _is_two_consecutive(plane):
            out.append(_SYM_TWO_ONES)
            out.append(plane.bit_length() - 2)
        else:
            out.append(_SYM_RAW)
            out += plane.to_bytes(raw_bytes, "little")
        i += 1
    return bytes(out)


def _is_two_consecutive(plane: int) -> bool:
    low = plane & -plane
    return plane == low | (low << 1)


def _decode_planes(data: bytes, offset: int, nplanes: int,
                   plane_width: int) -> tuple:
    """Inverse of :func:`_encode_planes`; returns ``(planes, next_offset)``."""
    raw_bytes = (plane_width + 7) // 8
    planes = []
    while len(planes) < nplanes:
        sym = data[offset]
        offset += 1
        if sym == _SYM_ZERO_RUN:
            run = data[offset]
            offset += 1
            planes.extend([0] * run)
        elif sym == _SYM_ALL_ONES:
            planes.append((1 << plane_width) - 1)
        elif sym == _SYM_SINGLE_ONE:
            planes.append(1 << data[offset])
            offset += 1
        elif sym == _SYM_TWO_ONES:
            planes.append(0b11 << data[offset])
            offset += 1
        elif sym == _SYM_RAW:
            plane = int.from_bytes(data[offset:offset + raw_bytes], "little")
            planes.append(plane)
            offset += raw_bytes
        else:
            raise ValueError(f"bad BPC plane symbol {sym:#x}")
    if len(planes) != nplanes:
        raise ValueError("BPC zero run overran plane count")
    return planes, offset


class BpcCodec(Codec):
    """Chunked Bit-Plane Compression with raw fallback per chunk."""

    name = "bpc"

    def __init__(self, chunk_elems: int = BPC_CHUNK) -> None:
        # A one- or two-bit plane stores its bit position in one byte,
        # and a chunk of n elements has n - 1 deltas.
        if not 2 <= chunk_elems <= 257:
            raise ValueError("BPC chunks must be 2..257 elements")
        self.chunk_elems = chunk_elems

    # -- encoding ---------------------------------------------------------

    def encode(self, values: np.ndarray) -> bytes:
        bits = as_unsigned_bits(values)
        width = 8 * bits.dtype.itemsize
        out = bytearray()
        for start in range(0, bits.size, self.chunk_elems):
            chunk = bits[start:start + self.chunk_elems]
            out += self._encode_chunk(chunk, width)
        return bytes(out)

    def _encode_chunk(self, chunk: np.ndarray, width: int) -> bytes:
        raw_payload = chunk.tobytes()
        if chunk.size < 2:
            return bytes([_FLAG_RAW]) + raw_payload
        base_bytes = int(chunk[0]).to_bytes(width // 8, "little")
        dbx = _dbx_planes(chunk, width)
        body = _encode_planes(dbx, plane_width=chunk.size - 1)
        compressed = bytes([_FLAG_COMPRESSED]) + base_bytes + body
        if len(compressed) >= 1 + len(raw_payload):
            return bytes([_FLAG_RAW]) + raw_payload
        return compressed

    # -- decoding ---------------------------------------------------------

    def decode(self, data: bytes, count: int, dtype: np.dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        width = 8 * dtype.itemsize
        unsigned = np.dtype(f"u{dtype.itemsize}")
        out = np.empty(count, dtype=unsigned)
        offset = 0
        filled = 0
        while filled < count:
            n = min(self.chunk_elems, count - filled)
            chunk, offset = self._decode_chunk(data, offset, n, width, unsigned)
            out[filled:filled + n] = chunk
            filled += n
        return from_unsigned_bits(out, dtype)

    def _decode_chunk(self, data: bytes, offset: int, n: int, width: int,
                      unsigned: np.dtype) -> tuple:
        flag = data[offset]
        offset += 1
        item = width // 8
        if flag == _FLAG_RAW:
            chunk = np.frombuffer(data[offset:offset + n * item],
                                  dtype=unsigned).copy()
            return chunk, offset + n * item
        if flag != _FLAG_COMPRESSED:
            raise ValueError(f"bad BPC chunk flag {flag:#x}")
        base = int.from_bytes(data[offset:offset + item], "little")
        offset += item
        nplanes = width + 1
        dbx, offset = _decode_planes(data, offset, nplanes, plane_width=n - 1)
        # Undo DBX (MSB plane first) to recover DBP.
        dbp = [0] * nplanes
        dbp[0] = dbx[0]  # MSB
        for k in range(1, nplanes):
            dbp[k] = dbx[k] ^ dbp[k - 1]
        # dbp[0] is plane index `width`; re-index to plane k = bit k.
        planes = dbp[::-1]
        deltas = []
        for d in range(n - 1):
            delta = 0
            for k in range(nplanes):
                if (planes[k] >> d) & 1:
                    delta |= 1 << k
            deltas.append(delta)
        mask = (1 << width) - 1
        values = np.empty(n, dtype=unsigned)
        acc = base
        values[0] = acc & mask
        modulus = 1 << (width + 1)
        for d, delta in enumerate(deltas):
            acc = (acc + delta) % modulus
            values[d + 1] = acc & mask
        return values, offset


def bpc_chunk_encoded_sizes(values: np.ndarray,
                            chunk_elems: int = BPC_CHUNK) -> np.ndarray:
    """Exact encoded size of each BPC chunk, computed with vectorized numpy.

    Semantically identical to chunking ``values`` and measuring
    ``BpcCodec().encode`` per chunk: the full chunks are one
    :func:`_batch_chunk_sizes` table and the tail another, so each
    costs a fixed handful of numpy passes whatever the element width.
    Used by the traffic model.
    """
    bits = as_unsigned_bits(values)
    item = bits.dtype.itemsize
    full = bits.size - bits.size % chunk_elems
    tables = [bits[:full].reshape(-1, chunk_elems), bits[full:][None]]
    sizes = [_batch_chunk_sizes(table, 8 * item, item)
             for table in tables if table.size]
    return np.concatenate(sizes) if sizes else np.empty(0, dtype=np.int64)


def _batch_chunk_sizes(table: np.ndarray, width: int, item: int) -> np.ndarray:
    """Symbol-coded size of each row of a (nchunks, chunk) table of
    ``width``-bit values: the one BPC sizing kernel, exact for every
    chunk length the codec accepts (1 to 257).

    A plane's symbol depends only on how many of its bits are set and
    whether two set bits are adjacent, and bit ``d`` of DBX plane ``k``
    is bit ``k`` of ``g_d = delta_d ^ (delta_d >> 1)``.  So word-wide
    reductions over a row's ``g`` words classify all of its planes at
    once (bit ``k`` of each word answers for plane ``k``): OR (some bit
    set), AND (all set), at least two and at least three set, and an
    adjacent pair set.  64-bit values have a 65-bit delta: its bit 64
    is the subtraction's borrow, which enters bit 63 of ``g`` and is
    classified as plane 64 on its own.
    """
    nchunks, chunk = table.shape
    if chunk < 2:
        return np.full(nchunks, 1 + chunk * item, dtype=np.int64)
    raw_plane = 1 + (chunk - 1 + 7) // 8  # symbol + chunk - 1 bits
    # Rows are the chunk's delta positions d, lanes its chunks.
    cols = table.T.astype(np.uint64, copy=False)
    low = cols[1:] - cols[:-1]
    if width < 64:
        every_plane = np.uint64((1 << (width + 1)) - 1)
        low &= every_plane
        planes = _plane_classes(low ^ (low >> _ONE))
        zero = ~planes[0] & every_plane
        body = _plane_bytes(*planes, raw_plane) + 2 * _runs(zero)
    else:
        borrow = (cols[1:] < cols[:-1]).astype(np.uint64)
        g = low ^ (low >> _ONE) ^ (borrow << np.uint64(63))
        planes, top = _plane_classes(g), _plane_classes(borrow)
        zero, top_zero = ~planes[0], ~top[0] & _ONE
        # Plane 64 starts a zero run unless plane 63 is zero too.
        body = (_plane_bytes(*planes, raw_plane)
                + _plane_bytes(*top, raw_plane) + 2 * _runs(zero)
                + 2 * (top_zero & ~(zero >> np.uint64(63))).astype(np.int64))
    return np.minimum(1 + item + body, 1 + chunk * item)


def _after_a_set_bit(words: np.ndarray) -> np.ndarray:
    """Row ``d`` of the result: the bits of row ``d + 1`` also set in
    some earlier row.  Once: bits set at least twice down a column's
    rows; twice: at least three times."""
    return words[1:] & np.bitwise_or.accumulate(words[:-1], axis=0)


def _plane_classes(g: np.ndarray):
    """Per lane, five words whose bit ``k`` classifies plane ``k`` of
    the ``(rows, lanes)`` words ``g``: some bit set, every bit set, at
    least two set, at least three set, and two adjacent bits set."""
    two = _after_a_set_bit(g)
    return (np.bitwise_or.reduce(g, axis=0),
            np.bitwise_and.reduce(g, axis=0),
            np.bitwise_or.reduce(two, axis=0),
            np.bitwise_or.reduce(_after_a_set_bit(two), axis=0),
            np.bitwise_or.reduce(g[:-1] & g[1:], axis=0))


def _plane_bytes(some, every, two, three, adjacent,
                 raw_plane: int) -> np.ndarray:
    """Bytes of a lane's nonzero planes: 1 for all ones, 2 for a single
    set bit or two adjacent ones, ``raw_plane`` for the rest (zero
    planes are coded as runs)."""
    coded = some & ~every
    short = coded & (~two | (~three & adjacent))
    return (_popcount(every) + 2 * _popcount(short)
            + raw_plane * _popcount(coded & ~short))


def _runs(zero: np.ndarray) -> np.ndarray:
    """Maximal runs of set bits in each word of a zero-plane mask (a
    run never exceeds 255 planes, one run symbol's limit)."""
    return _popcount(zero & ~(zero << _ONE))


def _popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).astype(np.int64)


# NOTE: _batch_chunk_sizes must match BpcCodec._encode_chunk exactly;
# tests/test_bpc_kernel.py::test_batch_chunk_sizes_match_the_scalar_encoder
# cross-checks them on generated tables of every width and length.
