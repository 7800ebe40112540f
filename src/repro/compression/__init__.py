"""Compression codecs used by SpZip and the baselines.

* :class:`DeltaCodec` — byte-code delta encoding (short streams).
* :class:`BpcCodec` — Bit-Plane Compression (long chunks).
* :class:`BdiCodec` — Base-Delta-Immediate (compressed-hierarchy baseline).
* :class:`RleCodec` — run-length encoding.
* :class:`ChunkedCodec` / :class:`SortingCodec` — framing and the
  order-insensitive sorting optimization.
"""

from repro.compression.base import (
    Codec,
    RawCodec,
    as_unsigned_bits,
    from_unsigned_bits,
)
from repro.compression.bdi import (
    BdiCodec,
    bdi_decode_line,
    bdi_encode_line,
    bdi_line_size,
    bdi_line_sizes,
)
from repro.compression.bpc import BPC_CHUNK, BpcCodec, bpc_chunk_encoded_sizes
from repro.compression.chunked import ChunkedCodec, SortingCodec
from repro.compression.counted import CountedCodec
from repro.compression.delta import DeltaCodec
from repro.compression.forcodec import FOR_CHUNK, ForCodec
from repro.compression.nibble import NibbleCodec, nibble_size_bits
from repro.compression.registry import (
    available_codecs,
    best_of,
    make_codec,
    register_codec,
)
from repro.compression.rle import RleCodec
from repro.compression.sizes import (
    bdi_group_sizes,
    bit_lengths,
    bpc_group_sizes,
    delta_group_sizes,
    for_group_sizes,
    group_sizes,
    nibble_group_sizes,
    rle_group_sizes,
)

__all__ = [
    "BPC_CHUNK",
    "BdiCodec",
    "BpcCodec",
    "ChunkedCodec",
    "Codec",
    "CountedCodec",
    "DeltaCodec",
    "FOR_CHUNK",
    "ForCodec",
    "NibbleCodec",
    "RawCodec",
    "RleCodec",
    "SortingCodec",
    "as_unsigned_bits",
    "available_codecs",
    "bdi_decode_line",
    "bdi_group_sizes",
    "bit_lengths",
    "bpc_group_sizes",
    "delta_group_sizes",
    "for_group_sizes",
    "group_sizes",
    "nibble_group_sizes",
    "rle_group_sizes",
    "bdi_encode_line",
    "bdi_line_size",
    "bdi_line_sizes",
    "best_of",
    "bpc_chunk_encoded_sizes",
    "from_unsigned_bits",
    "make_codec",
    "nibble_size_bits",
    "register_codec",
]
