"""Compression codecs used by SpZip and the baselines.

* :class:`DeltaCodec` — byte-code delta encoding (short streams).
* :class:`BpcCodec` — Bit-Plane Compression (long chunks).
* :class:`BdiCodec` — Base-Delta-Immediate (compressed-hierarchy baseline).
* :class:`RleCodec` — run-length encoding.
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
    bdi_line_sizes,
)
from repro.compression.bpc import BPC_CHUNK, BpcCodec, bpc_chunk_encoded_sizes
from repro.compression.counted import CountedCodec
from repro.compression.delta import DeltaCodec
from repro.compression.forcodec import FOR_CHUNK, ForCodec
from repro.compression.nibble import NibbleCodec
from repro.compression.registry import (
    available_codecs,
    make_codec,
)
from repro.compression.rle import RleCodec

__all__ = [
    "BPC_CHUNK",
    "BdiCodec",
    "BpcCodec",
    "Codec",
    "CountedCodec",
    "DeltaCodec",
    "FOR_CHUNK",
    "ForCodec",
    "NibbleCodec",
    "RawCodec",
    "RleCodec",
    "as_unsigned_bits",
    "available_codecs",
    "bdi_decode_line",
    "bdi_encode_line",
    "bdi_line_sizes",
    "bpc_chunk_encoded_sizes",
    "from_unsigned_bits",
    "make_codec",
]
