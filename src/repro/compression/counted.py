"""Count-prefixed framing: make any codec self-delimiting.

The decompression unit consumes marker-delimited payloads with no
out-of-band element count, so engine-facing codecs must be
self-delimiting.  Delta/nibble/FOR/RLE are; BPC is not (its chunk count
comes from the caller).  ``CountedCodec`` fixes that generically: the
payload starts with a varint element count, after which the inner codec
decodes exactly that many elements — two bytes of header for typical
chunks, in exchange for running *any* codec in a DCL pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Codec
from repro.utils.varint import decode_varint, encode_varint


class CountedCodec(Codec):
    """Wrap a codec with a varint element-count header."""

    def __init__(self, inner: Codec) -> None:
        self.inner = inner
        self.name = f"counted-{inner.name}"

    def encode(self, values: np.ndarray) -> bytes:
        return encode_varint(values.size) + self.inner.encode(values)

    def decode(self, data: bytes, count: int, dtype: np.dtype) -> np.ndarray:
        stored, offset = decode_varint(data, 0)
        if stored < count:
            raise ValueError(
                f"counted stream holds {stored} elements, need {count}")
        return self.inner.decode(data[offset:], count, dtype)[:count]

    def decode_stream(self, data: bytes, dtype: np.dtype) -> np.ndarray:
        stored, offset = decode_varint(data, 0)
        return self.inner.decode(data[offset:], stored, dtype)
