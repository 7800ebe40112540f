"""Codec interface shared by all compression algorithms.

A codec converts a 1-D numpy array of fixed-width elements into a
self-contained byte string and back.  The functional SpZip engines call
:meth:`Codec.encode` and :meth:`Codec.decode` on real data flowing
through DCL pipelines, and ``repro compress`` reports their sizes.

The scheme-level traffic model does not size streams through codec
objects: it runs over every edge of every graph, so it prices delta,
BPC and BDI with array kernels (``runtime/traffic.py``'s grouped delta
sizer, :func:`~repro.compression.bpc.bpc_chunk_encoded_sizes` and
:func:`~repro.compression.bdi.bdi_line_sizes`), each held to the real
encoder by its own differential test.
"""

from __future__ import annotations

import abc

import numpy as np

#: Element dtypes the hardware units support (Sec III-B: 8/16/32/64-bit).
SUPPORTED_DTYPES = (
    np.dtype(np.uint8),
    np.dtype(np.uint16),
    np.dtype(np.uint32),
    np.dtype(np.uint64),
    np.dtype(np.int32),
    np.dtype(np.int64),
    np.dtype(np.float32),
    np.dtype(np.float64),
)


def as_unsigned_bits(values: np.ndarray) -> np.ndarray:
    """Reinterpret any supported array as unsigned integers of equal width.

    Compression operates on bit patterns; floats are viewed as raw bits
    (this is also what real hardware compressors do).
    """
    dtype = np.dtype(values.dtype)
    if dtype not in SUPPORTED_DTYPES:
        raise TypeError(f"unsupported element dtype {dtype}")
    unsigned = np.dtype(f"u{dtype.itemsize}")
    return np.ascontiguousarray(values).view(unsigned)


def from_unsigned_bits(bits: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Inverse of :func:`as_unsigned_bits`."""
    dtype = np.dtype(dtype)
    return bits.astype(np.dtype(f"u{dtype.itemsize}"), copy=False).view(dtype)


class Codec(abc.ABC):
    """Lossless codec over fixed-width element streams."""

    #: short identifier used by the registry and in reports
    name: str = "abstract"

    @abc.abstractmethod
    def encode(self, values: np.ndarray) -> bytes:
        """Compress ``values`` into a self-contained byte string."""

    @abc.abstractmethod
    def decode(self, data: bytes, count: int, dtype: np.dtype) -> np.ndarray:
        """Decompress ``count`` elements of ``dtype`` from ``data``."""

    def decode_stream(self, data: bytes, dtype: np.dtype) -> np.ndarray:
        """Decompress *all* elements from a self-delimiting payload.

        The hardware decompression unit consumes marker-delimited byte
        streams with no out-of-band element count, so engine-facing codecs
        must be self-delimiting.  Codecs whose format needs an explicit
        count do not override this.
        """
        raise NotImplementedError(
            f"codec {self.name!r} is not self-delimiting; "
            "use a stream-capable codec (delta, rle) in DCL pipelines"
        )

    def encoded_size(self, values: np.ndarray) -> int:
        """Size in bytes of :meth:`encode`'s output."""
        return len(self.encode(values))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class RawCodec(Codec):
    """Identity codec: stores elements verbatim.

    Used as the no-compression baseline and as the fallback arm of
    adaptive codecs.
    """

    name = "raw"

    def encode(self, values: np.ndarray) -> bytes:
        return as_unsigned_bits(values).tobytes()

    def decode(self, data: bytes, count: int, dtype: np.dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        expected = count * dtype.itemsize
        if len(data) < expected:
            raise ValueError("raw stream shorter than expected")
        bits = np.frombuffer(data[:expected], dtype=np.dtype(f"u{dtype.itemsize}"))
        return from_unsigned_bits(bits.copy(), dtype)
