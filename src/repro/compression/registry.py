"""Codec registry and the paper's best-of selection policy.

Sec IV: "We compress the adjacency matrix using delta encoding, and each
application uses the best of BPC and delta encoding for the other
structures."  ``best_of`` measures both codecs on a sample of the actual
data and returns the winner, which is what an offline tuning pass (or the
runtime) would do.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable

import numpy as np

from repro.compression.base import Codec, RawCodec
from repro.compression.bdi import BdiCodec
from repro.compression.bpc import BpcCodec
from repro.compression.counted import CountedCodec
from repro.compression.delta import DeltaCodec
from repro.compression.forcodec import ForCodec
from repro.compression.nibble import NibbleCodec
from repro.compression.rle import RleCodec

_FACTORIES: Dict[str, Callable[[], Codec]] = {
    "raw": RawCodec,
    "delta": DeltaCodec,
    "bpc": BpcCodec,
    "bdi": BdiCodec,
    "rle": RleCodec,
    "for": ForCodec,
    "nibble": NibbleCodec,
    "counted-bpc": lambda: CountedCodec(BpcCodec()),
}


def available_codecs() -> Iterable[str]:
    """Names accepted by :func:`make_codec`."""
    return sorted(_FACTORIES)


def make_codec(name: str) -> Codec:
    """Build a codec by name."""
    if name not in _FACTORIES:
        raise KeyError(f"unknown codec {name!r}; have {available_codecs()}")
    return _FACTORIES[name]()


def best_of(values: np.ndarray, candidates: Iterable[str] = ("delta", "bpc"),
            sample_elems: int = 1 << 16) -> Codec:
    """Pick the candidate with the best ratio on a sample of ``values``.

    Mirrors the paper's per-structure codec choice.  Falls back to ``raw``
    if nothing compresses (ratio <= 1), because storing incompressible
    data through a codec would only add overhead.
    """
    sample = values[:sample_elems]
    best_codec: Codec = make_codec("raw")
    best_size = best_codec.encoded_size(sample)
    for name in candidates:
        codec = make_codec(name)
        size = codec.encoded_size(sample)
        if size < best_size:
            best_codec, best_size = codec, size
    return best_codec
