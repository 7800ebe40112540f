"""Codec registry: every codec by name, for ``repro compress``,
``repro list`` and the DCL text parser.

The pricer does not pick codecs here.  Sec IV ("each application uses
the best of BPC and delta encoding for the other structures") is
applied by the compress stage's size kernels in
:mod:`repro.runtime.traffic`, which take the smaller of the two sizes
per stream.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable

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
