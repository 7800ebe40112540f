"""Small statistics helpers used by the harness and the metrics layer."""

from __future__ import annotations

import math
from typing import Iterable


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; the paper reports speedups this way."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    """Arithmetic mean; the paper reports traffic this way."""
    values = list(values)
    if not values:
        raise ValueError("arithmetic mean of empty sequence")
    return sum(values) / len(values)
