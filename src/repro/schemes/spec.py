"""Declarative scheme identities.

A :class:`SchemeSpec` names one execution configuration the simulator
can price: a *base* strategy (Push, UB, PHI), an optional
memory-system *overlay* (``spzip`` — the paper's accelerator; ``cmh`` —
the Fig 22 compressed-memory-hierarchy baseline), plus the two ablation
axes of Figs 19/20: which structures SpZip compresses (``parts``) and
whether only decoupled fetching is kept (``decoupled``).

Specs are frozen and hashable, so they key cost tables and caches
directly.  Their :meth:`~SchemeSpec.canonical` string form round-trips
through the parse grammar in :mod:`repro.schemes.registry` and is what
the jobs layer fingerprints — ablation variants get distinct cache keys
because they are distinct scheme identities, not side-channel kwargs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional

#: Base execution strategies (Sec II-C).
BASES = ("push", "ub", "phi")

#: Memory-system overlays: the SpZip engines, or the compressed
#: LLC+memory baseline of Fig 22.
OVERLAYS = ("spzip", "cmh")

#: SpZip compression parts for the Fig 19 ablation.
ALL_PARTS = frozenset({"adjacency", "updates", "vertex"})


class SchemeParseError(ValueError):
    """A scheme string does not follow the grammar."""


class UnknownSchemeError(KeyError):
    """A syntactically valid scheme is not in the registry."""

    def __str__(self) -> str:  # KeyError would requote the message
        return self.args[0] if self.args else ""


def default_parts(base: str) -> FrozenSet[str]:
    """Paper Sec IV defaults: Push compresses the adjacency matrix only;
    UB/PHI compress adjacency, update bins, and vertex data."""
    return frozenset({"adjacency"}) if base == "push" else ALL_PARTS


@dataclass(frozen=True)
class SchemeSpec:
    """One scheme identity: base strategy + overlay + ablation options.

    ``parts`` is the *requested* compression-part override (``None``
    means the overlay's default); :attr:`effective_parts` resolves what
    actually gets compressed.  ``display`` is the human/metrics name
    (excluded from equality), matching the paper's figure labels.
    """

    base: str
    overlay: Optional[str] = None
    parts: Optional[FrozenSet[str]] = None
    decoupled: bool = False
    display: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.base not in BASES:
            raise SchemeParseError(
                f"unknown base strategy {self.base!r}; "
                f"expected one of {', '.join(BASES)}")
        if self.overlay not in (None, *OVERLAYS):
            raise SchemeParseError(
                f"unknown overlay {self.overlay!r}; "
                f"expected one of {', '.join(OVERLAYS)}")
        if self.parts is not None:
            parts = frozenset(self.parts)
            unknown = parts - ALL_PARTS
            if unknown:
                raise SchemeParseError(
                    f"unknown compression parts "
                    f"{sorted(unknown)}; expected a subset of "
                    f"{', '.join(sorted(ALL_PARTS))}")
            object.__setattr__(self, "parts", parts)
        if self.overlay == "cmh" and (self.parts is not None
                                      or self.decoupled):
            raise SchemeParseError(
                "the cmh baseline takes no ablation options "
                "(parts/decoupled model SpZip mechanisms)")
        if not self.display:
            name = self.family
            if self.decoupled:
                name += "+decoupled-only"
            object.__setattr__(self, "display", name)

    # -- identity ----------------------------------------------------------

    @property
    def family(self) -> str:
        """Registry identity: base plus overlay, without ablations."""
        return self.base if self.overlay is None \
            else f"{self.base}+{self.overlay}"

    @property
    def spzip(self) -> bool:
        return self.overlay == "spzip"

    @property
    def cmh(self) -> bool:
        return self.overlay == "cmh"

    @property
    def effective_parts(self) -> FrozenSet[str]:
        """What SpZip actually compresses under this spec.

        Non-SpZip schemes compress nothing; ``decoupled`` keeps the
        offload but disables compression (Fig 20); otherwise the
        requested parts, or the paper's per-base default.
        """
        if not self.spzip or self.decoupled:
            return frozenset()
        if self.parts is not None:
            return self.parts
        return default_parts(self.base)

    def canonical(self) -> str:
        """Round-trippable string form, stable across processes."""
        options = []
        if self.parts is not None:
            value = "+".join(sorted(self.parts)) or "none"
            options.append(f"parts={value}")
        if self.decoupled:
            options.append("decoupled")
        suffix = f"[{','.join(options)}]" if options else ""
        return self.family + suffix

    def with_options(self, parts: object = ...,
                     decoupled: object = ...) -> "SchemeSpec":
        """A copy with ablation options replaced (display recomputed)."""
        new_parts = self.parts if parts is ... else (
            None if parts is None else frozenset(parts))  # type: ignore
        new_decoupled = self.decoupled if decoupled is ... \
            else bool(decoupled)
        return SchemeSpec(base=self.base, overlay=self.overlay,
                          parts=new_parts, decoupled=new_decoupled)

    def __str__(self) -> str:
        return self.canonical()


def as_parts(values: Iterable[str]) -> FrozenSet[str]:
    """Validate and freeze a parts collection."""
    parts = frozenset(values)
    unknown = parts - ALL_PARTS
    if unknown:
        raise SchemeParseError(
            f"unknown compression parts {sorted(unknown)}; expected a "
            f"subset of {', '.join(sorted(ALL_PARTS))}")
    return parts
