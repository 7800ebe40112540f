"""The scheme registry and its parse grammar.

Grammar (one line per scheme)::

    scheme   := family [ '[' option (',' option)* ']' ]
    family   := base [ '+' overlay ]
    base     := 'push' | 'ub' | 'phi'
    overlay  := 'spzip' | 'cmh'
    option   := 'decoupled' | 'parts=' parts
    parts    := 'none' | part ('+' part)*
    part     := 'adjacency' | 'updates' | 'vertex'

Examples: ``phi+spzip``, ``push+cmh``, ``phi+spzip[parts=adjacency]``,
``phi+spzip[parts=adjacency+updates]``, ``phi+spzip[decoupled]``.

Only registered *families* resolve: ``push+bogus`` raises
:class:`~repro.schemes.spec.UnknownSchemeError` naming every registered
scheme instead of silently pricing as plain ``push``.  Registration
groups (``paper``, ``cmh``, ``all``) give callers the
figure-level scheme sets without hardcoding them.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.schemes.spec import (
    SchemeParseError,
    SchemeSpec,
    UnknownSchemeError,
    as_parts,
)

_SCHEME_RE = re.compile(
    r"^(?P<family>[^\[\]]+?)(?:\[(?P<options>[^\[\]]*)\])?$")


class SchemeRegistry:
    """Registered scheme families, their groups, and the parser."""

    def __init__(self) -> None:
        self._families: Dict[str, SchemeSpec] = {}
        self._groups: Dict[str, List[str]] = {"all": []}

    # -- registration ------------------------------------------------------

    def register(self, scheme: Union[str, SchemeSpec],
                 groups: Tuple[str, ...] = ()) -> SchemeSpec:
        """Register a scheme family (no ablation brackets) in groups."""
        spec = scheme if isinstance(scheme, SchemeSpec) \
            else self._family_spec(scheme)
        if spec.parts is not None or spec.decoupled:
            raise ValueError(
                f"register families, not ablations: {spec.canonical()!r}")
        family = spec.family
        if family in self._families:
            raise ValueError(f"scheme {family!r} is already registered")
        self._families[family] = spec
        for group in ("all", *groups):
            self._groups.setdefault(group, []).append(family)
        return spec

    @staticmethod
    def _family_spec(text: str) -> SchemeSpec:
        segments = text.strip().split("+")
        if not 1 <= len(segments) <= 2 or not all(segments):
            raise SchemeParseError(
                f"malformed scheme family {text!r}; expected "
                f"base or base+overlay")
        overlay = segments[1] if len(segments) == 2 else None
        return SchemeSpec(base=segments[0], overlay=overlay)

    # -- lookup ------------------------------------------------------------

    def names(self, group: str = "all") -> Tuple[str, ...]:
        """Scheme names of one group, in registration (figure) order."""
        if group not in self._groups:
            raise UnknownSchemeError(
                f"unknown scheme group {group!r}; available groups: "
                f"{', '.join(self.groups())}")
        return tuple(self._groups[group])

    def groups(self) -> Tuple[str, ...]:
        return tuple(self._groups)

    def __contains__(self, scheme: object) -> bool:
        try:
            self.resolve(scheme)  # type: ignore[arg-type]
        except (SchemeParseError, UnknownSchemeError):
            return False
        return True

    # -- parsing -----------------------------------------------------------

    def parse(self, text: str) -> SchemeSpec:
        """Parse a scheme string; unknown families raise with the full
        registered list (no silent suffix misparses)."""
        match = _SCHEME_RE.match(text.strip())
        if match is None:
            raise SchemeParseError(
                f"malformed scheme {text!r}; expected "
                f"base[+overlay][[options]]")
        family = match.group("family").strip()
        if family not in self._families:
            raise UnknownSchemeError(
                f"unknown scheme {family!r}; registered schemes: "
                f"{', '.join(self.names())}")
        spec = self._families[family]
        options = match.group("options")
        if options is None:
            return spec
        parts: Optional[frozenset] = None
        decoupled = False
        for option in options.split(","):
            option = option.strip()
            if option == "decoupled":
                if decoupled:
                    raise SchemeParseError(
                        f"duplicate option 'decoupled' in {text!r}")
                decoupled = True
            elif option.startswith("parts="):
                if parts is not None:
                    raise SchemeParseError(
                        f"duplicate option 'parts' in {text!r}")
                value = option[len("parts="):]
                parts = frozenset() if value == "none" else \
                    as_parts(p for p in value.split("+") if p)
            else:
                raise SchemeParseError(
                    f"unknown option {option!r} in {text!r}; expected "
                    f"'decoupled' or 'parts=...'")
        return spec.with_options(parts=parts if parts is not None
                                 else ..., decoupled=decoupled)

    def resolve(self, scheme: Union[str, SchemeSpec],
                parts: Optional[Iterable[str]] = None,
                decoupled_only: bool = False) -> SchemeSpec:
        """Parse/validate a scheme plus legacy ablation kwargs."""
        if isinstance(scheme, SchemeSpec):
            spec = scheme
            if spec.family not in self._families:
                raise UnknownSchemeError(
                    f"unknown scheme {spec.family!r}; registered "
                    f"schemes: {', '.join(self.names())}")
        else:
            spec = self.parse(str(scheme))
        if parts is not None:
            frozen = as_parts(parts)
            if spec.parts is not None and spec.parts != frozen:
                raise ValueError(
                    f"conflicting parts for {spec.canonical()!r}: "
                    f"spec says {sorted(spec.parts)}, caller says "
                    f"{sorted(frozen)}")
            spec = spec.with_options(parts=frozen)
        if decoupled_only:
            spec = spec.with_options(decoupled=True)
        return spec


#: The process-wide registry, seeded with the paper's schemes (Fig 15
#: bar order) and the Fig 22 CMH baselines.
REGISTRY = SchemeRegistry()
for _name in ("push", "push+spzip", "ub", "ub+spzip", "phi",
              "phi+spzip"):
    REGISTRY.register(_name, groups=("paper",))
for _name in ("push+cmh", "ub+cmh"):
    REGISTRY.register(_name, groups=("cmh",))
del _name


def scheme_names(group: str = "all") -> Tuple[str, ...]:
    """Registered scheme names of one group (module-level shorthand)."""
    return REGISTRY.names(group)


def parse_scheme(text: str) -> SchemeSpec:
    """Parse a scheme string against the process-wide registry."""
    return REGISTRY.parse(text)


def resolve(scheme: Union[str, SchemeSpec],
            parts: Optional[Iterable[str]] = None,
            decoupled_only: bool = False) -> SchemeSpec:
    """Resolve a scheme (string or spec) plus legacy ablation kwargs."""
    return REGISTRY.resolve(scheme, parts=parts,
                            decoupled_only=decoupled_only)
