"""First-class scheme identities, registry, and pluggable cost models.

The package replaces string-suffix dispatch with three layers:

* :mod:`repro.schemes.spec` — frozen :class:`SchemeSpec` identities and
  the ablation options of Figs 19/20;
* :mod:`repro.schemes.registry` — the parse grammar and the registered
  scheme groups (``paper``, ``cmh``, ``extensions``, ``all``);
* :mod:`repro.schemes.costs` / :mod:`repro.schemes.pricing` — per-base
  cost models behind one interface, the spec-keyed cost-constant table,
  and the pricing loop the timing stage drives to produce
  :class:`~repro.sim.metrics.RunMetrics`.

Adding an execution scheme means registering a family and a cost model
here — no edits across runner/harness/jobs/CLI.
"""

from repro.schemes.costs import (
    CMH_MISS_PENALTY,
    COST_MODELS,
    SCHEME_COSTS,
    CostModel,
    PhiCostModel,
    PullCostModel,
    PushCostModel,
    UbCostModel,
    cost_model_for,
    costs_for,
    graph_dst_bytes,
)
from repro.schemes.registry import (
    REGISTRY,
    SchemeRegistry,
    parse_scheme,
    resolve,
    scheme_names,
)
from repro.schemes.spec import (
    ALL_PARTS,
    BASES,
    OVERLAYS,
    SchemeParseError,
    SchemeSpec,
    UnknownSchemeError,
    as_parts,
    default_parts,
)

__all__ = [
    "ALL_PARTS",
    "BASES",
    "CMH_MISS_PENALTY",
    "COST_MODELS",
    "CostModel",
    "OVERLAYS",
    "PhiCostModel",
    "PullCostModel",
    "PushCostModel",
    "REGISTRY",
    "SCHEME_COSTS",
    "SchemeParseError",
    "SchemeRegistry",
    "SchemeSpec",
    "UbCostModel",
    "UnknownSchemeError",
    "as_parts",
    "cost_model_for",
    "costs_for",
    "default_parts",
    "graph_dst_bytes",
    "parse_scheme",
    "resolve",
    "scheme_names",
]
