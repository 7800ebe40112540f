"""Request/response schemas: JSON bodies to canonical identities.

Every pricing endpoint normalizes its body to the jobs layer's
:func:`~repro.jobs.model.canonical_request` identity — the same
``RunRequest`` the batch orchestrator, disk cache, and fingerprints key
on.  Two clients spelling one cell differently (``parts`` kwarg vs.
bracket grammar, list vs. set) therefore coalesce, share one store
entry, and one in-flight computation.

Validation is strict and happens *before* any compute is admitted:
unknown apps/datasets/schemes/preprocessing are a 400 with the list of
valid values, never a 500 from deep inside the model.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.jobs.model import RunRequest
from repro.sim.metrics import RunMetrics

#: Keys a price body may carry.
PRICE_KEYS = {"app", "scheme", "dataset", "preprocessing", "parts",
              "decoupled_only"}

#: Keys a sweep body may carry.
SWEEP_KEYS = {"app", "apps", "scheme", "schemes", "dataset", "datasets",
              "preprocessing"}

#: Cells one /sweep may expand to (arbitrarily large cross products are
#: a batch job for ``repro report``, not one HTTP request).
MAX_SWEEP_CELLS = 1024

#: Keys a graph-delta body may carry.
DELTA_KEYS = {"dataset", "insertions", "deletions", "insert_values"}

#: Edge mutations one ``/graph/delta`` body may carry.  Bulk rebuilds
#: belong in batch tooling, not one HTTP request.
MAX_DELTA_EDGES = 100_000


class ProtocolError(Exception):
    """A semantically invalid request body, mapped to HTTP 400."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _require_object(payload: object) -> Dict[str, object]:
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}")
    return payload


def _valid_name(kind: str, value: object, valid) -> str:
    if not isinstance(value, str) or value not in valid:
        raise ProtocolError(f"unknown {kind} {value!r}; valid: "
                            f"{', '.join(sorted(valid))}")
    return value


def _app(value: object) -> str:
    from repro.apps import ALL_APPS
    return _valid_name("app", value, ALL_APPS)


def _dataset(value: object) -> str:
    """A dataset name, possibly versioned (``base@version``).

    The base must exist in the registry here; whether an explicit
    version tag resolves is checked by the app (which knows the scale)
    so the error can still be a 400, not a compute-side 500.
    """
    from repro.graph.datasets import DATASETS, split_version
    if not isinstance(value, str):
        raise ProtocolError(f"unknown dataset {value!r}; valid: "
                            f"{', '.join(sorted(DATASETS))}")
    base, version = split_version(value)
    _valid_name("dataset", base, DATASETS)
    # ``split_version`` maps a trailing bare separator ("ukl@") to no
    # version; that spelling is a typo, not a head reference.
    if value != base and not (version or "").strip():
        raise ProtocolError(f"malformed dataset version {value!r}")
    return value


def _distinct(values: Iterable[str]) -> List[str]:
    """``values`` without repeats, in first-seen order."""
    return list(dict.fromkeys(values))


def _preprocessing(value: object) -> str:
    from repro.graph.preprocess import PREPROCESSORS
    return _valid_name("preprocessing", value, PREPROCESSORS)


def _scheme(value: object, **kwargs) -> str:
    """``value`` in canonical form, the ablation ``kwargs`` folded in:
    the scheme of :func:`~repro.jobs.model.canonical_request`'s
    identity."""
    from repro.schemes import SchemeParseError, UnknownSchemeError, resolve
    if not isinstance(value, str):
        raise ProtocolError(f"scheme must be a string, got "
                            f"{type(value).__name__}")
    try:
        return resolve(value, **kwargs).canonical()
    except (SchemeParseError, UnknownSchemeError, ValueError) as exc:
        raise ProtocolError(str(exc)) from exc


def parse_price(payload: object) -> RunRequest:
    """Normalize one ``/price`` (or ``/simulate``) body."""
    body = _require_object(payload)
    unknown = set(body) - PRICE_KEYS
    if unknown:
        raise ProtocolError(f"unknown field(s) "
                            f"{', '.join(sorted(unknown))}; valid: "
                            f"{', '.join(sorted(PRICE_KEYS))}")
    for name in ("app", "scheme", "dataset"):
        if name not in body:
            raise ProtocolError(f"missing required field {name!r}")
    app = _app(body["app"])
    dataset = _dataset(body["dataset"])
    preprocessing = _preprocessing(body.get("preprocessing", "none"))
    kwargs: Dict[str, object] = {}
    if body.get("parts") is not None:
        parts = body["parts"]
        if not isinstance(parts, (list, str)):
            raise ProtocolError("parts must be a list of part names")
        kwargs["parts"] = frozenset([parts] if isinstance(parts, str)
                                    else [str(p) for p in parts])
    if body.get("decoupled_only"):
        kwargs["decoupled_only"] = True
    return RunRequest(app, _scheme(body["scheme"], **kwargs), dataset,
                      preprocessing)


def parse_sweep(payload: object) -> List[RunRequest]:
    """Normalize one ``/sweep`` body into its deduplicated cell list.

    ``apps``/``datasets`` accept lists (or the singular spelling for
    one value); ``schemes`` additionally accepts a registry group name
    (``"paper"``, ``"cmh"``, ``"all"``).
    """
    from repro.schemes import UnknownSchemeError, scheme_names
    body = _require_object(payload)
    unknown = set(body) - SWEEP_KEYS
    if unknown:
        raise ProtocolError(f"unknown field(s) "
                            f"{', '.join(sorted(unknown))}; valid: "
                            f"{', '.join(sorted(SWEEP_KEYS))}")

    def many(plural: str, singular: str) -> List[object]:
        if plural in body and singular in body:
            raise ProtocolError(f"give {plural!r} or {singular!r}, "
                                f"not both")
        if plural in body:
            values = body[plural]
            if isinstance(values, str):
                return [values]  # one name (or a scheme group)
            if not isinstance(values, list) or not values:
                raise ProtocolError(f"{plural} must be a non-empty list")
            return values
        if singular in body:
            return [body[singular]]
        raise ProtocolError(f"missing required field {plural!r}")

    # Each axis is validated and deduplicated on its own, each distinct
    # scheme canonicalized once, and the limit checked before any cell
    # is built: a body may repeat one value thousands of times.
    apps = _distinct(_app(a) for a in many("apps", "app"))
    datasets = _distinct(_dataset(d) for d in many("datasets", "dataset"))
    preprocessing = _preprocessing(body.get("preprocessing", "none"))
    schemes = many("schemes", "scheme")
    if len(schemes) == 1 and isinstance(schemes[0], str):
        try:
            schemes = list(scheme_names(schemes[0]))
        except UnknownSchemeError:
            pass  # a plain scheme name, not a group
    canonical: Dict[str, str] = {}
    for scheme in schemes:
        if not isinstance(scheme, str) or scheme not in canonical:
            canonical[scheme] = _scheme(scheme)  # raises on a non-string
    schemes = _distinct(canonical.values())
    cells = len(apps) * len(datasets) * len(schemes)
    if cells > MAX_SWEEP_CELLS:
        raise ProtocolError(
            f"sweep expands to {cells} cells, over the "
            f"{MAX_SWEEP_CELLS}-cell limit; split the request")
    return [RunRequest(app, scheme, dataset, preprocessing)
            for app in apps for dataset in datasets for scheme in schemes]


def parse_delta(payload: object):
    """Normalize one ``/graph/delta`` body to (dataset, GraphDelta).

    ``dataset`` may be a bare name (mutates the current head) or an
    explicit ``base@version`` (branches from that version).
    ``insertions``/``deletions`` are ``[[src, dst], ...]`` edge lists;
    ``insert_values`` optionally carries one numeric value per
    insertion for valued graphs.
    """
    from repro.graph.delta import GraphDelta
    body = _require_object(payload)
    unknown = set(body) - DELTA_KEYS
    if unknown:
        raise ProtocolError(f"unknown field(s) "
                            f"{', '.join(sorted(unknown))}; valid: "
                            f"{', '.join(sorted(DELTA_KEYS))}")
    if "dataset" not in body:
        raise ProtocolError("missing required field 'dataset'")
    dataset = _dataset(body["dataset"])

    def edge_list(name: str) -> List[List[int]]:
        edges = body.get(name, [])
        if not isinstance(edges, list):
            raise ProtocolError(f"{name} must be a list of "
                                f"[src, dst] pairs")
        for edge in edges:
            if (not isinstance(edge, list) or len(edge) != 2
                    or not all(isinstance(v, int) and not
                               isinstance(v, bool) for v in edge)):
                raise ProtocolError(f"{name} must be a list of "
                                    f"[src, dst] integer pairs")
            if any(v < 0 for v in edge):
                raise ProtocolError(f"{name} contains a negative "
                                    f"vertex id")
        return edges

    insertions = edge_list("insertions")
    deletions = edge_list("deletions")
    total = len(insertions) + len(deletions)
    if total == 0:
        raise ProtocolError("delta is empty: give insertions and/or "
                            "deletions")
    if total > MAX_DELTA_EDGES:
        raise ProtocolError(
            f"delta carries {total} edge mutations, over the "
            f"{MAX_DELTA_EDGES}-edge limit; split the update")
    insert_values = body.get("insert_values")
    if insert_values is not None:
        if (not isinstance(insert_values, list)
                or len(insert_values) != len(insertions)
                or not all(isinstance(v, (int, float))
                           and not isinstance(v, bool)
                           for v in insert_values)):
            raise ProtocolError("insert_values must be a list of "
                                "numbers, one per insertion")
    try:
        delta = GraphDelta.of(insertions, deletions,
                              insert_values=insert_values)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    if delta.empty:
        raise ProtocolError("delta is empty after canonicalization "
                            "(self-loops are dropped)")
    return dataset, delta


def request_to_json(request: RunRequest) -> Dict[str, object]:
    return {"app": request.app, "scheme": request.scheme,
            "dataset": request.dataset,
            "preprocessing": request.preprocessing,
            "cell": request.describe()}


def metrics_to_json(metrics: RunMetrics) -> Dict[str, object]:
    """The wire form of one priced cell."""
    return {
        "app": metrics.app,
        "scheme": metrics.scheme,
        "dataset": metrics.dataset,
        "preprocessing": metrics.preprocessing,
        "cycles": metrics.cycles,
        "compute_cycles": metrics.compute_cycles,
        "memory_cycles": metrics.memory_cycles,
        "bandwidth_bound": metrics.bandwidth_bound,
        "traffic": dict(metrics.traffic),
        "total_traffic": metrics.total_traffic,
        "extras": dict(metrics.extras),
    }
