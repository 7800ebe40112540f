"""Experiment plans: which simulations each registered experiment needs.

Mirrors the run calls made by :mod:`repro.harness.experiments` so the
orchestrator can prefetch an experiment's whole cross-product in one
executor run before the experiment function renders it.  A request
missing from a plan is not an error — the runner prices that cell as a
one-cell prefetch — so plans only ever *accelerate*; the test suite
checks that each plan is exactly the cells its experiment reads.

Profile-only experiments (table3, sorting) have empty plans: their
work has no per-scheme pricing step to parallelize.  Fig 21's plan is
empty too: its functional-engine runs are not planned but cached by
:meth:`~repro.stages.StagePricer.traversal_cycles`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.jobs.model import RunRequest, canonical_request


def _requests(apps: Sequence[str], schemes: Sequence[str],
              preprocessing: str, **kwargs) -> List[RunRequest]:
    from repro.harness.experiments import _inputs_for
    return [canonical_request(app, scheme, dataset, preprocessing,
                              **kwargs)
            for app in apps
            for dataset in _inputs_for(app)
            for scheme in schemes]


def _fig15(preprocessing: str) -> List[RunRequest]:
    from repro.harness.experiments import ALL_APPS
    from repro.schemes import scheme_names
    return _requests(ALL_APPS, scheme_names("paper"), preprocessing)


def _fig16(preprocessing: str) -> List[RunRequest]:
    from repro.harness.experiments import GRAPH_APPS
    from repro.schemes import scheme_names
    return _requests(GRAPH_APPS, scheme_names("paper"), preprocessing)


def _fig07(preprocessing: str) -> List[RunRequest]:
    from repro.schemes import scheme_names
    return [RunRequest("bfs", scheme, "ukl", preprocessing)
            for scheme in scheme_names("paper")]


def _fig18() -> List[RunRequest]:
    from repro.harness.experiments import GRAPH_APPS, PREPROCESSINGS
    requests: List[RunRequest] = []
    for preprocessing in PREPROCESSINGS:
        for scheme in ("phi", "phi+spzip"):
            requests += [RunRequest(app, scheme, "ukl", preprocessing)
                         for app in GRAPH_APPS]
    return requests


def _fig19(preprocessing: str) -> List[RunRequest]:
    from repro.harness.experiments import GRAPH_APPS
    requests = _requests(GRAPH_APPS, ("phi",), preprocessing)
    for parts in (frozenset({"adjacency"}),
                  frozenset({"adjacency", "updates"}),
                  frozenset({"adjacency", "updates", "vertex"})):
        requests += _requests(GRAPH_APPS, ("phi+spzip",), preprocessing,
                              parts=parts)
    return requests


def _fig20() -> List[RunRequest]:
    from repro.harness.experiments import GRAPH_APPS
    requests: List[RunRequest] = []
    for preprocessing in ("none", "dfs"):
        requests += _requests(GRAPH_APPS, ("phi", "phi+spzip"),
                              preprocessing)
        requests += _requests(GRAPH_APPS, ("phi+spzip",), preprocessing,
                              decoupled_only=True)
    return requests


def _fig22(preprocessing: str) -> List[RunRequest]:
    from repro.harness.experiments import ALL_APPS
    return _requests(ALL_APPS, ("push", "push+cmh", "ub", "ub+cmh"),
                     preprocessing)


#: Experiment id -> plan builder.  Rebuilt lazily to avoid import
#: cycles with the harness.
def _plan_builders() -> Dict[str, object]:
    return {
        "fig07": lambda: _fig07("none"),
        "fig08": lambda: _fig07("dfs"),
        "fig15a": lambda: _fig15("none"),
        "fig15b": lambda: _fig15("none"),
        "fig15c": lambda: _fig15("dfs"),
        "fig15d": lambda: _fig15("dfs"),
        "fig16": lambda: _fig16("none"),
        "fig17": lambda: _fig16("dfs"),
        "fig18": _fig18,
        "fig19": lambda: _fig19("none"),
        "fig19-preprocessed": lambda: _fig19("dfs"),
        "fig20": _fig20,
        "fig22": lambda: _fig22("none"),
        "fig22-preprocessed": lambda: _fig22("dfs"),
    }


def experiment_requests(
        experiment_ids: Iterable[str]) -> List[RunRequest]:
    """Deduplicated requests for a set of experiments, stable order."""
    builders = _plan_builders()
    seen = {}
    for experiment_id in experiment_ids:
        builder = builders.get(experiment_id)
        if builder is None:
            continue
        for request in builder():
            seen.setdefault(request, None)
    return list(seen)
