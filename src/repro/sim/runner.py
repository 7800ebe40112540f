"""The experiment runner: app x scheme x dataset x preprocessing.

One stop for the harness and benchmarks: a memoizing front end over one
:class:`~repro.stages.StagePricer`, which turns every cell into
:class:`~repro.sim.metrics.RunMetrics` through the staged pipeline
(stream-gen → cache-replay → compress → timing).  The pricer memoizes
one profile bundle per (app, dataset, preprocessing) identity, so the
six schemes of a Fig 15 bar group share a single profiling pass.

This module also owns the two identity-level helpers the pipeline
builds on: :func:`identity_workload` (the one identity → workload
mapping) and :func:`sized_model_config` (the per-input LLC sizing).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.graph.datasets import DEFAULT_SCALE, load_preprocessed
from repro.obs import TRACER
from repro.runtime.traffic import IterationProfile, ModelConfig
from repro.runtime.workload import Workload
from repro.sim.metrics import RunMetrics


#: Model-LLC sizing: fraction of the 4-byte destination array the scaled
#: LLC can hold.  Real web graphs concentrate in-links on mega-hubs far
#: more than a small synthetic can (duplicate edges collapse at small
#: vertex counts), so a fixed linear LLC scale-down would not land in the
#: paper's hot-working-set residency regime; instead the model LLC is
#: sized per input to preserve that regime (see DESIGN.md Substitutions).
LLC_DEST_RESIDENCY = 0.85


def sized_model_config(system: SystemConfig, scale: int,
                       num_vertices: int) -> ModelConfig:
    """Model config with the LLC sized for one input (see above).

    Pure function of (system, scale, vertex count).  The staged pipeline
    fingerprints the *resolved* LLC geometry, so any change to this
    sizing logic flows into stage cache keys through the values it
    produces.
    """
    from dataclasses import replace
    target = int(LLC_DEST_RESIDENCY * num_vertices * 4)
    granule = system.llc.ways * system.llc.line_bytes
    size = max(granule * 4, (target // granule) * granule)
    llc = replace(system.llc, size_bytes=size)
    return ModelConfig(system=replace(system, llc=llc), id_scale=scale)


def identity_workload(app: str, dataset: str, preprocessing: str,
                      scale: int) -> Workload:
    """The workload of one (app, dataset, preprocessing) identity.

    The self-contained ``sp`` app carries its own synthetic matrices;
    every other app runs on the preprocessed dataset graph.
    """
    from repro.apps import build_workload
    with TRACER.span("runner.build_workload", app=app, dataset=dataset,
                     preprocessing=preprocessing):
        if app == "sp":
            return build_workload("sp", scale=scale)
        graph = load_preprocessed(dataset, preprocessing, scale)
        return build_workload(app, graph=graph)


def profile_workload(workload: Workload,
                     cfg: ModelConfig) -> List[IterationProfile]:
    """Profile every recorded iteration under one model config.

    Runs the uncached stage composition (stream → replay → compress →
    assemble, no store); :class:`Runner` reaches the same stages through
    its content-addressed pricer.
    """
    from repro.stages.pipeline import compose
    return compose(workload, cfg).profiles


class Runner:
    """Memoizing simulation front end over one stage pricer."""

    def __init__(self, scale: int = DEFAULT_SCALE,
                 system: Optional[SystemConfig] = None) -> None:
        self.scale = scale
        self.system = system if system is not None \
            else SystemConfig().scaled(scale)
        self._workloads: Dict[Tuple[str, str, str], Workload] = {}
        self._pricer = None

    def _stage_pricer(self):
        # Built on first use: importing the pipeline is measurable
        # start-up cost for callers that only construct a runner.
        if self._pricer is None:
            from repro.stages import StagePricer
            self._pricer = StagePricer(scale=self.scale,
                                       system=self.system)
        return self._pricer

    # -- building blocks -------------------------------------------------------

    def workload(self, app: str, dataset: str,
                 preprocessing: str = "none") -> Workload:
        key = (app, dataset, preprocessing)
        if key not in self._workloads:
            self._workloads[key] = identity_workload(
                app, dataset, preprocessing, self.scale)
        return self._workloads[key]

    def profiles(self, app: str, dataset: str,
                 preprocessing: str = "none") -> List[IterationProfile]:
        return self._stage_pricer().bundle(app, dataset,
                                           preprocessing).profiles

    # -- simulation -------------------------------------------------------------

    def run(self, app: str, scheme, dataset: str,
            preprocessing: str = "none", **kwargs) -> RunMetrics:
        """Simulate one configuration.

        ``scheme`` is a name (including ablation brackets, e.g.
        ``phi+spzip[parts=adjacency]``) or a
        :class:`~repro.schemes.SchemeSpec`; kwargs feed the legacy
        ablation knobs (``parts``, ``decoupled_only``).
        """
        from repro.schemes import resolve
        spec = resolve(scheme, **kwargs)
        # One span per (app, scheme, input) cell, tagged with the
        # canonical SchemeSpec string — the unit the paper's sweep (and
        # `repro perf diff`) attributes wall time to.
        with TRACER.span("runner.cell", app=app,
                         scheme=spec.canonical(), dataset=dataset,
                         preprocessing=preprocessing):
            with TRACER.span("runner.price"):
                return self._stage_pricer().price(app, spec, dataset,
                                                  preprocessing)

    def run_all_schemes(self, app: str, dataset: str,
                        preprocessing: str = "none",
                        schemes=None) -> Dict[str, RunMetrics]:
        """Run one app against a set of schemes.

        ``schemes`` is a registry group name (``"paper"``, ``"cmh"``,
        ``"extensions"``, ``"all"``), an iterable of scheme
        names/specs, or ``None`` for the paper's six schemes.  Keys of
        the result are the scheme names as given (canonical form for
        specs).
        """
        from repro.schemes import SchemeSpec, scheme_names
        if schemes is None:
            schemes = scheme_names("paper")
        elif isinstance(schemes, str):
            schemes = scheme_names(schemes)
        out: Dict[str, RunMetrics] = {}
        for scheme in schemes:
            key = scheme.canonical() if isinstance(scheme, SchemeSpec) \
                else str(scheme)
            out[key] = self.run(app, scheme, dataset, preprocessing)
        return out
