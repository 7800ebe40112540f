"""The stage-graph orchestrator: content-addressed incremental pricing.

:class:`StagePricer` prices (app, scheme, dataset, preprocessing) cells
through the four-step pipeline — stream-gen → cache-replay → compress →
timing.  The three artifact stages persist in the content-addressed
result cache under a fingerprint of (stage code salt, upstream artifact
digests, stage-relevant config slice).  Editing the timing model or a
system knob like memory bandwidth therefore recomputes *only* the cheap
timing step against frozen upstream artifacts; an LLC geometry change
reuses the streams; only a new input regenerates everything.

Timing is not stored: pricing a cell from its bundle costs less than
one store write.  :meth:`StagePricer.price` runs it on every call, and
the process that priced a cell stores the result once, as the cell
entry under :func:`~repro.jobs.fingerprint.job_fingerprint` (see
:func:`repro.jobs.executor.execute_group`), which every caller looks up
before it prices.

Chaining keys on upstream *content digests* (not keys) gives early
cutoff: a code edit that rotates a stage's salt but reproduces
byte-identical output leaves every downstream key intact.

The same store holds Fig 21's functional-engine walks
(:meth:`StagePricer.traversal_cycles`), evaluated as stage ``engine``.

Every lookup and computation is counted as a ``stage.<name>.<event>``
count on :data:`~repro.obs.TRACER` (surfaced through the executor's
progress line and ``repro serve``'s ``/stats``, whichever process did
the work) and traced as ``stage.<name>.hit`` / ``stage.<name>.computed``
spans.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import SpZipConfig, SystemConfig
from repro.graph.datasets import DEFAULT_SCALE
from repro.jobs.cache import StoreConfig
from repro.jobs.fingerprint import (
    artifact_digest,
    engine_fingerprint,
    stage_config_slice,
    stage_fingerprint,
    stream_fingerprint,
)
from repro.memory.address import LINE_BYTES
from repro.obs import TRACER
from repro.runtime.traffic import IterationProfile, ModelConfig
from repro.sim.metrics import RunMetrics
from repro.sim.runner import identity_workload, sized_model_config
from repro.stages.artifacts import StreamArtifact
from repro.stages.timing import (
    PricingView,
    assemble_profiles,
    price_staged,
)

def stage_counters() -> Dict[str, int]:
    """The ``stage.*`` counts on :data:`~repro.obs.TRACER`, keyed
    without the prefix: ``<stage>.hit`` (disk-cache hit),
    ``<stage>.computed`` (ran the stage), ``<stage>.memo`` (served from
    a pricer's in-memory bundle), ``stream.partition.hit`` / ``.computed``,
    and ``engine.hit`` / ``engine.computed`` for functional-engine walks.
    """
    return {name[len("stage."):]: n
            for name, n in TRACER.counts("stage.").items()}


def reset_stage_counters() -> None:
    TRACER.reset_counts("stage.")


@dataclass
class ProfileBundle:
    """Everything the timing step needs for one profile identity.

    Small by design: assembled profiles, the CMH ratio dict, the frozen
    Push replays, and the pricing view — the bulky stream/replay
    artifacts are transient (and on disk when a cache is attached).
    """

    profiles: List[IterationProfile]
    view: PricingView
    cfg: ModelConfig
    cmh_ratios: Dict[str, float]
    push_replays: List[Tuple[int, int]]


class StagePricer:
    """Prices cells through the content-addressed stage pipeline."""

    def __init__(self, scale: int = DEFAULT_SCALE,
                 system: Optional[SystemConfig] = None,
                 store: Optional[StoreConfig] = None) -> None:
        self.scale = scale
        self.system = system if system is not None \
            else SystemConfig().scaled(scale)
        # One StoreConfig describes every store this pricer touches.
        self.store = store if store is not None else StoreConfig()
        self.partitions = max(1, self.store.stream_partitions)
        self.cache = self.store.result_cache()
        # An on-disk root also hosts the shared graph store: every
        # worker process pointed at this root memory-maps one copy of
        # each generated graph instead of regenerating it.
        self.store.activate_graph_store()
        self._bundles: Dict[Tuple[str, str, str], ProfileBundle] = {}
        self._lock = threading.RLock()
        # One build lock per identity: threads that ask for a bundle
        # being built wait for it instead of building it again.
        self._builds: Dict[Tuple[str, str, str], threading.Lock] = \
            defaultdict(threading.Lock)

    # -- stage evaluation ------------------------------------------------------

    def _stored(self, stage: str, key: str, **attrs):
        """The stored artifact under ``key``, counted and traced as a
        hit, or None."""
        start = time.perf_counter()
        value = self.cache.get(key)
        if value is not None:
            TRACER.count(f"stage.{stage}.hit")
            TRACER.manual_span(f"stage.{stage}.hit",
                               time.perf_counter() - start, **attrs)
        return value

    def _evaluate(self, stage: str, key: str, compute, **attrs):
        """Disk-cache lookup, else compute + persist; counted, traced."""
        value = self._stored(stage, key, **attrs)
        if value is not None:
            return value
        with TRACER.span(f"stage.{stage}.computed", **attrs):
            value = compute()
        self.cache.put(key, value)
        TRACER.count(f"stage.{stage}.computed")
        return value

    def _fetch_partition(self, key: str, build):
        """Per-partition cache hook of the partitioned stream stage.

        Consulted only on a whole-stream-key miss (the warm-identical
        fast path never assembles partitions); a graph delta then hits
        every partition whose rows and active sources are unchanged.
        """
        part = self.cache.get(key)
        if part is not None:
            TRACER.count("stage.stream.partition.hit")
            return part
        part = build()
        self.cache.put(key, part)
        TRACER.count("stage.stream.partition.computed")
        return part

    def bundle(self, app: str, dataset: str,
               preprocessing: str = "none") -> ProfileBundle:
        """Run (or reuse) the three artifact stages for one identity."""
        ident = (app, dataset, preprocessing)
        with self._lock:
            build = self._builds[ident]
        with build:
            cached = self._bundles.get(ident)
            if cached is None:
                cached = self._bundles[ident] = self._build(*ident)
                return cached
        for stage in ("stream", "replay", "compress"):
            TRACER.count(f"stage.{stage}.memo")
        return cached

    def _build(self, app: str, dataset: str,
               preprocessing: str) -> ProfileBundle:
        labels = {"app": app, "dataset": dataset,
                  "preprocessing": preprocessing}

        stream_key = stream_fingerprint(app, dataset, preprocessing,
                                        self.scale)
        stream: StreamArtifact = self._evaluate(
            "stream", stream_key,
            lambda: _generate(identity_workload(app, dataset,
                                                preprocessing,
                                                self.scale),
                              self.partitions, self._fetch_partition),
            **labels)
        stream_digest = artifact_digest(stream)

        cfg = sized_model_config(self.system, self.scale,
                                 stream.num_vertices)

        replay_slice = stage_config_slice("replay", cfg)
        replay_key = stage_fingerprint("replay", [stream_digest],
                                       replay_slice)
        replay = self._evaluate(
            "replay", replay_key,
            lambda: _replay(stream, replay_slice), **labels)
        replay_digest = artifact_digest(replay)

        compress_slice = stage_config_slice("compress", cfg)
        compress_key = stage_fingerprint(
            "compress", [stream_digest, replay_digest], compress_slice)
        compress = self._evaluate(
            "compress", compress_key,
            lambda: _compress(stream, replay, cfg), **labels)

        return _assemble(app, stream, replay, compress, cfg)

    # -- pricing ---------------------------------------------------------------

    def price(self, app: str, scheme, dataset: str,
              preprocessing: str = "none", **kwargs) -> RunMetrics:
        """Price one cell; only the timing step sees scheme identity.

        Makes no store call: the caller looks the cell up first and
        stores it after (see the module docstring).
        """
        from repro.schemes import resolve
        spec = resolve(scheme, **kwargs)
        bundle = self.bundle(app, dataset, preprocessing)
        with TRACER.span("stage.timing.computed", app=app,
                         scheme=spec.canonical(), dataset=dataset,
                         preprocessing=preprocessing):
            metrics = price_bundle(bundle, spec, dataset, preprocessing)
        TRACER.count("stage.timing.computed")
        return metrics

    # -- functional engine -----------------------------------------------------

    def traversal_cycles(self, dataset: str, preprocessing: str,
                         config: SpZipConfig, rows: int,
                         mem_latency: int) -> int:
        """Cycles of one functional-engine walk of a dataset's
        compressed adjacency (Fig 21), stored like a stage artifact
        under :func:`~repro.jobs.fingerprint.engine_fingerprint`."""
        # Imported here: start-up needs no engine code.
        from repro.engine.pipelines import traversal_cycles
        graph, rows, key = self._walk(dataset, preprocessing, config, rows,
                                      mem_latency)
        return self._evaluate(
            "engine", key,
            lambda: traversal_cycles(graph, config, rows, mem_latency),
            dataset=dataset, preprocessing=preprocessing)

    def stored_cycles(self, dataset: str, preprocessing: str,
                      config: SpZipConfig, rows: int,
                      mem_latency: int) -> Optional[int]:
        """The stored cycles of the walk :meth:`traversal_cycles` would
        walk, counted and traced as a hit, or None; walks nothing."""
        _graph, _rows, key = self._walk(dataset, preprocessing, config,
                                        rows, mem_latency)
        return self._stored("engine", key, dataset=dataset,
                            preprocessing=preprocessing)

    def _walk(self, dataset: str, preprocessing: str, config: SpZipConfig,
              rows: int, mem_latency: int):
        """One walk's graph, row count clamped to it, and store key."""
        # Imported here: a wrapper installed on load_preprocessed after
        # import (perfbench's layer trace) must see these loads.
        from repro.graph.datasets import load_preprocessed
        graph = load_preprocessed(dataset, preprocessing, self.scale)
        rows = min(rows, graph.num_vertices)
        return graph, rows, engine_fingerprint(
            graph.content_digest(), config, rows, mem_latency)


def compose(workload, cfg: ModelConfig) -> ProfileBundle:
    """The uncached stage composition under one explicit model config.

    stream → replay → compress → assemble with no store, no memo and no
    identity labels: the form :func:`~repro.sim.runner.profile_workload`
    and the profile equivalence suites price through.
    """
    stream = _generate(workload)
    replay = _replay(stream, stage_config_slice("replay", cfg))
    compress = _compress(stream, replay, cfg)
    return _assemble(workload.app, stream, replay, compress, cfg)


def _assemble(app: str, stream: StreamArtifact, replay, compress,
              cfg: ModelConfig) -> ProfileBundle:
    return ProfileBundle(
        profiles=assemble_profiles(stream, replay, compress,
                                   cfg.system.num_cores),
        view=PricingView(app=app, frontier_based=stream.frontier_based),
        cfg=cfg,
        cmh_ratios=compress.cmh_ratios,
        push_replays=[
            (rp.push_dest_misses, rp.push_dest_write_bytes // LINE_BYTES)
            for rp in replay.iterations],
    )


def price_bundle(bundle: ProfileBundle, spec, dataset: str,
                 preprocessing: str) -> RunMetrics:
    """Price one scheme spec against a bundle (the timing step)."""
    return price_staged(spec, bundle.profiles, bundle.view, bundle.cfg,
                        dataset, preprocessing, bundle.cmh_ratios,
                        bundle.push_replays)


def _generate(workload, partitions: int = 1,
              fetch=None) -> StreamArtifact:
    from repro.stages.streams import (
        generate_streams,
        generate_streams_partitioned,
    )
    if partitions > 1:
        return generate_streams_partitioned(workload, partitions, fetch)
    return generate_streams(workload)


def _replay(stream: StreamArtifact, replay_slice: Dict[str, object]):
    from repro.stages.replay import ReplaySlice, replay_streams
    return replay_streams(stream, ReplaySlice(**replay_slice))


def _compress(stream: StreamArtifact, replay, cfg: ModelConfig):
    from repro.stages.compress import compress_streams
    return compress_streams(stream, replay, cfg.id_scale,
                            cfg.sort_updates)
