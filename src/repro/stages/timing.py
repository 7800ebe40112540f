"""Stage 4 — timing: assemble profiles and run the cost/timing models.

The cheap suffix of the pipeline: stitch the three upstream artifacts
back into :class:`~repro.runtime.traffic.IterationProfile` records
(computing the work-stealing load imbalance here, since it depends on
the core count — a timing knob), then price one scheme through the
scheme layer's aggregation loops
(:func:`repro.schemes.pricing._price_spec` /
:func:`~repro.schemes.pricing._simulate_cmh`).  This is the only place
a cell becomes :class:`~repro.sim.metrics.RunMetrics`.

The config slice is {num_cores, bytes_per_cycle, llc_lines} plus the
scheme identity: editing memory bandwidth, the core count, or a cost
constant recomputes only this stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.obs import TRACER
from repro.runtime.scheduling import iteration_imbalance
from repro.runtime.traffic import IterationProfile, ModelConfig
from repro.schemes.pricing import _price_spec, _simulate_cmh
from repro.schemes.spec import SchemeSpec
from repro.sim.metrics import RunMetrics
from repro.stages.artifacts import (
    CompressArtifact,
    ReplayArtifact,
    StreamArtifact,
)


@dataclass(frozen=True)
class PricingView:
    """Lightweight stand-in for a Workload inside the cost models: the
    two attributes they read."""

    app: str
    frontier_based: bool


def assemble_profiles(stream: StreamArtifact, replay: ReplayArtifact,
                      compress: CompressArtifact,
                      num_cores: int) -> List[IterationProfile]:
    """Assemble per-iteration profiles from the three artifacts."""
    profiles = []
    for it, rp, cp in zip(stream.iterations, replay.iterations,
                          compress.iterations):
        profiles.append(IterationProfile(
            weight=it.weight,
            num_sources=it.num_sources,
            num_edges=it.num_edges,
            offsets_bytes=it.offsets_bytes,
            neigh_bytes=it.neigh_bytes,
            neigh_bytes_compressed=cp.neigh_bytes_compressed,
            edge_value_bytes=it.edge_value_bytes,
            edge_value_bytes_compressed=(
                compress.edge_value_bytes_compressed
                if stream.edge_values is not None else 0),
            src_bytes=it.src_bytes,
            src_bytes_compressed=cp.src_bytes_compressed,
            frontier_bytes=it.frontier_bytes,
            frontier_bytes_compressed=cp.frontier_bytes_compressed,
            push_dest_read_bytes=rp.push_dest_read_bytes,
            push_dest_write_bytes=rp.push_dest_write_bytes,
            push_dest_misses=rp.push_dest_misses,
            num_bins=rp.num_bins,
            update_bytes=it.update_bytes,
            update_bytes_compressed=cp.update_bytes_compressed,
            update_bytes_compressed_unsorted=(
                cp.update_bytes_compressed_unsorted),
            ub_dest_bytes=rp.ub_dest_bytes,
            ub_dest_bytes_compressed=cp.ub_dest_bytes_compressed,
            phi_spilled_updates=int(rp.phi_spilled_ids.size),
            phi_update_bytes=rp.phi_update_bytes,
            phi_update_bytes_compressed=cp.phi_update_bytes_compressed,
            load_imbalance=iteration_imbalance(it.active_degrees,
                                               num_cores=num_cores),
        ))
    return profiles


def price_staged(spec: SchemeSpec, profiles: List[IterationProfile],
                 view: PricingView, cfg: ModelConfig,
                 dataset: str, preprocessing: str,
                 cmh_ratios: Dict[str, float],
                 push_replays: List[Tuple[int, int]]) -> RunMetrics:
    """Price one scheme against assembled profiles and frozen extras."""
    if spec.cmh:
        with TRACER.span("pricing.cmh", scheme=spec.canonical()):
            return _simulate_cmh(view, profiles, spec, cfg, dataset,
                                 preprocessing, cmh_ratios, push_replays)
    with TRACER.span("pricing.price", scheme=spec.canonical()):
        return _price_spec(view, profiles, spec, cfg, dataset,
                           preprocessing)
