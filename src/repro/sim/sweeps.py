"""Sensitivity sweeps over system parameters.

Not paper figures — response-surface tools a user of the model reaches
for next: how do the schemes respond to more memory bandwidth, a bigger
LLC, or more cores?  Every point prices through the stage pipeline.
Bandwidth and core points are stage pricers over the swept system that
share one in-memory store: their stream/replay/compress keys coincide,
so only the timing stage reprices per point.

The bandwidth sweep answers the paper's implicit question directly:
under scarce bandwidth every scheme is traffic-limited (advantage =
traffic ratio); as bandwidth grows, software Push hits its compute/stall
floor first, widening SpZip's lead until both saturate — at which point
extra bandwidth buys nothing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.config import SystemConfig
from repro.sim.runner import Runner


class _SweepStore(dict):
    """In-memory stage store shared by one sweep's pricers."""

    put = dict.__setitem__


def _pricers(runner: Runner, systems: Sequence[SystemConfig]) -> list:
    from repro.stages import StagePricer
    store = _SweepStore()
    return [StagePricer(scale=runner.scale, system=system, cache=store)
            for system in systems]


def bandwidth_sweep(runner: Runner, app: str, dataset: str,
                    preprocessing: str = "none",
                    factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
                    schemes: Sequence[str] = ("push", "phi",
                                              "phi+spzip"),
                    ) -> List[Dict[str, object]]:
    """Rerun schemes with DRAM bandwidth scaled by each factor.

    Traffic profiles are bandwidth-independent, so the points share
    their stage artifacts; only the timing changes.
    """
    memory = runner.system.memory
    systems = [replace(runner.system, memory=replace(
        memory, gb_per_sec_per_controller=memory.gb_per_sec_per_controller
        * factor)) for factor in factors]
    rows: List[Dict[str, object]] = []
    for factor, pricer in zip(factors, _pricers(runner, systems)):
        runs = {scheme: pricer.price(app, scheme, dataset, preprocessing)
                for scheme in schemes}
        row: Dict[str, object] = {"bandwidth_factor": factor}
        base = runs[schemes[0]]
        for scheme in schemes:
            row[scheme] = runs[scheme].speedup_over(base)
        rows.append(row)
    return rows


def llc_sweep(runner: Runner, app: str, dataset: str,
              preprocessing: str = "none",
              factors: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
              schemes: Sequence[str] = ("push", "phi+spzip"),
              ) -> List[Dict[str, object]]:
    """Rerun schemes with the model LLC scaled by each factor.

    Capacity changes the cache replays, so profiles are rebuilt per
    point (the expensive sweep).  The swept LLC scales the per-input
    sized one, which is not a system edit, so each point prices through
    the uncached stage composition under its own model config.
    """
    from repro.runtime.traffic import ModelConfig
    from repro.schemes import resolve
    from repro.stages.pipeline import compose, price_bundle
    workload = runner.workload(app, dataset, preprocessing)
    base_cfg = runner.config_for(workload)
    rows: List[Dict[str, object]] = []
    for factor in factors:
        granule = base_cfg.system.llc.ways * base_cfg.system.llc.line_bytes
        size = max(granule,
                   int(base_cfg.system.llc.size_bytes * factor)
                   // granule * granule)
        llc = replace(base_cfg.system.llc, size_bytes=size)
        system = replace(base_cfg.system, llc=llc)
        bundle = compose(workload, ModelConfig(system=system,
                                               id_scale=base_cfg.id_scale))
        runs = {scheme: price_bundle(bundle, resolve(scheme), dataset,
                                     preprocessing)
                for scheme in schemes}
        row: Dict[str, object] = {"llc_factor": factor,
                                  "llc_bytes": size}
        base = runs[schemes[0]]
        for scheme in schemes:
            row[scheme] = runs[scheme].speedup_over(base)
        rows.append(row)
    return rows


def core_sweep(runner: Runner, app: str, dataset: str,
               preprocessing: str = "none",
               counts: Sequence[int] = (4, 8, 16, 32),
               scheme: str = "push") -> List[Dict[str, object]]:
    """Scale core count; shows where each scheme stops scaling (the
    compute-vs-bandwidth crossover).

    Each point re-assembles its profiles at its own core count: the
    work-stealing load imbalance depends on it.
    """
    systems = [replace(runner.system, num_cores=count)
               for count in counts]
    rows: List[Dict[str, object]] = []
    base_cycles: Optional[float] = None
    for count, pricer in zip(counts, _pricers(runner, systems)):
        run = pricer.price(app, scheme, dataset, preprocessing)
        if base_cycles is None:
            base_cycles = run.cycles
        rows.append({"cores": count,
                     "speedup": base_cycles / run.cycles,
                     "bound": "memory" if run.bandwidth_bound
                     else "core"})
    return rows
