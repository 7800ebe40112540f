"""Price one scheme spec against iteration profiles into
:class:`RunMetrics`.

:func:`_price_spec` looks up the spec's cost model and constants,
accumulates weighted per-iteration traffic and work, and runs the
bottleneck timing model.  The CMH overlay takes a separate loop
(:func:`_simulate_cmh`) because it prices against measured BDI/LCP
compression ratios of the workload's actual arrays rather than SpZip's
profile-side compressed byte counts.  Both are driven by the timing
stage (:func:`repro.stages.timing.price_staged`); the compress stage
measures the ratios with the BDI/LCP helpers below.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.compression import bdi_line_sizes
from repro.memory.address import LINE_BYTES
from repro.schemes.costs import cost_model_for, costs_for
from repro.schemes.spec import SchemeSpec
from repro.sim.metrics import RunMetrics, merge_traffic
from repro.sim.timing import PhaseWork, phase_cycles


def _price_spec(workload, profiles, spec: SchemeSpec, cfg,
                dataset: str, preprocessing: str) -> RunMetrics:
    model = cost_model_for(spec)
    costs = costs_for(spec)
    parts = spec.effective_parts

    traffic_parts: List[Dict[str, float]] = []
    work = PhaseWork()
    for p in profiles:
        t, w = model.iteration_cost(workload, p, parts)
        traffic_parts.append({cls: v * p.weight for cls, v in t.items()})
        # Instruction work stretches by the work-stealing imbalance of
        # this iteration's active set (Sec III-D).  Miss stalls do not:
        # while one core sits in a long-latency chunk, the others steal
        # around it, so stalls pipeline across the chunk population.
        # Traffic is unaffected by scheduling.
        stretch = p.weight * p.load_imbalance
        w_scaled = PhaseWork(
            edges=w.edges * stretch,
            vertices=w.vertices * stretch,
            updates=w.updates * stretch,
            dest_misses=w.dest_misses * p.weight,
            seq_bytes=w.seq_bytes * p.weight,
            rand_bytes=w.rand_bytes * p.weight,
        )
        work.add(w_scaled)

    traffic = merge_traffic(traffic_parts)
    cycles, compute, memory = phase_cycles(work, costs, cfg.system)
    return RunMetrics(app=workload.app, scheme=spec.display,
                      dataset=dataset, preprocessing=preprocessing,
                      cycles=cycles, compute_cycles=compute,
                      memory_cycles=memory, traffic=traffic)


# --------------------------------------------------------------------------
# Compressed memory hierarchy baseline (Fig 22)
# --------------------------------------------------------------------------
#
# LCP main memory (Pekhimenko et al.) stores every line of a 4 KB page at
# one uniform slot size, so one DRAM transfer can carry several
# compressed lines; a page with an incompressible line is stored raw.

PAGE_BYTES = 4096

#: LCP slot menu: lines compress to one of these sizes or the page is
#: stored uncompressed (values from the LCP paper's practical designs).
LCP_SLOT_SIZES = (16, 21, 32, 44)


def _bdi_ratio(data: bytes) -> float:
    """Average BDI compression ratio over 64-byte lines of ``data``.

    Every line counts, including a trailing partial line (zero-padded,
    like the line-granular memory that stores it) — previously the tail
    of a non-line-multiple buffer was silently dropped, and sub-line
    buffers degenerated to 1.0.
    """
    if not data:
        return 1.0
    sizes = bdi_line_sizes(data)
    return float(sizes.size * LINE_BYTES) / float(sizes.sum())


#: Lines per LCP page (4 KiB / 64 B).
_LINES_PER_PAGE = PAGE_BYTES // LINE_BYTES


def _lcp_fetch_ratio(data: bytes) -> float:
    """Mean LCP traffic reduction: per 4 KB page, every line is stored
    at the smallest uniform slot that fits the page's *worst* line.

    Vectorized over the whole buffer (one BDI sweep + per-page max);
    a trailing partial line is zero-padded, matching :func:`_bdi_ratio`.
    """
    if not data:
        return 1.0
    sizes = bdi_line_sizes(data)
    pad = (-sizes.size) % _LINES_PER_PAGE
    if pad:
        # Missing lines of a partial final page cannot raise its worst.
        sizes = np.concatenate([sizes, np.zeros(pad, dtype=sizes.dtype)])
    worst = sizes.reshape(-1, _LINES_PER_PAGE).max(axis=1)
    slots = np.full(worst.shape, LINE_BYTES, dtype=np.int64)
    for candidate in reversed(LCP_SLOT_SIZES):
        slots[worst <= candidate] = candidate
    return float(np.mean(LINE_BYTES / slots))


def _simulate_cmh(workload, profiles, spec: SchemeSpec, cfg,
                  dataset: str, preprocessing: str,
                  ratios: Dict[str, float],
                  replays: List[Tuple[int, int]]) -> RunMetrics:
    """Push/UB on the VSC+BDI LLC + LCP memory system (Sec V-D).

    ``ratios`` are the compress stage's BDI/LCP measurements and
    ``replays`` one frozen ``(misses, writebacks)`` Push scatter replay
    per profile, so ``workload`` may be a lightweight pricing view.
    """
    model = cost_model_for(spec)
    costs = costs_for(spec)
    # VSC's extra residency for scattered read-modify-write data is
    # modelled as nil: every update changes the line's compressed size,
    # forcing repacks that erode the capacity win, and at model scale the
    # per-input LLC sizing sits at the residency knee where any capacity
    # delta would be wildly amplified (a scale artifact, not a mechanism
    # — see DESIGN.md).  CMH's modelled benefits are LCP's read-traffic
    # reduction, at the price of critical-path decompression.
    traffic_parts: List[Dict[str, float]] = []
    work = PhaseWork()
    for p, replay in zip(profiles, replays):
        t, w = model.cmh_iteration_cost(workload, p, ratios, replay)
        traffic_parts.append({cls: v * p.weight for cls, v in t.items()})
        scaled = PhaseWork(**{f: getattr(w, f) * p.weight
                              for f in ("edges", "vertices", "updates",
                                        "dest_misses", "seq_bytes",
                                        "rand_bytes")})
        work.add(scaled)

    traffic = merge_traffic(traffic_parts)
    cycles, compute, memory = phase_cycles(work, costs, cfg.system)
    return RunMetrics(app=workload.app, scheme=spec.display,
                      dataset=dataset, preprocessing=preprocessing,
                      cycles=cycles, compute_cycles=compute,
                      memory_cycles=memory, traffic=traffic,
                      extras=ratios)
