"""Bottleneck timing model (DESIGN.md Sec 4).

The paper's own analysis motivates a roofline-style model: SpZip schemes
and PHI "saturate memory bandwidth", while software "Push and UB often do
not saturate memory bandwidth, as traversals bottleneck cores" (Sec V-A),
and Push additionally serializes on atomic read-modify-writes to shared
destination data.  A phase's runtime is the slower of:

* the cores: instruction work plus exposed miss stalls, divided across
  the 16 cores, and
* the memory system: off-chip bytes divided by the achievable bandwidth,
  de-rated when traffic is dominated by scattered (row-miss) accesses.

Per-scheme cost constants live in
:data:`repro.schemes.costs.SCHEME_COSTS`, keyed by scheme spec; this
module holds only the generic machinery (cost dataclass, work
aggregate, bandwidth derate, and the bottleneck combiner).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig

#: Effective-bandwidth multiplier when traffic is fully scattered
#: (row-buffer misses: activate + precharge overhead roughly halves
#: achievable burst bandwidth).
RANDOM_BW_DERATE = 0.55

#: Loaded DRAM round-trip seen by a stalled core (cycles).
MISS_LATENCY = 200


@dataclass(frozen=True)
class SchemeCosts:
    """Per-scheme core-side cost constants (cycles, per event)."""

    #: plain instruction work per edge processed (traversal + update).
    cycles_per_edge: float
    #: instruction work per active vertex (loop/frontier overhead).
    cycles_per_vertex: float
    #: exposed stall cycles per off-chip destination miss (after MLP).
    stall_per_miss: float
    #: extra per-update work during the accumulation phase (UB/PHI).
    cycles_per_update: float = 0.0
    #: achieved fraction of peak bandwidth on *scattered* traffic.
    #: Demand misses from stalled cores arrive a few at a time (row-buffer
    #: thrashing); decoupled engines issue deep request streams the
    #: FR-FCFS scheduler can reorder for row hits and bank parallelism.
    random_derate: float = RANDOM_BW_DERATE


@dataclass
class PhaseWork:
    """Aggregated work of one simulated phase (all cores together)."""

    edges: float = 0.0
    vertices: float = 0.0
    updates: float = 0.0
    dest_misses: float = 0.0
    seq_bytes: float = 0.0
    rand_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.seq_bytes + self.rand_bytes

    def add(self, other: "PhaseWork") -> None:
        self.edges += other.edges
        self.vertices += other.vertices
        self.updates += other.updates
        self.dest_misses += other.dest_misses
        self.seq_bytes += other.seq_bytes
        self.rand_bytes += other.rand_bytes


def effective_bytes_per_cycle(system: SystemConfig, seq_bytes: float,
                              rand_bytes: float,
                              random_derate: float = RANDOM_BW_DERATE
                              ) -> float:
    """Peak bandwidth de-rated by the scattered-traffic fraction."""
    total = seq_bytes + rand_bytes
    if total <= 0:
        return system.bytes_per_cycle
    seq_fraction = seq_bytes / total
    derate = seq_fraction + (1.0 - seq_fraction) * random_derate
    return system.bytes_per_cycle * derate


def phase_cycles(work: PhaseWork, costs: SchemeCosts,
                 system: SystemConfig):
    """(total, compute, memory) cycles for one phase."""
    compute = (work.edges * costs.cycles_per_edge
               + work.vertices * costs.cycles_per_vertex
               + work.updates * costs.cycles_per_update
               + work.dest_misses * costs.stall_per_miss) \
        / system.num_cores
    bw = effective_bytes_per_cycle(system, work.seq_bytes, work.rand_bytes,
                                   costs.random_derate)
    memory = work.total_bytes / bw
    return max(compute, memory), compute, memory
