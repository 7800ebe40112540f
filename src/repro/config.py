"""System configuration constants for the simulated multicore (paper Table II).

The paper evaluates SpZip on a 16-core Haswell-like system simulated with
zsim.  This module captures the same machine description as a dataclass so
every part of the model (timing, cache sizing, NoC geometry) reads from one
place.

Two knobs deserve explanation:

``scale``
    The paper runs billion-edge graphs against a 32 MB LLC.  A pure-Python
    model cannot stream billions of edges, so datasets are linearly scaled
    down (see ``repro.graph.datasets``) and the *capacity-sensitive*
    structures (LLC, L2, bins) are scaled by the same factor.  What drives
    every locality phenomenon in the paper is the ratio of working-set size
    to cache capacity, and linear co-scaling preserves that ratio.

``bytes_per_cycle``
    4 memory controllers x 12.8 GB/s at 3.5 GHz is ~14.63 bytes per cycle of
    peak DRAM bandwidth.  The bottleneck timing model uses this directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: Linear scale-down factor between the paper's inputs and our synthetic
#: stand-ins (see DESIGN.md section 5).
DEFAULT_SCALE = 1024


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = 64
    latency_cycles: int = 1
    replacement: str = "lru"  # "lru" or "drrip"

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("cache size must be positive")
        if self.ways <= 0:
            raise ValueError("associativity must be positive")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")


@dataclass(frozen=True)
class MemoryConfig:
    """Main memory: 4 FR-FCFS DDR3-1600 controllers (Table II)."""

    controllers: int = 4
    gb_per_sec_per_controller: float = 12.8
    latency_cycles: int = 200  # typical loaded DRAM round trip seen by core

    @property
    def total_gb_per_sec(self) -> float:
        return self.controllers * self.gb_per_sec_per_controller


@dataclass(frozen=True)
class NocConfig:
    """4x4 mesh with X-Y routing, 128-bit flits (Table II)."""

    mesh_width: int = 4
    mesh_height: int = 4
    flit_bytes: int = 16
    router_latency_cycles: int = 1
    link_latency_cycles: int = 1


@dataclass(frozen=True)
class SpZipConfig:
    """Per-engine parameters of the SpZip fetcher/compressor (Sec III)."""

    scratchpad_bytes: int = 2048
    max_contexts: int = 16
    max_queues: int = 16
    au_outstanding_lines: int = 8
    fu_bytes_per_cycle: int = 32


@dataclass(frozen=True)
class SystemConfig:
    """Full simulated system (paper Table II), plus model scaling."""

    num_cores: int = 16
    freq_ghz: float = 3.5
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 8, latency_cycles=3)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * 1024, 8, latency_cycles=6)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            32 * 1024 * 1024, 16, latency_cycles=24, replacement="drrip"
        )
    )
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    spzip: SpZipConfig = field(default_factory=SpZipConfig)
    scale: int = 1

    @property
    def bytes_per_cycle(self) -> float:
        """Peak DRAM bandwidth in bytes per core-clock cycle."""
        return self.memory.total_gb_per_sec / self.freq_ghz

    def scaled(self, scale: int = DEFAULT_SCALE) -> "SystemConfig":
        """Return a copy with capacity-sensitive structures scaled down.

        Caches keep their associativity and line size; only capacity
        shrinks, with small floors so the geometry stays legal.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")

        def shrink(cache: CacheConfig, floor: int) -> CacheConfig:
            size = max(floor, cache.size_bytes // scale)
            # Keep sets a power of two by rounding size to a multiple of
            # ways * line size.
            granule = cache.ways * cache.line_bytes
            size = max(granule, (size // granule) * granule)
            return replace(cache, size_bytes=size)

        # The LLC floor is calibrated so the scaled system sits in the
        # same scatter-update hit-rate regime as the paper's: real web
        # graphs concentrate in-links on mega-hubs far more than a small
        # synthetic graph can (duplicate edges collapse), so the model
        # LLC keeps a slightly larger share of the hot destination lines
        # to compensate (see DESIGN.md "Substitutions").
        return replace(
            self,
            l1d=shrink(self.l1d, 2 * 1024),
            l2=shrink(self.l2, 4 * 1024),
            llc=shrink(self.llc, 32 * 1024),
            scale=scale,
        )


def default_system() -> SystemConfig:
    """The paper's Table II system at full scale."""
    return SystemConfig()
