"""On-chip network model: 4x4 mesh, X-Y routing (Table II).

The NoC matters for SpZip in two places: fetcher requests travel from a
core tile to an LLC bank, and PHI+SpZip routes evicted update lines to the
compressor "in the same chip tile" (Sec IV), i.e. with zero-hop cost.  The
model provides hop counts and the mean core-to-LLC-bank round trip, so
the hierarchy's LLC latency is grounded rather than guessed.
"""

from __future__ import annotations

from typing import Tuple

from repro.config import NocConfig


class MeshNoc:
    """X-Y routed mesh with pipelined single-cycle routers."""

    def __init__(self, config: NocConfig) -> None:
        self.config = config

    @property
    def num_tiles(self) -> int:
        return self.config.mesh_width * self.config.mesh_height

    def coords(self, tile: int) -> Tuple[int, int]:
        if not 0 <= tile < self.num_tiles:
            raise ValueError(f"tile {tile} out of range")
        return tile % self.config.mesh_width, tile // self.config.mesh_width

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance under X-Y routing."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def average_hops(self) -> float:
        """Mean hop count over all (src, dst) pairs, dst uniform (LLC
        banks are address-hashed across all tiles)."""
        total = sum(self.hops(s, d)
                    for s in range(self.num_tiles)
                    for d in range(self.num_tiles))
        return total / (self.num_tiles ** 2)

    def average_llc_latency(self, bank_latency: int) -> float:
        """Mean round-trip cycles from a core to a hashed LLC bank."""
        hops = self.average_hops()
        per_hop = (self.config.router_latency_cycles
                   + self.config.link_latency_cycles)
        return 2 * hops * per_hop + bank_latency
