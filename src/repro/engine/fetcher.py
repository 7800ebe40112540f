"""The SpZip fetcher (paper Sec III-B, Fig 10).

The fetcher runs DCL traversal programs decoupled from its core: the core
enqueues initial inputs (e.g. a vertex range), the fetcher autonomously
walks offsets / neighbour lists / indirections, decompressing as it goes,
and the core dequeues ready data.  It issues memory accesses to its
core's private **L2** so that data stays compressed in the L2/LLC,
increasing effective cache capacity.

Hosts the access unit (range/indirect) and decompression unit operators.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SpZipConfig
from repro.dcl.program import FETCHER_KINDS
from repro.engine.base import MemPort, SpZipEngine
from repro.memory.address import AddressSpace
from repro.memory.hierarchy import MemoryHierarchy


class Fetcher(SpZipEngine):
    """Per-core traversal + decompression engine."""

    allowed_kinds = FETCHER_KINDS

    def __init__(self, config: SpZipConfig, space: AddressSpace,
                 mem_port: Optional[MemPort] = None,
                 mem_latency: int = 20) -> None:
        super().__init__(config, space, mem_port, mem_latency)

    @classmethod
    def for_core(cls, hierarchy: MemoryHierarchy, core: int = 0,
                 config: Optional[SpZipConfig] = None,
                 program=None) -> "Fetcher":
        """Build a fetcher wired to ``core``'s L2 (the paper's topology).

        With ``program`` the fetcher comes back fully wired
        (:meth:`SpZipEngine.from_program` against the hierarchy's space).
        """
        config = config or hierarchy.config.spzip

        def port(addr: int, nbytes: int, write: bool) -> int:
            return hierarchy.access(addr, nbytes, core=core, write=write,
                                    start_level="l2")

        if program is not None:
            return cls.from_program(program, hierarchy.space, config,
                                    mem_port=port)
        return cls(config, hierarchy.space, mem_port=port)
