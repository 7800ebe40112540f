"""The SpZip compressor (paper Sec III-C, Fig 12).

The dual of the fetcher: compresses newly generated data before it is
written back to main memory.  It issues **LLC** accesses rather than L2
accesses — avoiding private-cache pollution and letting the large LLC
buffer yet-to-be-compressed data (the MQU's in-memory queues).

Hosts the compression unit (CU), stream writer (SWU), and memory-backed
queue unit (MQU) operators.  ``drain()`` implements the
``spzip_comp_drain()`` runtime call of Listing 5: close every MQU queue
and run until all buffered data is compressed and written.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SpZipConfig
from repro.dcl.operators import MemQueueOp
from repro.dcl.program import COMPRESSOR_KINDS
from repro.engine.base import MemPort, SpZipEngine
from repro.memory.address import AddressSpace
from repro.memory.hierarchy import MemoryHierarchy


class Compressor(SpZipEngine):
    """Per-core compression engine (LLC-side)."""

    allowed_kinds = COMPRESSOR_KINDS

    def __init__(self, config: SpZipConfig, space: AddressSpace,
                 mem_port: Optional[MemPort] = None,
                 mem_latency: int = 30) -> None:
        super().__init__(config, space, mem_port, mem_latency)

    @classmethod
    def for_core(cls, hierarchy: MemoryHierarchy, core: int = 0,
                 config: Optional[SpZipConfig] = None,
                 program=None) -> "Compressor":
        """Build a compressor issuing to the shared LLC.

        With ``program`` the compressor comes back fully wired
        (:meth:`SpZipEngine.from_program` against the hierarchy's space).
        """
        config = config or hierarchy.config.spzip

        def port(addr: int, nbytes: int, write: bool) -> int:
            return hierarchy.access(addr, nbytes, core=core, write=write,
                                    start_level="llc")

        if program is not None:
            return cls.from_program(program, hierarchy.space, config,
                                    mem_port=port)
        return cls(config, hierarchy.space, mem_port=port)

    def drain(self, max_cycles: int = 10_000_000) -> int:
        """Close every MQU and run until all buffered data is flushed.

        MQUs are closed in declaration (topological) order with a full
        engine drain between closes, so data released by an upstream MQU
        reaches downstream MQUs before *they* are closed (the Fig 14
        two-MQU pipeline needs this).
        """
        start = self.cycle
        mqus = [op for op in self.operators if isinstance(op, MemQueueOp)]
        for _ in range(len(mqus) + 1):
            self.run(max_cycles)
            if not any(op.pending_elems() for op in mqus):
                break
            for op in mqus:
                # A marker with an out-of-range id closes every queue.
                self._push_blocking(op.in_queue, op.num_queues, marker=True)
                self.run(max_cycles)
        else:
            raise RuntimeError("MQU drain did not converge")
        return self.cycle - start

    def _push_blocking(self, queue, value: int, marker: bool) -> None:
        while not queue.try_push(value, marker):
            self.tick()
