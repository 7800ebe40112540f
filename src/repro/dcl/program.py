"""DCL programs: acyclic operator graphs with validated resources.

A :class:`Program` is the software artifact the core loads into a SpZip
engine (Sec III-B "Fetcher usage and API"): a set of queue declarations
plus operator contexts wired to them.  The builder API mirrors the
pipelines of Figs 2-6 and 13-14::

    p = Program()
    p.queue("input", elem_bytes=8)
    p.queue("offsets", elem_bytes=8)
    p.queue("rows", elem_bytes=4)
    p.range_fetch("fetch_offsets", "input", ["offsets"], base="offsets_arr",
                  elem_bytes=8)
    p.range_fetch("fetch_rows", "offsets", ["rows"], base="rows_arr",
                  use_end_as_next_start=True)

Validation enforces the hardware's constraints: operator/queue counts
within the engine's context/scratchpad limits, single producer and single
consumer per queue, and acyclicity (the DCL is an acyclic graph of
operators, Sec II-A).  ``base`` addresses may be integers or region names
resolved against an :class:`~repro.memory.address.AddressSpace` at
instantiation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.compression.base import Codec
from repro.config import SpZipConfig
from repro.dcl.operators import (
    BinAppendOp,
    CompressOp,
    DecompressOp,
    IndirectOp,
    MemQueueOp,
    Operator,
    RangeFetchOp,
    StreamWriteOp,
)
from repro.dcl.queue import MarkerQueue

Address = Union[int, str]

#: Operator kinds and the functional unit class they occupy.
OPERATOR_KINDS = ("range", "indirect", "decompress", "compress",
                  "streamwrite", "memqueue", "binappend")

#: Which engine type hosts each operator kind (Sec III: fetchers traverse
#: and decompress; compressors compress and write).
FETCHER_KINDS = frozenset({"range", "indirect", "decompress"})
COMPRESSOR_KINDS = frozenset({"compress", "streamwrite", "memqueue",
                              "binappend"})


@dataclass
class QueueSpec:
    name: str
    elem_bytes: int = 4
    capacity_bytes: Optional[int] = None  # None -> fair share of scratchpad


@dataclass
class OpSpec:
    kind: str
    name: str
    in_queue: Optional[str]
    out_queues: List[str]
    params: Dict[str, object] = field(default_factory=dict)


class ProgramError(ValueError):
    """A DCL program violated a structural or resource constraint."""


class Program:
    """Builder + validator for a DCL operator graph."""

    def __init__(self) -> None:
        self.queues: Dict[str, QueueSpec] = {}
        self.operators: List[OpSpec] = []

    # -- builder API -----------------------------------------------------------

    def queue(self, name: str, elem_bytes: int = 4,
              capacity_bytes: Optional[int] = None) -> str:
        if name in self.queues:
            raise ProgramError(f"queue {name!r} already declared")
        self.queues[name] = QueueSpec(name, elem_bytes, capacity_bytes)
        return name

    def _add(self, kind: str, name: str, in_queue: Optional[str],
             out_queues: Sequence[str], **params) -> str:
        if any(op.name == name for op in self.operators):
            raise ProgramError(f"operator {name!r} already declared")
        for queue in ([in_queue] if in_queue else []) + list(out_queues):
            if queue not in self.queues:
                raise ProgramError(f"operator {name!r} references "
                                   f"undeclared queue {queue!r}")
        self.operators.append(OpSpec(kind, name, in_queue,
                                     list(out_queues), params))
        return name

    def range_fetch(self, name: str, in_queue: str,
                    out_queues: Sequence[str], base: Address,
                    elem_bytes: int = 4, marker_value: int = 0,
                    use_end_as_next_start: bool = False,
                    emit_range_markers: bool = True) -> str:
        return self._add("range", name, in_queue, out_queues, base=base,
                         elem_bytes=elem_bytes, marker_value=marker_value,
                         use_end_as_next_start=use_end_as_next_start,
                         emit_range_markers=emit_range_markers)

    def indirect(self, name: str, in_queue: str,
                 out_queues: Sequence[str], base: Address,
                 elem_bytes: int = 8, fetch_pair: bool = False) -> str:
        return self._add("indirect", name, in_queue, out_queues, base=base,
                         elem_bytes=elem_bytes, fetch_pair=fetch_pair)

    def decompress(self, name: str, in_queue: str,
                   out_queues: Sequence[str], codec: Codec,
                   elem_bytes: int = 4) -> str:
        return self._add("decompress", name, in_queue, out_queues,
                         codec=codec, elem_bytes=elem_bytes)

    def compress(self, name: str, in_queue: str,
                 out_queues: Sequence[str], codec: Codec,
                 elem_bytes: int = 4, chunk_elems: int = 32,
                 sort_chunks: bool = False) -> str:
        return self._add("compress", name, in_queue, out_queues,
                         codec=codec, elem_bytes=elem_bytes,
                         chunk_elems=chunk_elems, sort_chunks=sort_chunks)

    def stream_write(self, name: str, in_queue: str, base: Address,
                     capacity_bytes: int) -> str:
        return self._add("streamwrite", name, in_queue, [], base=base,
                         capacity_bytes=capacity_bytes)

    def mem_queue(self, name: str, in_queue: str,
                  out_queues: Sequence[str], num_queues: int, base: Address,
                  bytes_per_queue: int, value_bytes: int = 8,
                  flush_elems: int = 32, on_flush=None) -> str:
        return self._add("memqueue", name, in_queue, out_queues,
                         num_queues=num_queues, base=base,
                         bytes_per_queue=bytes_per_queue,
                         value_bytes=value_bytes, flush_elems=flush_elems,
                         on_flush=on_flush)

    def bin_append(self, name: str, in_queue: str, num_queues: int,
                   base: Address, bytes_per_queue: int,
                   on_overflow=None) -> str:
        return self._add("binappend", name, in_queue, [],
                         num_queues=num_queues, base=base,
                         bytes_per_queue=bytes_per_queue,
                         on_overflow=on_overflow)

    # -- validation ---------------------------------------------------------------

    def validate(self, config: SpZipConfig,
                 engine_kinds: Optional[frozenset] = None) -> None:
        """Check structural and resource constraints; raise ProgramError."""
        if len(self.queues) > config.max_queues:
            raise ProgramError(
                f"{len(self.queues)} queues exceed the engine's "
                f"{config.max_queues}")
        if len(self.operators) > config.max_contexts:
            raise ProgramError(
                f"{len(self.operators)} operators exceed the engine's "
                f"{config.max_contexts} contexts")
        if engine_kinds is not None:
            for op in self.operators:
                if op.kind not in engine_kinds:
                    raise ProgramError(
                        f"operator {op.name!r} ({op.kind}) is not "
                        f"supported by this engine type")
        producers: Dict[str, str] = {}
        consumers: Dict[str, str] = {}
        for op in self.operators:
            if op.in_queue is not None:
                if op.in_queue in consumers:
                    raise ProgramError(
                        f"queue {op.in_queue!r} consumed by both "
                        f"{consumers[op.in_queue]!r} and {op.name!r}")
                consumers[op.in_queue] = op.name
            for queue in op.out_queues:
                if queue in producers:
                    raise ProgramError(
                        f"queue {queue!r} produced by both "
                        f"{producers[queue]!r} and {op.name!r}")
                producers[queue] = op.name
        self._check_acyclic(producers, consumers)
        self._check_scratchpad(config)

    def _check_acyclic(self, producers: Dict[str, str],
                       consumers: Dict[str, str]) -> None:
        # Edge producer(q) -> consumer(q) for every internal queue.
        edges: Dict[str, List[str]] = {op.name: [] for op in self.operators}
        for queue, producer in producers.items():
            consumer = consumers.get(queue)
            if consumer is not None:
                edges[producer].append(consumer)
        state: Dict[str, int] = {}

        def visit(node: str) -> None:
            state[node] = 1
            for succ in edges[node]:
                if state.get(succ) == 1:
                    raise ProgramError(f"cycle through operator {succ!r}")
                if succ not in state:
                    visit(succ)
            state[node] = 2

        for op in self.operators:
            if op.name not in state:
                visit(op.name)

    def _check_scratchpad(self, config: SpZipConfig) -> None:
        explicit = sum(q.capacity_bytes or 0 for q in self.queues.values())
        if explicit > config.scratchpad_bytes:
            raise ProgramError(
                f"explicit queue capacities ({explicit}B) exceed the "
                f"{config.scratchpad_bytes}B scratchpad")
        auto = [q for q in self.queues.values() if q.capacity_bytes is None]
        if auto:
            share = (config.scratchpad_bytes - explicit) // len(auto)
            need = max(max(q.elem_bytes, 4) for q in auto)
            if share < need:
                raise ProgramError("scratchpad too small for queue count")

    # -- instantiation ---------------------------------------------------------------

    def input_queues(self) -> List[str]:
        """Queues no operator produces (the core enqueues to these)."""
        produced = {q for op in self.operators for q in op.out_queues}
        return [name for name in self.queues if name not in produced]

    def output_queues(self) -> List[str]:
        """Queues no operator consumes (the core dequeues from these)."""
        consumed = {op.in_queue for op in self.operators if op.in_queue}
        return [name for name in self.queues if name not in consumed]

    def instantiate(self, config: SpZipConfig, resolve_addr):
        """Build concrete queues and operators.

        ``resolve_addr`` maps an ``Address`` (int or region name) to a
        concrete base address.  Returns ``(queues, operators)``.
        """
        explicit = sum(q.capacity_bytes or 0 for q in self.queues.values())
        auto = [q for q in self.queues.values() if q.capacity_bytes is None]
        share = ((config.scratchpad_bytes - explicit) // len(auto)) \
            if auto else 0
        queues: Dict[str, MarkerQueue] = {}
        for spec in self.queues.values():
            capacity = spec.capacity_bytes or share
            queues[spec.name] = MarkerQueue(spec.name, capacity,
                                            spec.elem_bytes)
        operators: List[Operator] = []
        for op in self.operators:
            in_q = queues[op.in_queue] if op.in_queue else None
            out_qs = [queues[name] for name in op.out_queues]
            params = dict(op.params)
            if "base" in params:
                params["base_addr"] = resolve_addr(params.pop("base"))
            operators.append(_build_operator(op.kind, op.name, in_q,
                                             out_qs, params))
        return queues, operators


def _build_operator(kind: str, name: str, in_q, out_qs, params) -> Operator:
    if kind == "range":
        return RangeFetchOp(name, in_q, out_qs, **params)
    if kind == "indirect":
        return IndirectOp(name, in_q, out_qs, **params)
    if kind == "decompress":
        return DecompressOp(name, in_q, out_qs, **params)
    if kind == "compress":
        return CompressOp(name, in_q, out_qs, **params)
    if kind == "streamwrite":
        params = dict(params)
        params["base_addr"] = params.pop("base_addr")
        return StreamWriteOp(name, in_q, **params)
    if kind == "memqueue":
        return MemQueueOp(name, in_q, out_qs, **params)
    if kind == "binappend":
        return BinAppendOp(name, in_q, **params)
    raise ProgramError(f"unknown operator kind {kind!r}")
