"""DCL operators: memory access, (de)compression, and stream plumbing.

Each operator is one context in the time-multiplexed engine (Fig 10/12):
it reads one input queue, writes zero or more output queues, and fires at
most once per scheduler slot, moving up to the functional unit's
throughput (32 bytes by default).  Markers pass through every operator
(Sec III-B), so chunk boundaries survive the whole pipeline.

Memory operators do not touch memory directly; they issue requests
through the engine's *access unit* (``engine.au_issue``), which models
bounded outstanding misses and in-order response delivery — the source of
SpZip's latency hiding.

Operator menu (paper Secs II-A, III-B, III-C):

=================  =====  ==========================================
class              FU     role
=================  =====  ==========================================
RangeFetchOp       AU     fetch ``A[i..j)`` per input range
IndirectOp         AU     fetch ``A[i]`` per input index
DecompressOp       DU     marker-delimited payload -> elements
CompressOp         CU     elements -> compressed payload
StreamWriteOp      SWU    byte stream -> sequential memory writes
MemQueueOp         MQU    (queue id, value) -> many in-memory queues
=================  =====  ==========================================
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.compression.base import Codec
from repro.dcl.queue import Entry, MarkerQueue

_RANGE_SHIFT = 32
_RANGE_MASK = (1 << 32) - 1

#: Sentinel returned by :meth:`Operator.ready_at` when an operator cannot
#: predict its own readiness: it is blocked on queue state that only some
#: other agent (another operator, an AU delivery, the core) can change.
NEVER = 1 << 62


def pack_range(start: int, end: int) -> int:
    """Pack a [start, end) pair into one 64-bit queue entry."""
    if not 0 <= start <= _RANGE_MASK or not 0 <= end <= _RANGE_MASK:
        raise ValueError("range endpoints must fit in 32 bits")
    return (start << _RANGE_SHIFT) | end


def unpack_range(value: int):
    return value >> _RANGE_SHIFT, value & _RANGE_MASK


def pack_tuple(queue_id: int, value: int, value_bits: int = 64) -> int:
    """Pack an MQU (queue id, value) input entry."""
    if value < 0 or value >> value_bits:
        raise ValueError("value does not fit in the configured width")
    return (queue_id << value_bits) | value


def unpack_tuple(entry_value: int, value_bits: int = 64):
    return entry_value >> value_bits, entry_value & ((1 << value_bits) - 1)


class Operator:
    """Base class: one DCL context."""

    #: which functional unit this operator time-multiplexes
    fu = "none"

    def __init__(self, name: str, in_queue: Optional[MarkerQueue],
                 out_queues: Sequence[MarkerQueue]) -> None:
        self.name = name
        self.in_queue = in_queue
        self.out_queues = list(out_queues)
        self.fires = 0

    # -- scheduling interface -------------------------------------------------

    def ready(self, engine) -> bool:
        raise NotImplementedError

    def ready_at(self, engine) -> int:
        """Earliest cycle this context could fire (a lower bound).

        ``engine.cycle`` when :meth:`ready` holds now; a concrete future
        cycle when the only blocker is time-based (operators waiting on
        the access unit override this to report the next completion);
        :data:`NEVER` when blocked on state only other agents can change.
        The event-driven scheduler uses these bounds to jump the cycle
        counter over guaranteed-idle stretches.
        """
        return engine.cycle if self.ready(engine) else NEVER

    def fire(self, engine) -> None:
        raise NotImplementedError

    def done(self, engine) -> bool:
        """True when no internal work is pending (for drain detection)."""
        return True

    # -- helpers ---------------------------------------------------------------

    def _throughput_elems(self, engine, elem_bytes: int) -> int:
        return max(1, engine.config.fu_bytes_per_cycle // elem_bytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class RangeFetchOp(Operator):
    """Fetch ``A[start..end)`` for each input range (Sec II-A).

    Two input formats:

    * *pair mode* (default): each input entry packs ``(start, end)``
      via :func:`pack_range`;
    * *boundary mode* (``use_end_as_next_start=True``, Fig 11): input
      entries are single offsets; consecutive offsets bound consecutive
      ranges, exactly how a CSR ``offsets`` stream defines rows.

    A marker (carrying ``marker_value``) is emitted after each completed
    range; input markers pass through and reset boundary-mode state.
    """

    fu = "access"

    def __init__(self, name: str, in_queue: MarkerQueue,
                 out_queues: Sequence[MarkerQueue], base_addr: int,
                 elem_bytes: int = 4, marker_value: int = 0,
                 use_end_as_next_start: bool = False,
                 emit_range_markers: bool = True) -> None:
        super().__init__(name, in_queue, out_queues)
        self.base_addr = base_addr
        self.elem_bytes = elem_bytes
        self.marker_value = marker_value
        self.use_end_as_next_start = use_end_as_next_start
        self.emit_range_markers = emit_range_markers
        self._cur: Optional[int] = None  # next element index
        self._end: Optional[int] = None
        self._prev_boundary: Optional[int] = None
        self._marker_pending = False  # range done, marker credit awaited

    def _range_active(self) -> bool:
        return self._cur is not None and self._cur < self._end

    def ready(self, engine) -> bool:
        if self._marker_pending:
            return engine.au_can_issue() and \
                all(q.has_space(0, 1) for q in self.out_queues)
        if self._range_active():
            return engine.au_can_issue() and \
                all(q.has_space(1, 0) for q in self.out_queues)
        return (self.in_queue is not None
                and not self.in_queue.is_empty
                and engine.au_can_issue()
                and all(q.has_space(1, 1) for q in self.out_queues))

    def ready_at(self, engine) -> int:
        if self._marker_pending:
            if not all(q.has_space(0, 1) for q in self.out_queues):
                return NEVER
        elif self._range_active():
            if not all(q.has_space(1, 0) for q in self.out_queues):
                return NEVER
        else:
            if self.in_queue is None or self.in_queue.is_empty \
                    or not all(q.has_space(1, 1)
                               for q in self.out_queues):
                return NEVER
        # Only the access unit stands in the way: its head completion is
        # the earliest this context can change state on its own clock.
        return engine.cycle if engine.au_can_issue() \
            else engine.au_next_free_cycle()

    def fire(self, engine) -> None:
        self.fires += 1
        if self._marker_pending:
            self._issue_marker(engine)
            return
        if not self._range_active():
            self._start_next_range(engine)
            if not self._range_active():
                return
        # Issue one AU request covering up to the FU throughput and the
        # output credit (space is reserved now so the in-order response
        # FIFO can never block on delivery).
        credit = min((q.free_bytes // q.elem_bytes
                      for q in self.out_queues),
                     default=self._throughput_elems(engine,
                                                    self.elem_bytes))
        count = min(self._throughput_elems(engine, self.elem_bytes),
                    self._end - self._cur, max(0, credit))
        if count == 0:
            return
        finished = self._cur + count >= self._end
        with_marker = (finished and self.emit_range_markers
                       and all(q.has_space(count, 1)
                               for q in self.out_queues))
        for q in self.out_queues:
            q.reserve(count, 1 if with_marker else 0)
        addr = self.base_addr + self._cur * self.elem_bytes
        values = engine.mem_read_elems(addr, count, self.elem_bytes)
        self._cur += count
        entries = [Entry(int(v)) for v in values]
        if with_marker:
            entries.append(Entry(self.marker_value, marker=True))
        engine.au_issue(self, addr, count * self.elem_bytes, entries,
                        self.out_queues)
        if finished:
            self._cur = self._end = None
            if self.emit_range_markers and not with_marker:
                self._marker_pending = True

    def _issue_marker(self, engine) -> None:
        for q in self.out_queues:
            q.reserve(0, 1)
        engine.au_issue(self, self.base_addr, 0,
                        [Entry(self.marker_value, marker=True)],
                        self.out_queues)
        self._marker_pending = False

    def _start_next_range(self, engine) -> None:
        entry = self.in_queue.pop()
        if entry.marker:
            self._prev_boundary = None
            for q in self.out_queues:
                q.reserve(0, 1)
            engine.stage_passthrough(self, entry)
            return
        if self.use_end_as_next_start:
            if self._prev_boundary is None:
                self._prev_boundary = entry.value
                return
            start, end = self._prev_boundary, entry.value
            self._prev_boundary = entry.value
        else:
            start, end = unpack_range(entry.value)
        if end < start:
            raise ValueError(f"{self.name}: descending range {start}:{end}")
        self._cur, self._end = start, end
        if start == end:
            # Empty range still yields its marker (e.g. zero-degree vertex).
            self._cur = self._end = None
            if self.emit_range_markers:
                self._marker_pending = True

    def done(self, engine) -> bool:
        return not self._range_active() and not self._marker_pending


class IndirectOp(Operator):
    """Fetch ``A[i]`` for each input index (Sec II-A).

    With no output queues this is the *prefetch-only* pattern of Fig 5:
    data is pulled near the core (into the cache level the engine issues
    to) but never enqueued.

    ``fetch_pair=True`` loads ``A[i]`` *and* ``A[i+1]`` in one access and
    outputs them packed via :func:`pack_range` — the pattern BFS uses to
    turn a non-contiguous ``offsets`` access into a row extent (Fig 6).
    """

    fu = "access"

    def __init__(self, name: str, in_queue: MarkerQueue,
                 out_queues: Sequence[MarkerQueue], base_addr: int,
                 elem_bytes: int = 8, fetch_pair: bool = False) -> None:
        super().__init__(name, in_queue, out_queues)
        self.base_addr = base_addr
        self.elem_bytes = elem_bytes
        self.fetch_pair = fetch_pair

    def ready(self, engine) -> bool:
        return (not self.in_queue.is_empty
                and engine.au_can_issue()
                and all(q.has_space(1, 1) for q in self.out_queues))

    def ready_at(self, engine) -> int:
        if self.in_queue.is_empty \
                or not all(q.has_space(1, 1) for q in self.out_queues):
            return NEVER
        return engine.cycle if engine.au_can_issue() \
            else engine.au_next_free_cycle()

    def fire(self, engine) -> None:
        self.fires += 1
        entry = self.in_queue.pop()
        if entry.marker:
            for q in self.out_queues:
                q.reserve(0, 1)
            engine.stage_passthrough(self, entry)
            return
        addr = self.base_addr + entry.value * self.elem_bytes
        count = 2 if self.fetch_pair else 1
        if self.out_queues:
            for q in self.out_queues:
                q.reserve(1, 0)
            values = engine.mem_read_elems(addr, count, self.elem_bytes)
            if self.fetch_pair:
                entries = [Entry(pack_range(int(values[0]),
                                            int(values[1])))]
            else:
                entries = [Entry(int(values[0]))]
        else:
            engine.mem_read_elems(addr, count, self.elem_bytes)  # prefetch
            entries = []
        engine.au_issue(self, addr, count * self.elem_bytes, entries,
                        self.out_queues)


class DecompressOp(Operator):
    """Marker-delimited compressed payload -> decoded elements (the DU).

    Input entries are payload *bytes* (1-byte queue elements); a marker
    ends a compressed chunk, triggering a decode.  Decoded elements are
    staged and streamed to the outputs at FU throughput, followed by the
    chunk's marker (pass-through semantics).
    """

    fu = "decompress"

    def __init__(self, name: str, in_queue: MarkerQueue,
                 out_queues: Sequence[MarkerQueue], codec: Codec,
                 elem_bytes: int = 4) -> None:
        super().__init__(name, in_queue, out_queues)
        self.codec = codec
        self.elem_bytes = elem_bytes
        self._buffer = bytearray()
        self._staged: List[Entry] = []

    def ready(self, engine) -> bool:
        if self._staged:
            return all(q.has_space(1, 1) for q in self.out_queues)
        return not self.in_queue.is_empty

    def fire(self, engine) -> None:
        self.fires += 1
        if self._staged:
            self._emit(engine)
            return
        budget = engine.config.fu_bytes_per_cycle
        while budget > 0 and not self.in_queue.is_empty:
            entry = self.in_queue.pop()
            if entry.marker:
                self._decode_chunk(entry)
                return
            self._buffer.append(entry.value & 0xFF)
            budget -= 1

    def _decode_chunk(self, marker: Entry) -> None:
        dtype = np.dtype(f"u{self.elem_bytes}")
        if self._buffer:
            decoded = self.codec.decode_stream(bytes(self._buffer), dtype)
            self._staged.extend(Entry(int(v)) for v in decoded)
        self._buffer.clear()
        self._staged.append(marker)

    def _emit(self, engine) -> None:
        budget = self._throughput_elems(engine, self.elem_bytes)
        while budget > 0 and self._staged:
            entry = self._staged[0]
            need_space = all(
                q.has_space(0 if entry.marker else 1,
                            1 if entry.marker else 0)
                for q in self.out_queues)
            if not need_space:
                return
            self._staged.pop(0)
            for queue in self.out_queues:
                queue.push(entry.value, entry.marker)
            budget -= 1

    def done(self, engine) -> bool:
        return not self._staged and not self._buffer


class CompressOp(Operator):
    """Elements -> compressed payload bytes (the CU, Sec III-C).

    Buffers input elements until a marker or ``chunk_elems`` arrive, then
    encodes the chunk (optionally sorting it first — the paper's
    order-insensitive optimization) and stages the payload bytes followed
    by a marker delimiting the compressed chunk.
    """

    fu = "compress"

    def __init__(self, name: str, in_queue: MarkerQueue,
                 out_queues: Sequence[MarkerQueue], codec: Codec,
                 elem_bytes: int = 4, chunk_elems: int = 32,
                 sort_chunks: bool = False) -> None:
        super().__init__(name, in_queue, out_queues)
        self.codec = codec
        self.elem_bytes = elem_bytes
        self.chunk_elems = chunk_elems
        self.sort_chunks = sort_chunks
        self._pending: List[int] = []
        self._staged: List[Entry] = []
        self.chunks_encoded = 0

    def ready(self, engine) -> bool:
        if self._staged:
            return all(q.has_space(1, 1) for q in self.out_queues)
        return not self.in_queue.is_empty

    def fire(self, engine) -> None:
        self.fires += 1
        if self._staged:
            self._emit(engine)
            return
        budget = self._throughput_elems(engine, self.elem_bytes)
        while budget > 0 and not self.in_queue.is_empty:
            entry = self.in_queue.pop()
            if entry.marker:
                self._encode_chunk(marker=entry)
                return
            self._pending.append(entry.value)
            budget -= 1
            if len(self._pending) >= self.chunk_elems:
                self._encode_chunk(marker=None)
                return

    def _encode_chunk(self, marker: Optional[Entry]) -> None:
        payload_len = 0
        if self._pending:
            values = np.array(self._pending,
                              dtype=np.dtype(f"u{self.elem_bytes}"))
            if self.sort_chunks:
                values = np.sort(values)
            payload = self.codec.encode(values)
            payload_len = len(payload)
            self._staged.extend(Entry(b) for b in payload)
            self.chunks_encoded += 1
            self._pending.clear()
        if marker is not None:
            # Input markers pass through, delimiting the compressed chunk
            # and carrying their original value (e.g. an MQU queue id).
            self._staged.append(marker)
        elif payload_len:
            # Auto-closed at chunk_elems: emit our own delimiter carrying
            # the payload length.
            self._staged.append(Entry(payload_len, marker=True))

    def _emit(self, engine) -> None:
        budget = engine.config.fu_bytes_per_cycle
        while budget > 0 and self._staged:
            entry = self._staged[0]
            if not all(q.has_space(0 if entry.marker else 1,
                                   1 if entry.marker else 0)
                       for q in self.out_queues):
                return
            self._staged.pop(0)
            for queue in self.out_queues:
                queue.push(entry.value, entry.marker)
            budget -= 1

    def done(self, engine) -> bool:
        return not self._staged and not self._pending


class StreamWriteOp(Operator):
    """Sequential writer (the SWU): byte stream -> memory (Fig 13).

    Consumes payload bytes, writes them contiguously starting at
    ``base_addr`` (through the engine's memory port), and records the
    length of each marker-delimited chunk so software can later index the
    compressed stream.
    """

    fu = "streamw"

    def __init__(self, name: str, in_queue: MarkerQueue,
                 base_addr: int, capacity_bytes: int) -> None:
        super().__init__(name, in_queue, [])
        self.base_addr = base_addr
        self.capacity_bytes = capacity_bytes
        self.total_written = 0
        self.chunk_lengths: List[int] = []
        self._chunk_start = 0

    def ready(self, engine) -> bool:
        return not self.in_queue.is_empty

    def fire(self, engine) -> None:
        self.fires += 1
        budget = engine.config.fu_bytes_per_cycle
        chunk = bytearray()
        while budget > 0 and not self.in_queue.is_empty:
            entry = self.in_queue.pop()
            if entry.marker:
                self._flush(engine, chunk)
                self.chunk_lengths.append(self.total_written
                                          - self._chunk_start)
                self._chunk_start = self.total_written
                return
            chunk.append(entry.value & 0xFF)
            budget -= 1
        self._flush(engine, chunk)

    def _flush(self, engine, chunk: bytearray) -> None:
        if not chunk:
            return
        if self.total_written + len(chunk) > self.capacity_bytes:
            raise OverflowError(f"{self.name}: output region full")
        engine.mem_write_bytes(self.base_addr + self.total_written,
                               bytes(chunk))
        self.total_written += len(chunk)


class MemQueueOp(Operator):
    """Memory-backed queue unit (the MQU, Fig 14).

    Interprets input entries as packed ``(queue id, value)`` tuples and
    appends each value to its in-memory queue.  When a queue reaches
    ``flush_elems`` (a compressible chunk) or receives a per-queue end
    marker, its contents stream to the output as::

        value entries..., marker(queue id)

    (the delimiting marker carries the queue id, so downstream operators
    with pass-through marker semantics — like the CU — keep the binding
    between a chunk and its bin); with no output queue, flushed chunks are
    handed to ``on_flush`` instead (modelling the quiesce-and-interrupt
    path used to let software allocate space).

    The model charges pointer and value traffic through the engine's
    memory port (``tail`` read+write plus the value write per enqueue),
    matching the paper's description of MQU memory behaviour.
    """

    fu = "memq"

    def __init__(self, name: str, in_queue: MarkerQueue,
                 out_queues: Sequence[MarkerQueue], num_queues: int,
                 base_addr: int, bytes_per_queue: int,
                 value_bytes: int = 8, flush_elems: int = 32,
                 on_flush=None) -> None:
        super().__init__(name, in_queue, out_queues)
        if num_queues <= 0:
            raise ValueError("num_queues must be positive")
        self.num_queues = num_queues
        self.base_addr = base_addr
        self.bytes_per_queue = bytes_per_queue
        self.value_bytes = value_bytes
        self.flush_elems = flush_elems
        self.on_flush = on_flush
        self._queues: List[List[int]] = [[] for _ in range(num_queues)]
        self._staged: List[Entry] = []
        self.flushes = 0

    def ready(self, engine) -> bool:
        if self._staged:
            return all(q.has_space(1, 1) for q in self.out_queues)
        return not self.in_queue.is_empty

    def fire(self, engine) -> None:
        self.fires += 1
        if self._staged:
            self._emit(engine)
            return
        entry = self.in_queue.pop()
        if entry.marker:
            # A marker carries the queue id to close (Listing 5's
            # endMarker per bin); a full-width marker value of all queues
            # closes everything.
            self._close(engine, entry.value)
            return
        queue_id, value = unpack_tuple(entry.value,
                                       8 * self.value_bytes)
        if not 0 <= queue_id < self.num_queues:
            raise ValueError(f"{self.name}: queue id {queue_id} out of range")
        bucket = self._queues[queue_id]
        addr = self.base_addr + queue_id * self.bytes_per_queue
        # Pointer read+write plus the value write (paper Sec III-C).
        engine.mem_read_charged(addr, 1, 8)
        engine.mem_write_bytes(addr + 8 + len(bucket) * self.value_bytes,
                               value.to_bytes(self.value_bytes, "little"))
        bucket.append(value)
        if len(bucket) >= self.flush_elems:
            self._flush_queue(engine, queue_id)

    def _close(self, engine, queue_id: int) -> None:
        if queue_id >= self.num_queues:
            for qid in range(self.num_queues):
                if self._queues[qid]:
                    self._flush_queue(engine, qid)
        elif self._queues[queue_id]:
            self._flush_queue(engine, queue_id)

    def _flush_queue(self, engine, queue_id: int) -> None:
        bucket = self._queues[queue_id]
        values, self._queues[queue_id] = bucket, []
        self.flushes += 1
        if not self.out_queues:
            if self.on_flush is not None:
                self.on_flush(queue_id, values)
            return
        # Read the contents back out of (cached) memory for streaming.
        addr = self.base_addr + queue_id * self.bytes_per_queue
        engine.mem_read_charged(addr + 8, len(values), self.value_bytes)
        self._staged.extend(Entry(v) for v in values)
        self._staged.append(Entry(queue_id, marker=True))

    def _emit(self, engine) -> None:
        budget = self._throughput_elems(engine, self.value_bytes)
        while budget > 0 and self._staged:
            entry = self._staged[0]
            if not all(q.has_space(0 if entry.marker else 1,
                                   1 if entry.marker else 0)
                       for q in self.out_queues):
                return
            self._staged.pop(0)
            for queue in self.out_queues:
                queue.push(entry.value, entry.marker)
            budget -= 1

    def pending_elems(self) -> int:
        return sum(len(bucket) for bucket in self._queues)

    def done(self, engine) -> bool:
        # Values parked in in-memory queues are durable state, not work in
        # flight: they wait for software (or ``Compressor.drain``) to close
        # their queue.  Only staged output counts as pending work.
        return not self._staged


class BinAppendOp(Operator):
    """Chunk-appending MQU mode: the second MQU of Fig 14.

    Consumes marker-delimited payload chunks (bytes) whose delimiting
    marker carries the destination queue id, and appends each chunk to
    that queue's memory area — the "compressed bins" that conventional
    evictions later displace to main memory.  Tracks per-bin compressed
    sizes so software can index the bins afterwards.

    ``on_overflow(queue_id)`` models the interrupt raised when a bin's
    allocated space fills and software must allocate more (Sec III-C); by
    default the op raises, because well-sized runs should never overflow.
    """

    fu = "memq"

    def __init__(self, name: str, in_queue: MarkerQueue,
                 num_queues: int, base_addr: int, bytes_per_queue: int,
                 on_overflow=None) -> None:
        super().__init__(name, in_queue, [])
        if num_queues <= 0:
            raise ValueError("num_queues must be positive")
        self.num_queues = num_queues
        self.base_addr = base_addr
        self.bytes_per_queue = bytes_per_queue
        self.on_overflow = on_overflow
        self.bin_bytes: List[int] = [0] * num_queues
        self.bin_chunks: List[int] = [0] * num_queues
        #: per-bin list of chunk payload lengths (software's bin index).
        self.chunk_sizes: List[List[int]] = [[] for _ in range(num_queues)]
        self._buffer = bytearray()

    def ready(self, engine) -> bool:
        return not self.in_queue.is_empty

    def fire(self, engine) -> None:
        self.fires += 1
        budget = engine.config.fu_bytes_per_cycle
        while budget > 0 and not self.in_queue.is_empty:
            entry = self.in_queue.pop()
            if entry.marker:
                self._append_chunk(engine, entry.value)
                return
            self._buffer.append(entry.value & 0xFF)
            budget -= 1

    def _append_chunk(self, engine, queue_id: int) -> None:
        if not self._buffer:
            return
        if not 0 <= queue_id < self.num_queues:
            raise ValueError(f"{self.name}: queue id {queue_id} out of "
                             f"range")
        used = self.bin_bytes[queue_id]
        if used + len(self._buffer) > self.bytes_per_queue:
            if self.on_overflow is not None:
                self.on_overflow(queue_id)
            else:
                raise OverflowError(
                    f"{self.name}: bin {queue_id} overflow "
                    f"({used + len(self._buffer)}B > "
                    f"{self.bytes_per_queue}B)")
        addr = self.base_addr + queue_id * self.bytes_per_queue + used
        engine.mem_write_bytes(addr, bytes(self._buffer))
        self.bin_bytes[queue_id] += len(self._buffer)
        self.bin_chunks[queue_id] += 1
        self.chunk_sizes[queue_id].append(len(self._buffer))
        self._buffer.clear()

    def done(self, engine) -> bool:
        return not self._buffer
