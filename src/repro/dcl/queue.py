"""Marker-tagged queues — the streams connecting DCL operators.

Queues implement the input and output streams of operators (Sec II-A) and
live in the engine scratchpad as circular buffers with min/max/head/tail
pointers (Fig 10).  Because operators fetch and produce variable-sized
chunks, every word carries a *marker bit*; a marker-tagged word delimits a
chunk (a row, a frontier range, a compressed payload) and carries an
operator-defined value the consumer can use to tell nesting levels apart
(Sec III-B "Queues and markers").

The model stores entries as ``(value, is_marker)`` pairs; capacity is
accounted in bytes of the configured element width, so queue depth — and
therefore the amount of decoupling — matches the scratchpad budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

#: Marker words are 32-bit regardless of the queue's element width.
MARKER_BYTES = 4


@dataclass(frozen=True)
class Entry:
    """One queue word: a value or a marker."""

    value: int
    marker: bool = False


class MarkerQueue:
    """Bounded circular stream of values and markers."""

    def __init__(self, name: str, capacity_bytes: int,
                 elem_bytes: int = 4) -> None:
        if capacity_bytes < max(elem_bytes, MARKER_BYTES):
            raise ValueError(
                f"queue {name!r}: capacity {capacity_bytes}B below one entry"
            )
        if elem_bytes not in (1, 2, 4, 8):
            raise ValueError("element width must be 1, 2, 4, or 8 bytes")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.elem_bytes = elem_bytes
        self._entries: Deque[Entry] = deque()
        self._used_bytes = 0
        self._reserved_bytes = 0
        # Lifetime statistics (used by decoupling studies).
        self.total_pushed = 0
        self.high_water_bytes = 0

    # -- capacity -----------------------------------------------------------

    def _entry_bytes(self, entry: Entry) -> int:
        return MARKER_BYTES if entry.marker else self.elem_bytes

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def reserved_bytes(self) -> int:
        return self._reserved_bytes

    @property
    def free_bytes(self) -> int:
        """Space neither occupied nor promised to an in-flight request."""
        return self.capacity_bytes - self._used_bytes - self._reserved_bytes

    def has_space(self, entries: int = 1, markers: int = 0) -> bool:
        need = entries * self.elem_bytes + markers * MARKER_BYTES
        return self.free_bytes >= need

    def reserve(self, entries: int = 0, markers: int = 0) -> bool:
        """Claim space for an in-flight request (credit-based flow control).

        Memory operators reserve output space *before* issuing a request,
        so every access-unit response is guaranteed to deliver — otherwise
        the in-order response FIFO could deadlock head-of-line against a
        full queue.
        """
        need = entries * self.elem_bytes + markers * MARKER_BYTES
        if self.free_bytes < need:
            return False
        self._reserved_bytes += need
        return True

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- stream operations ----------------------------------------------------

    def push(self, value: int, marker: bool = False,
             reserved: bool = False) -> None:
        entry = Entry(int(value), marker)
        need = self._entry_bytes(entry)
        if reserved:
            if self._reserved_bytes < need:
                raise OverflowError(
                    f"queue {self.name!r}: push without matching reserve")
            self._reserved_bytes -= need
        elif self.free_bytes < need:
            raise OverflowError(f"queue {self.name!r} full")
        self._entries.append(entry)
        self._used_bytes += need
        self.total_pushed += 1
        self.high_water_bytes = max(self.high_water_bytes, self._used_bytes)

    def try_push(self, value: int, marker: bool = False) -> bool:
        entry = Entry(int(value), marker)
        if self.free_bytes < self._entry_bytes(entry):
            return False
        self.push(value, marker)
        return True

    def peek(self) -> Optional[Entry]:
        return self._entries[0] if self._entries else None

    def pop(self) -> Entry:
        if not self._entries:
            raise IndexError(f"queue {self.name!r} empty")
        entry = self._entries.popleft()
        self._used_bytes -= self._entry_bytes(entry)
        return entry

    def try_pop(self) -> Optional[Entry]:
        return self.pop() if self._entries else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MarkerQueue({self.name!r}, {len(self._entries)} entries, "
                f"{self._used_bytes}/{self.capacity_bytes}B)")
