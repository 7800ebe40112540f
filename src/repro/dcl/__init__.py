"""The Dataflow Configuration Language — SpZip's HW/SW interface."""

from repro.dcl.operators import (
    CompressOp,
    DecompressOp,
    IndirectOp,
    MemQueueOp,
    Operator,
    RangeFetchOp,
    StreamWriteOp,
    pack_range,
    pack_tuple,
    unpack_range,
    unpack_tuple,
)
from repro.dcl.parser import DclSyntaxError, parse_dcl
from repro.dcl.program import (
    COMPRESSOR_KINDS,
    FETCHER_KINDS,
    OpSpec,
    Program,
    ProgramError,
    QueueSpec,
)
from repro.dcl.queue import Entry, MarkerQueue
from repro.dcl.scheduler import RoundRobinScheduler

__all__ = [
    "COMPRESSOR_KINDS",
    "CompressOp",
    "DclSyntaxError",
    "DecompressOp",
    "Entry",
    "FETCHER_KINDS",
    "IndirectOp",
    "MarkerQueue",
    "MemQueueOp",
    "OpSpec",
    "Operator",
    "Program",
    "ProgramError",
    "QueueSpec",
    "RangeFetchOp",
    "RoundRobinScheduler",
    "StreamWriteOp",
    "pack_range",
    "pack_tuple",
    "parse_dcl",
    "unpack_range",
    "unpack_tuple",
]
