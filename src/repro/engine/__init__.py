"""The SpZip engines: programmable fetcher and compressor."""

from repro.engine.area import (
    CORE_AREA_UM2,
    EngineArea,
    compressor_area,
    fetcher_area,
    scratchpad_area,
    spzip_core_overhead,
)
from repro.engine.base import EngineStall, SpZipEngine
from repro.engine.compressor import Compressor
from repro.engine.driver import DriveRequest, DriveResult, Feed, drive
from repro.engine.multicore import (
    MulticoreTraversal,
    make_chunks,
    parallel_row_traversal,
)
from repro.engine.fetcher import Fetcher
from repro.engine.pipelines import (
    ACTIVE_QUEUE,
    BIN_QUEUE,
    COMPRESSED_QUEUE,
    CONTRIBS_QUEUE,
    INPUT_QUEUE,
    NEIGH_QUEUE,
    OFFSETS_INPUT_QUEUE,
    ROWS_QUEUE,
    bfs_push,
    compressed_csr_traversal,
    csr_traversal,
    pagerank_push,
    single_stream_compress,
    ub_bins_compress,
)

__all__ = [
    "ACTIVE_QUEUE",
    "BIN_QUEUE",
    "COMPRESSED_QUEUE",
    "CONTRIBS_QUEUE",
    "CORE_AREA_UM2",
    "Compressor",
    "DriveRequest",
    "DriveResult",
    "EngineArea",
    "EngineStall",
    "Feed",
    "Fetcher",
    "INPUT_QUEUE",
    "MulticoreTraversal",
    "NEIGH_QUEUE",
    "OFFSETS_INPUT_QUEUE",
    "ROWS_QUEUE",
    "SpZipEngine",
    "bfs_push",
    "compressed_csr_traversal",
    "compressor_area",
    "csr_traversal",
    "drive",
    "fetcher_area",
    "make_chunks",
    "pagerank_push",
    "parallel_row_traversal",
    "scratchpad_area",
    "single_stream_compress",
    "spzip_core_overhead",
    "ub_bins_compress",
]
