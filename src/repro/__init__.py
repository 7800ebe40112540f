"""SpZip reproduction (Yang, Emer, Sanchez — ISCA 2021).

A pure-Python model of SpZip: programmable, decoupled hardware engines that
traverse, decompress, and compress the sparse data structures of irregular
applications, plus the multicore substrate, execution strategies (Push,
Update Batching, PHI), applications, and the experiment harness that
regenerates every table and figure of the paper's evaluation.

Top-level convenience imports cover the objects most users need; see the
subpackages for the full API:

* ``repro.compression`` -- delta / BPC / BDI / RLE codecs
* ``repro.memory``      -- address space, caches, DRAM, NoC
* ``repro.graph``       -- CSR graphs, generators, preprocessing
* ``repro.dcl``         -- the Dataflow Configuration Language
* ``repro.engine``      -- the SpZip fetcher and compressor
* ``repro.runtime``     -- Push / UB / PHI execution strategies
* ``repro.apps``        -- PR, PRD, CC, RE, DC, BFS, SpMV
* ``repro.sim``         -- machine model, timing, metrics, runner
* ``repro.harness``     -- per-figure/table experiment registry
"""

from repro.config import (
    DEFAULT_SCALE,
    CacheConfig,
    MemoryConfig,
    NocConfig,
    SpZipConfig,
    SystemConfig,
    default_system,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_SCALE",
    "CacheConfig",
    "MemoryConfig",
    "NocConfig",
    "SpZipConfig",
    "SystemConfig",
    "default_system",
    "__version__",
]
