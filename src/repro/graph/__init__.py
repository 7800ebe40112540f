"""Graph substrate: CSR, generators, Table III datasets, preprocessing."""

from repro.graph.compressed_csr import CompressedCsr
from repro.graph.csr import OFFSET_DTYPE, VERTEX_DTYPE, CsrGraph
from repro.graph.datasets import (
    DATASETS,
    GRAPH_INPUTS,
    DatasetSpec,
    clear_cache,
    load,
    load_preprocessed,
)
from repro.graph.hats import bdfs_order, scatter_miss_rate
from repro.graph.webgraph import WebGraphCsr
from repro.graph.generators import (
    banded_matrix,
    community_graph,
    rmat,
)
from repro.graph.preprocess import (
    PREPROCESSORS,
    bfs_order,
    degree_sort,
    dfs_order,
    gorder,
    identity_order,
    preprocess,
    randomize,
)

__all__ = [
    "CompressedCsr",
    "CsrGraph",
    "DATASETS",
    "DatasetSpec",
    "GRAPH_INPUTS",
    "OFFSET_DTYPE",
    "PREPROCESSORS",
    "VERTEX_DTYPE",
    "WebGraphCsr",
    "banded_matrix",
    "bdfs_order",
    "bfs_order",
    "clear_cache",
    "community_graph",
    "degree_sort",
    "dfs_order",
    "gorder",
    "identity_order",
    "load",
    "load_preprocessed",
    "preprocess",
    "randomize",
    "rmat",
    "scatter_miss_rate",
]
