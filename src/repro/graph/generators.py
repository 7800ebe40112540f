"""Synthetic graph generators standing in for the paper's inputs.

The paper's graphs are web crawls (arabic-2005, uk-2005, it-2004,
webbase-2001), a social network (Twitter followers), and a structured
optimization matrix (nlpkkt240).  What matters for SpZip is not their exact
topology but three properties the generators below control:

* **degree skew** — power-law degrees drive the locality of scatter
  updates and the benefit of degree-sorting;
* **community structure** — web crawls have strong communities, Twitter
  much weaker ones; communities are what BFS/DFS/GOrder preprocessing
  exploits, and what gives preprocessed graphs their high value locality
  (similar neighbour ids -> compressible);
* **natural-order locality** — crawl order already clusters communities.

``rmat`` produces skewed graphs whose community strength is set by the
seed-matrix asymmetry; ``community_graph`` plants explicit communities
(strong structure, web-like); ``banded_matrix`` mimics the FEM/KKT
structure of nlpkkt240.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CsrGraph
from repro.utils import make_rng


def rmat(num_vertices: int, num_edges: int,
         a: float = 0.57, b: float = 0.19, c: float = 0.19,
         seed_stream: str = "rmat") -> CsrGraph:
    """Recursive-MATrix generator (Kronecker), vectorized.

    Standard Graph500 parameters by default (a=0.57 gives a heavy-tailed,
    Twitter-like degree distribution).  Vertices are generated in an order
    that has *no* particular locality; callers wanting a "natural" crawl
    order should use :func:`community_graph`.
    """
    if not 0 < a + b + c < 1:
        raise ValueError("RMAT probabilities must sum below 1")
    levels = max(1, int(np.ceil(np.log2(max(2, num_vertices)))))
    size = 1 << levels
    rng = make_rng(seed_stream, num_vertices, num_edges)
    # Oversample to survive self-loop/duplicate removal and out-of-range.
    n = int(num_edges * 1.15) + 16
    src = np.zeros(n, dtype=np.int64)
    dst = np.zeros(n, dtype=np.int64)
    for _level in range(levels):
        r = rng.random(n)
        right = (r >= a + b)  # quadrant c or d -> src bit 1
        lower = ((r >= a) & (r < a + b)) | (r >= a + b + c)  # b or d -> dst 1
        src = (src << 1) | right
        dst = (dst << 1) | lower
    keep = (src < num_vertices) & (dst < num_vertices)
    src, dst = src[keep], dst[keep]
    graph = CsrGraph.from_edges(num_vertices, src, dst)
    return _top_up(graph, num_vertices, num_edges, rng)


def community_graph(num_vertices: int, num_edges: int,
                    num_communities: int = 0,
                    near_fraction: float = 0.50,
                    hub_fraction: float = 0.30,
                    degree_skew: float = 1.8,
                    hub_skew: float = 1.30,
                    seed_stream: str = "community") -> CsrGraph:
    """Web-crawl-like graph: communities, near links, and hot hubs.

    Three destination populations mirror real web link structure:

    * ``near_fraction`` of edges land *near* the source (same-host pages
      a few ids away, geometric tail) — this is the locality that id
      reorderings (DFS/BFS/GOrder) recover;
    * ``hub_fraction`` of edges target each community's popular pages
      (the first few ids of the source's community, Zipf-weighted) —
      real webs concentrate most in-links on few pages, which is what
      keeps scatter-update hit rates non-trivial even with random ids;
    * the rest go anywhere, preferentially to global hubs.

    Vertices are laid out community by community, giving the "natural"
    id locality of a crawl.
    """
    if num_communities <= 0:
        num_communities = max(4, int(np.sqrt(num_vertices) / 2))
    rng = make_rng(seed_stream, num_vertices, num_edges, num_communities)
    community_size = max(4, num_vertices // num_communities)
    # Power-law out-degrees via Zipf-like weights over vertices.
    weights = (1.0 / np.arange(1, num_vertices + 1) ** (degree_skew - 1.0))
    rng.shuffle(weights)
    weights /= weights.sum()
    src = rng.choice(num_vertices, size=num_edges, p=weights)
    src = src.astype(np.int64)
    kind = rng.random(num_edges)
    # Near links: geometric offsets around the source.
    sign = rng.choice(np.array([-1, 1], dtype=np.int64), num_edges)
    magnitude = rng.geometric(p=0.12, size=num_edges).astype(np.int64)
    near = np.clip(src + sign * magnitude, 0, num_vertices - 1)
    # Community-hub links: Zipf rank within the source's community.
    base = (src // community_size) * community_size
    rank = np.minimum(
        rng.zipf(2.0, size=num_edges).astype(np.int64) - 1,
        community_size - 1)
    hubs = np.minimum(base + rank, num_vertices - 1)
    # Global links: heavily hub-weighted (real in-degree tails).
    gweights = 1.0 / np.arange(1, num_vertices + 1) ** hub_skew
    gweights /= gweights.sum()
    hub_ids = rng.permutation(num_vertices)
    global_dst = hub_ids[rng.choice(num_vertices, size=num_edges,
                                    p=gweights)]
    dst = np.where(kind < near_fraction, near,
                   np.where(kind < near_fraction + hub_fraction, hubs,
                            global_dst)).astype(np.int64)
    graph = CsrGraph.from_edges(num_vertices, src, dst)
    return _top_up(graph, num_vertices, num_edges, rng,
                   max_id_distance=max(8, int(1 / 0.12)),
                   keep_self_loops=False)


def banded_matrix(num_rows: int, nnz: int, bandwidth_fraction: float = 0.02,
                  seed_stream: str = "banded") -> CsrGraph:
    """FEM/KKT-like sparse matrix: nonzeros clustered near the diagonal.

    Stand-in for nlpkkt240 (a structured optimization problem): rows have
    near-uniform length and column ids close to the row id, so both the
    matrix and its access pattern are far more regular than a web graph.
    """
    rng = make_rng(seed_stream, num_rows, nnz)
    band = max(2, int(num_rows * bandwidth_fraction))
    per_row = max(1, nnz // num_rows)
    rows = np.repeat(np.arange(num_rows, dtype=np.int64), per_row)
    jitter = rng.integers(-band, band + 1, rows.size)
    cols = np.clip(rows + jitter, 0, num_rows - 1)
    graph = CsrGraph.from_edges(num_rows, rows, cols,
                                drop_self_loops=False)
    return _top_up(graph, num_rows, nnz, rng, max_id_distance=band)


def _top_up(graph: CsrGraph, num_vertices: int, num_edges: int,
            rng: np.random.Generator,
            max_id_distance: int = 0,
            keep_self_loops: Optional[bool] = None) -> CsrGraph:
    """Add random edges until the edge budget is met.

    Duplicate removal can swallow a large share of the generated edges
    (hub targets collapse), so the top-up loops — oversampling more
    aggressively each round — until the budget is reached or stops
    improving.
    """
    if keep_self_loops is None:
        keep_self_loops = max_id_distance > 0
    merged = graph
    for attempt in range(6):
        deficit = num_edges - merged.num_edges
        if deficit <= 0:
            break
        draw = int(deficit * (2.0 + attempt)) + 8
        src_extra = rng.integers(0, num_vertices, draw)
        if max_id_distance:
            dst_extra = np.clip(
                src_extra + rng.integers(-max_id_distance,
                                         max_id_distance + 1,
                                         src_extra.size),
                0, num_vertices - 1)
        else:
            dst_extra = rng.integers(0, num_vertices, src_extra.size)
        src = np.concatenate([
            np.repeat(np.arange(num_vertices, dtype=np.int64),
                      merged.out_degrees()),
            src_extra,
        ])
        dst = np.concatenate([merged.neighbors.astype(np.int64),
                              dst_extra])
        previous = merged.num_edges
        merged = CsrGraph.from_edges(num_vertices, src, dst,
                                     drop_self_loops=not keep_self_loops)
        if merged.num_edges <= previous:
            break
    if merged.num_edges <= num_edges:
        return merged
    # Trim uniformly to the exact budget.
    keep = np.sort(rng.choice(merged.num_edges, num_edges, replace=False))
    src_all = np.repeat(np.arange(num_vertices, dtype=np.int64),
                        merged.out_degrees())
    return CsrGraph.from_edges(num_vertices, src_all[keep],
                               merged.neighbors[keep].astype(np.int64),
                               dedup=False, drop_self_loops=False)
