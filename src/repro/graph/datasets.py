"""Input dataset registry — synthetic stand-ins for paper Table III.

Table III evaluates five web/social graphs plus one structured matrix:

=====  ============  =========  ==========  ======================
name   vertices (M)  edges (M)  kind        source
=====  ============  =========  ==========  ======================
arb    22            640        web crawl   arabic-2005
ukl    39            936        web crawl   uk-2005
twi    41            1468       social      Twitter followers
it     41            1150       web crawl   it-2004
web    118           1020       web crawl   webbase-2001
nlp    27            760        FEM/KKT     nlpkkt240
=====  ============  =========  ==========  ======================

We generate graphs with the same vertex/edge counts scaled down by
``scale`` (default 4096), preserving average degree and each input's
*character*: web crawls get strong planted communities and natural-order
locality, Twitter gets a skewed RMAT with little community structure
(the paper repeatedly notes twi "has little community structure"), and
nlp is a banded matrix.  Instances are memoized because the evaluation
sweeps reuse them heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.graph.csr import CsrGraph
from repro.graph.delta import GraphDelta, MutableGraphHandle
from repro.graph.generators import banded_matrix, community_graph, rmat
from repro.graph.preprocess import preprocess
from repro.graph.shared import active_graph_store, cached_graph

DEFAULT_SCALE = 4096

#: Separator between a base dataset name and a delta-lineage version
#: tag: ``ukl@4c1fd2e09a8b77c3`` names the mutated instance of ``ukl``.
VERSION_SEP = "@"


@dataclass(frozen=True)
class DatasetSpec:
    """One Table III row."""

    name: str
    vertices_m: float
    edges_m: float
    kind: str  # "web", "social", or "matrix"
    source: str

    def scaled_shape(self, scale: int = DEFAULT_SCALE) -> Tuple[int, int]:
        vertices = max(64, int(self.vertices_m * 1e6 / scale))
        edges = max(vertices, int(self.edges_m * 1e6 / scale))
        return vertices, edges


#: Table III, keyed by the paper's short names.
DATASETS: Dict[str, DatasetSpec] = {
    "arb": DatasetSpec("arb", 22, 640, "web", "arabic-2005"),
    "ukl": DatasetSpec("ukl", 39, 936, "web", "uk-2005"),
    "twi": DatasetSpec("twi", 41, 1468, "social", "Twitter followers"),
    "it": DatasetSpec("it", 41, 1150, "web", "it-2004"),
    "web": DatasetSpec("web", 118, 1020, "web", "webbase-2001"),
    "nlp": DatasetSpec("nlp", 27, 760, "matrix", "nlpkkt240"),
}

#: The five graph inputs used by the graph applications (nlp is SpMV's).
GRAPH_INPUTS = ("arb", "ukl", "twi", "it", "web")


# -- delta-versioned instances ---------------------------------------------
#
# A dataset mutated through a GraphDelta is a *new* registry identity:
# ``base@version`` where the version digests the lineage
# (base_digest, [delta_digests]).  Publishing it to the shared graph
# store uses its own ``load/<base@version>/<scale>`` manifest entry, so
# the base graph's cached memmap is never shadowed.

#: Registered mutated instances: (base, version, scale) -> handle.
_HANDLES: Dict[Tuple[str, str, int], MutableGraphHandle] = {}
#: Current head of each mutated dataset: (base, scale) -> versioned name.
_HEADS: Dict[Tuple[str, int], str] = {}


def split_version(name: str) -> Tuple[str, Optional[str]]:
    """``"ukl@abc"`` -> ``("ukl", "abc")``; bare names give None."""
    base, _sep, version = name.partition(VERSION_SEP)
    return base, (version or None)


def base_dataset(name: str) -> str:
    return split_version(name)[0]


def resolve_version(name: str, scale: int = DEFAULT_SCALE) -> str:
    """Current head of a mutated dataset; bare names pass through
    unless a delta has been applied, explicit versions always do."""
    base, version = split_version(name)
    if version is not None:
        return name
    return _HEADS.get((base, scale), name)


def current_handle(name: str, scale: int = DEFAULT_SCALE
                   ) -> Optional[MutableGraphHandle]:
    """The head handle of a mutated dataset, if any."""
    base, version = split_version(name)
    if version is None:
        head = _HEADS.get((base, scale))
        if head is None:
            return None
        _base, version = split_version(head)
    return _HANDLES.get((base, version, scale))


def version_exists(name: str, scale: int = DEFAULT_SCALE) -> bool:
    """Whether ``name`` resolves to a loadable graph in this process
    (registered here, or published to the active graph store)."""
    base, version = split_version(name)
    if base not in DATASETS:
        return False
    if version is None:
        return True
    if (base, version, scale) in _HANDLES:
        return True
    store = active_graph_store()
    return store is not None \
        and store.get_graph(f"load/{name}/{scale}") is not None


def apply_delta(name: str, delta: GraphDelta,
                scale: int = DEFAULT_SCALE) -> MutableGraphHandle:
    """Apply a delta to a dataset's head; registers and returns the
    new versioned instance.

    Deltas chain: each call extends the lineage of the current head
    (or of the explicitly named version).  The mutated graph is
    published to the active graph store under its *own* manifest key,
    so pool workers in other processes can map it, and the base
    graph's entry stays untouched.
    """
    base, version = split_version(name)
    if base not in DATASETS:
        raise KeyError(f"unknown dataset {base!r}; "
                       f"have {sorted(DATASETS)}")
    if version is not None:
        head = _HANDLES.get((base, version, scale))
        if head is None:
            raise KeyError(f"unknown version {name!r} at scale {scale}")
    else:
        head = current_handle(base, scale)
        if head is None:
            graph = load(base, scale)
            head = MutableGraphHandle(
                name=base, scale=scale, graph=graph,
                base_digest=graph.content_digest())
    handle = head.apply(delta)
    # Publish before moving the head: a concurrent bare-name read that
    # resolves to the new version must find it in the store, or a pool
    # worker handed that version cannot load it.
    store = active_graph_store()
    if store is not None:
        store.put_graph(f"load/{handle.versioned_name}/{scale}",
                        handle.graph)
    _HANDLES[(base, handle.version, scale)] = handle
    _HEADS[(base, scale)] = handle.versioned_name
    return handle


@lru_cache(maxsize=None)
def load(name: str, scale: int = DEFAULT_SCALE) -> CsrGraph:
    """Generate (and memoize) the natural-order instance of a dataset.

    Versioned names (``base@version``) resolve through the in-process
    handle registry, falling back to the shared graph store (how pool
    workers see the dispatcher's mutations).
    """
    base, version = split_version(name)
    if base not in DATASETS:
        raise KeyError(f"unknown dataset {base!r}; have {sorted(DATASETS)}")
    if version is None:
        return cached_graph(f"load/{name}/{scale}",
                            lambda: _generate(name, scale))
    handle = _HANDLES.get((base, version, scale))
    if handle is not None:
        return handle.graph
    store = active_graph_store()
    graph = None if store is None \
        else store.get_graph(f"load/{name}/{scale}")
    if graph is None:
        raise KeyError(
            f"unknown version {name!r} at scale {scale}: not registered "
            f"in this process and not published to a graph store")
    return graph


def _generate(name: str, scale: int) -> CsrGraph:
    spec = DATASETS[name]
    vertices, edges = spec.scaled_shape(scale)
    if spec.kind == "web":
        return community_graph(vertices, edges,
                               seed_stream=f"web/{name}")
    if spec.kind == "social":
        return rmat(vertices, edges, seed_stream=f"social/{name}")
    return banded_matrix(vertices, edges, seed_stream=f"matrix/{name}")


@lru_cache(maxsize=None)
def load_preprocessed(name: str, method: str,
                      scale: int = DEFAULT_SCALE) -> CsrGraph:
    """Dataset relabeled by a preprocessing method (memoized).

    ``method="none"`` reproduces the paper's non-preprocessed baseline
    (randomized ids); other methods are applied to the natural-order
    instance, as a user with access to the raw input would.  When the
    shared graph store is active, instances are published there once
    and memory-mapped by every process instead of regenerated per
    worker.
    """
    return cached_graph(f"pre/{name}/{method}/{scale}",
                        lambda: preprocess(load(name, scale), method))


def clear_cache() -> None:
    """Drop memoized instances (tests use this to bound memory)."""
    load.cache_clear()
    load_preprocessed.cache_clear()
    _HANDLES.clear()
    _HEADS.clear()
