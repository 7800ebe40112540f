"""Delta-parity suite: pricing a mutated dataset through the warm
partitioned pipeline equals a cold, unpartitioned run — exactly.

The dynamic-graph pipeline (apply delta -> reuse untouched stream
partitions -> stitch -> price) must not move a single bit of any
``RunMetrics``: equality here is dataclass ``==`` over every cell, no
tolerance, across apps, schemes, and randomized delta kinds.  A warm
pricer with K partitions and a populated cache answers from reused
partitions; the oracle is a fresh K=1 pricer with no cache pricing the
same versioned dataset from scratch.
"""

import pytest

from repro.graph import shared
from repro.graph.datasets import (
    apply_delta,
    clear_cache,
    load,
)
from repro.graph.delta import GraphDelta, sample_delta
from repro.jobs.cache import StoreConfig
from repro.stages import StagePricer, stage_counters

SCALE = 65536
GRAPH_APPS = ("pr", "prd", "cc", "re", "dc", "bfs")
SCHEMES = ("push", "push+spzip", "phi", "phi+spzip", "ub+cmh",
           "pull+spzip")
PARTITIONS = 6


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A partitioned pricer with a cache warmed on the base dataset,
    plus the versioned name of a mutated ukl instance."""
    clear_cache()
    root = str(tmp_path_factory.mktemp("delta-cache"))
    pricer = StagePricer(
        scale=SCALE,
        store=StoreConfig(root=root, stream_partitions=PARTITIONS))
    for app in GRAPH_APPS:
        pricer.bundle(app, "ukl", "none")
    # "natural" keeps vertex ids delta-stable, so localized deltas stay
    # localized through the partition keys — the reuse assertions below
    # price under it ("none" reseeds its random relabeling on the new
    # edge count, which legitimately rotates every partition).
    pricer.bundle("dc", "ukl", "natural")
    base = load("ukl", SCALE)
    delta = sample_delta(base, seed=41, insertions=10, deletions=10,
                         row_range=(0, 128))
    handle = apply_delta("ukl", delta, SCALE)
    yield pricer, handle.versioned_name
    shared.disable_graph_store()
    clear_cache()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("app", GRAPH_APPS)
def test_warm_partitioned_equals_cold_oracle(warm, app, scheme):
    # Partition *reuse* is app-dependent (a delta shifts frontier-based
    # apps' active sources in every partition); exact *parity* is not.
    pricer, versioned = warm
    ours = pricer.price(app, scheme, versioned)
    oracle = StagePricer(scale=SCALE).price(app, scheme, versioned)
    assert ours == oracle


@pytest.mark.parametrize("kind", ["insert", "delete", "mixed", "empty"])
def test_delta_kinds_price_exactly(warm, kind):
    """Each delta shape chains onto the head and still prices exactly."""
    pricer, _versioned = warm
    head = load("ukl", SCALE)  # base; deltas chain via the registry
    if kind == "empty":
        delta = GraphDelta.of(insertions=[[0, 0]])  # canonicalizes away
        assert delta.empty
    else:
        delta = sample_delta(
            head, seed=hash(kind) % (2 ** 31),
            insertions=8 if kind in ("insert", "mixed") else 0,
            deletions=8 if kind in ("delete", "mixed") else 0,
            row_range=(0, 192))
    handle = apply_delta("ukl", delta, SCALE)
    before = stage_counters()
    ours = pricer.price("dc", "phi+spzip", handle.versioned_name,
                        preprocessing="natural")
    after = stage_counters()
    # dc's iteration structure (one all-active pass) is delta-stable
    # and "natural" keeps ids fixed, so the localized delta must reuse
    # every untouched partition: rows [0, 192) touch at most the first
    # two of the five 128-vertex partitions ukl has at this scale.
    hits = after.get("stream.partition.hit", 0) \
        - before.get("stream.partition.hit", 0)
    computed = after.get("stream.partition.computed", 0) \
        - before.get("stream.partition.computed", 0)
    assert hits >= 3
    assert computed <= 2
    oracle = StagePricer(scale=SCALE).price("dc", "phi+spzip",
                                            handle.versioned_name,
                                            preprocessing="natural")
    assert ours == oracle


def test_preprocessed_versioned_dataset_prices_exactly(warm):
    """Preprocessing applies on top of the mutated instance."""
    pricer, versioned = warm
    ours = pricer.price("pr", "phi+spzip", versioned,
                        preprocessing="dfs")
    oracle = StagePricer(scale=SCALE).price("pr", "phi+spzip",
                                            versioned,
                                            preprocessing="dfs")
    assert ours == oracle
