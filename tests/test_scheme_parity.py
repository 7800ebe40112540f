"""Golden parity: ``Runner.run`` reproduces the legacy pricing bit for
bit.

The legacy string-suffix dispatch (the scheme layer before the scheme
registry) is frozen below, constants and the CMH baseline's in-place
BDI/LCP sweep and scatter replay included.  Every (app x scheme x
preprocessing) combination — plus the Fig 19/20 ablations — is priced
by the legacy code over the runner's own profiles and through
``Runner.run``.  ``RunMetrics`` equality is exact (dataclass ``==``, no
tolerance): the refactor moved code, it must not move numbers.
"""

import numpy as np
import pytest

from repro.graph.idspace import expand_ids
from repro.memory.address import LINE_BYTES
from repro.schemes.pricing import _bdi_ratio, _lcp_fetch_ratio
from repro.sim import Runner
from repro.sim.metrics import RunMetrics, merge_traffic
from repro.sim.timing import PhaseWork, SchemeCosts, phase_cycles

TEST_SCALE = 16384

#: Frozen copy of the pre-registry string-keyed cost table.
LEGACY_COSTS = {
    "push": SchemeCosts(cycles_per_edge=20.0, cycles_per_vertex=12.0,
                        stall_per_miss=215.0),
    "push-spzip": SchemeCosts(cycles_per_edge=14.0, cycles_per_vertex=3.0,
                              stall_per_miss=10.0, random_derate=0.80),
    "ub": SchemeCosts(cycles_per_edge=8.0, cycles_per_vertex=8.0,
                      stall_per_miss=8.0, cycles_per_update=6.0),
    "ub-spzip": SchemeCosts(cycles_per_edge=3.0, cycles_per_vertex=3.0,
                            stall_per_miss=2.0, cycles_per_update=3.0,
                            random_derate=0.80),
    "phi": SchemeCosts(cycles_per_edge=4.0, cycles_per_vertex=6.0,
                       stall_per_miss=4.0, cycles_per_update=3.0),
    "phi-spzip": SchemeCosts(cycles_per_edge=2.0, cycles_per_vertex=2.5,
                             stall_per_miss=1.0, cycles_per_update=2.0,
                             random_derate=0.80),
    "pull": SchemeCosts(cycles_per_edge=10.0, cycles_per_vertex=12.0,
                        stall_per_miss=40.0),
    "pull-spzip": SchemeCosts(cycles_per_edge=3.0, cycles_per_vertex=3.0,
                              stall_per_miss=4.0, random_derate=0.80),
}

ALL_PARTS = frozenset({"adjacency", "updates", "vertex"})


def legacy_graph_dst_bytes(p, workload):
    nbytes = workload.graph.num_vertices * workload.dst_value_bytes
    return -(-nbytes // LINE_BYTES) * LINE_BYTES


def legacy_iteration_cost(workload, p, base, spzip, parts, cfg):
    compress_adj = "adjacency" in parts
    compress_upd = "updates" in parts
    compress_vtx = "vertex" in parts
    all_active = not workload.frontier_based

    adjacency = float(p.offsets_bytes)
    adjacency += p.neigh_bytes_compressed if compress_adj else p.neigh_bytes
    adjacency += (p.edge_value_bytes_compressed if compress_adj
                  else p.edge_value_bytes)

    source = float(p.src_bytes_compressed if compress_vtx else p.src_bytes)

    updates = float(p.frontier_bytes_compressed if compress_upd
                    else p.frontier_bytes)

    work = PhaseWork(edges=p.num_edges, vertices=p.num_sources)

    if base == "push":
        dest = float(p.push_dest_read_bytes + p.push_dest_write_bytes)
        work.dest_misses = p.push_dest_misses
        work.rand_bytes += dest + p.offsets_bytes * (0 if all_active else 1)
        work.seq_bytes += (adjacency + source + updates
                           - (0 if all_active else p.offsets_bytes))
    elif base == "pull":
        if all_active and p.pull_adj_bytes:
            adjacency = float(p.offsets_bytes)
            adjacency += (p.pull_adj_bytes_compressed if compress_adj
                          else p.pull_adj_bytes)
            adjacency += (p.edge_value_bytes_compressed if compress_adj
                          else p.edge_value_bytes)
            source = float(p.pull_gather_read_bytes)
            vertex_out = legacy_graph_dst_bytes(p, workload)
            dest = float(vertex_out)
            work.dest_misses = p.pull_gather_misses
            work.rand_bytes += source
            work.seq_bytes += adjacency + dest + updates
        else:
            dest = float(p.push_dest_read_bytes + p.push_dest_write_bytes)
            work.dest_misses = p.push_dest_misses
            work.rand_bytes += dest + p.offsets_bytes
            work.seq_bytes += (adjacency + source + updates
                               - p.offsets_bytes)
    elif base == "ub":
        if compress_upd:
            updates += 2.0 * p.update_bytes_compressed
        else:
            updates += 3.0 * p.update_bytes
        dest = float(p.ub_dest_bytes_compressed if compress_vtx
                     else p.ub_dest_bytes)
        work.updates = p.num_edges
        work.seq_bytes += adjacency + source + updates + dest
    else:  # phi
        upd_bytes = (p.phi_update_bytes_compressed if compress_upd
                     else p.phi_update_bytes)
        updates += float(upd_bytes)
        dest = float(p.ub_dest_bytes_compressed if compress_vtx
                     else p.ub_dest_bytes)
        work.updates = p.phi_spilled_updates
        work.seq_bytes += adjacency + source + updates + dest

    return ({"adjacency": adjacency, "source_vertex": source,
             "destination_vertex": float(dest), "updates": updates},
            work)


def legacy_cmh_ratios(workload, cfg):
    """Measured BDI/LCP ratios of the workload's actual arrays."""
    adj_bytes = expand_ids(workload.graph.neighbors, cfg.id_scale).astype(
        np.uint32).tobytes()
    if workload.dst_values is not None and workload.dst_values.size:
        dst_bytes = np.ascontiguousarray(workload.dst_values).tobytes()
    else:
        dst_bytes = b""
    return {"adj_lcp": _lcp_fetch_ratio(adj_bytes),
            "dst_lcp": _lcp_fetch_ratio(dst_bytes),
            "dst_bdi": _bdi_ratio(dst_bytes)}


def legacy_simulate_cmh(workload, profiles, base, cfg, dataset,
                        preprocessing):
    from repro.runtime.traffic import gather_rows, lru_scatter_replay
    ratios = legacy_cmh_ratios(workload, cfg)
    costs = LEGACY_COSTS[base]
    from dataclasses import replace
    costs = replace(costs, stall_per_miss=costs.stall_per_miss + 40.0)
    capacity = cfg.llc_lines

    traffic_parts = []
    work = PhaseWork()
    for p, it in zip(profiles, workload.iterations):
        adjacency = (p.offsets_bytes
                     + p.neigh_bytes / ratios["adj_lcp"]
                     + p.edge_value_bytes)
        source = float(p.src_bytes)
        updates = float(p.frontier_bytes)
        w = PhaseWork(edges=p.num_edges, vertices=p.num_sources)
        if base == "push":
            dsts = gather_rows(workload.graph, it.sources)
            per_line = max(1, LINE_BYTES // workload.dst_value_bytes)
            misses, writebacks = lru_scatter_replay(
                dsts.astype(np.int64) // per_line, capacity)
            dest = (misses * LINE_BYTES / ratios["dst_lcp"]
                    + writebacks * LINE_BYTES)
            w.dest_misses = misses
            w.rand_bytes += dest
            w.seq_bytes += adjacency + source + updates
        else:
            updates += 2.0 * p.update_bytes + p.update_bytes / 1.1
            dest = (p.ub_dest_bytes / 2) / ratios["dst_lcp"] \
                + (p.ub_dest_bytes / 2)
            w.updates = p.num_edges
            w.seq_bytes += adjacency + source + updates + dest
        traffic_parts.append({
            "adjacency": adjacency * p.weight,
            "source_vertex": source * p.weight,
            "destination_vertex": float(dest) * p.weight,
            "updates": updates * p.weight,
        })
        scaled = PhaseWork(**{f: getattr(w, f) * p.weight
                              for f in ("edges", "vertices", "updates",
                                        "dest_misses", "seq_bytes",
                                        "rand_bytes")})
        work.add(scaled)

    traffic = merge_traffic(traffic_parts)
    cycles, compute, memory = phase_cycles(work, costs, cfg.system)
    return RunMetrics(app=workload.app, scheme=f"{base}+cmh",
                      dataset=dataset, preprocessing=preprocessing,
                      cycles=cycles, compute_cycles=compute,
                      memory_cycles=memory, traffic=traffic,
                      extras=ratios)


def legacy_simulate_scheme(workload, profiles, scheme, cfg, parts=None,
                           decoupled_only=False, dataset="?",
                           preprocessing="?"):
    base = scheme.split("+")[0]
    spzip = scheme.endswith("+spzip")
    if base not in ("push", "ub", "phi", "pull"):
        raise KeyError(f"unknown scheme {scheme!r}")
    if scheme.endswith("+cmh"):
        return legacy_simulate_cmh(workload, profiles, base, cfg,
                                   dataset, preprocessing)
    if parts is None:
        parts = frozenset({"adjacency"}) if base in ("push", "pull") \
            else ALL_PARTS
    if not spzip:
        parts = frozenset()
    if decoupled_only:
        parts = frozenset()
    costs = LEGACY_COSTS[f"{base}-spzip" if spzip else base]

    traffic_parts = []
    work = PhaseWork()
    for p in profiles:
        t, w = legacy_iteration_cost(workload, p, base, spzip, parts,
                                     cfg)
        traffic_parts.append({cls: v * p.weight for cls, v in t.items()})
        stretch = p.weight * p.load_imbalance
        w_scaled = PhaseWork(
            edges=w.edges * stretch,
            vertices=w.vertices * stretch,
            updates=w.updates * stretch,
            dest_misses=w.dest_misses * p.weight,
            seq_bytes=w.seq_bytes * p.weight,
            rand_bytes=w.rand_bytes * p.weight,
        )
        work.add(w_scaled)

    traffic = merge_traffic(traffic_parts)
    cycles, compute, memory = phase_cycles(work, costs, cfg.system)
    name = scheme if not decoupled_only else f"{scheme}+decoupled-only"
    return RunMetrics(app=workload.app, scheme=name, dataset=dataset,
                      preprocessing=preprocessing, cycles=cycles,
                      compute_cycles=compute, memory_cycles=memory,
                      traffic=traffic)


# --------------------------------------------------------------------------
# The parity sweep
# --------------------------------------------------------------------------

APPS = ("pr", "prd", "cc", "re", "dc", "bfs", "sp")
SCHEMES = ("push", "push+spzip", "ub", "ub+spzip", "phi", "phi+spzip",
           "pull", "pull+spzip", "push+cmh", "ub+cmh")


@pytest.fixture(scope="module")
def runner():
    return Runner(scale=TEST_SCALE)


def _cases(scheme):
    """Ablation kwargs to sweep for one scheme (Fig 19/20 variants)."""
    cases = [{}]
    if scheme.endswith("+spzip"):
        cases += [{"parts": frozenset({part})}
                  for part in sorted(ALL_PARTS)]
        cases += [{"parts": frozenset()}, {"decoupled_only": True}]
    return cases


@pytest.mark.parametrize("preprocessing", ["none", "dfs"])
@pytest.mark.parametrize("app", APPS)
def test_registry_path_matches_legacy(runner, app, preprocessing):
    dataset = "nlp" if app == "sp" else "ukl"
    workload = runner.workload(app, dataset, preprocessing)
    profiles = runner.profiles(app, dataset, preprocessing)
    cfg = runner.config_for(workload)
    for scheme in SCHEMES:
        for kwargs in _cases(scheme):
            legacy = legacy_simulate_scheme(
                workload, profiles, scheme, cfg, dataset=dataset,
                preprocessing=preprocessing, **kwargs)
            new = runner.run(app, scheme, dataset, preprocessing,
                             **kwargs)
            assert new == legacy, (scheme, kwargs)


def test_legacy_misparse_is_now_an_error(runner):
    """`push+bogus` silently priced as plain push before; now it names
    the registered schemes instead."""
    workload = runner.workload("dc", "arb", "none")
    profiles = runner.profiles("dc", "arb", "none")
    cfg = runner.config_for(workload)
    silently_push = legacy_simulate_scheme(workload, profiles,
                                           "push+bogus", cfg)
    assert silently_push.scheme == "push+bogus"  # priced as plain push!
    with pytest.raises(KeyError, match="registered schemes"):
        runner.run("dc", "push+bogus", "arb", "none")
