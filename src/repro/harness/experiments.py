"""Experiment registry: one entry per table/figure of the evaluation.

Each experiment function takes a shared :class:`~repro.sim.Runner` and
returns an :class:`ExperimentResult` whose rows mirror the bars/series
the paper plots.  The benchmarks under ``benchmarks/`` are thin wrappers
that execute these and print/save the tables; ``EXPERIMENTS.md`` records
the paper-vs-measured comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import SpZipConfig
from repro.graph.datasets import GRAPH_INPUTS
from repro.schemes import scheme_names
from repro.sim.metrics import TRAFFIC_CLASSES, RunMetrics
from repro.sim.runner import Runner
from repro.utils import arithmetic_mean, geometric_mean

#: The paper's six schemes (Fig 15 bar order), from the registry.
SCHEMES = scheme_names("paper")

#: Apps of Fig 15, paper order; "sp" is evaluated on the nlp matrix only.
GRAPH_APPS = ("pr", "prd", "cc", "re", "dc", "bfs")
ALL_APPS = GRAPH_APPS + ("sp",)

#: Fig 18's preprocessing menu.
PREPROCESSINGS = ("none", "degree", "bfs", "dfs", "gorder")


@dataclass
class ExperimentResult:
    """A reproduced table/figure."""

    experiment: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]]
    notes: str = ""

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]


def _inputs_for(app: str) -> Sequence[str]:
    return ("nlp",) if app == "sp" else GRAPH_INPUTS


def _speedup_rows(runner: Runner, apps: Sequence[str], preprocessing: str,
                  schemes: Sequence[str] = SCHEMES) -> List[Dict[str,
                                                                 object]]:
    """Per-app gmean speedups over Push (Fig 15a/15c structure)."""
    rows = []
    for app in apps:
        row: Dict[str, object] = {"app": app}
        per_scheme: Dict[str, List[float]] = {s: [] for s in schemes}
        for dataset in _inputs_for(app):
            runs = {s: runner.run(app, s, dataset, preprocessing)
                    for s in schemes}
            for s in schemes:
                per_scheme[s].append(runs[s].speedup_over(runs["push"]))
        for s in schemes:
            row[s] = geometric_mean(per_scheme[s])
        rows.append(row)
    gmean_row: Dict[str, object] = {"app": "gmean"}
    for s in schemes:
        gmean_row[s] = geometric_mean(
            [row[s] for row in rows])  # type: ignore[misc]
    rows.append(gmean_row)
    return rows


def _traffic_rows(runner: Runner, apps: Sequence[str], preprocessing: str,
                  schemes: Sequence[str] = SCHEMES) -> List[Dict[str,
                                                                 object]]:
    """Per-app traffic breakdowns normalized to Push (Fig 15b/15d)."""
    rows = []
    for app in apps:
        for scheme in schemes:
            parts: Dict[str, List[float]] = {c: [] for c in
                                             TRAFFIC_CLASSES}
            for dataset in _inputs_for(app):
                base = runner.run(app, "push", dataset, preprocessing)
                run = runner.run(app, scheme, dataset, preprocessing)
                for cls, value in run.normalized_breakdown(base).items():
                    parts[cls].append(value)
            row: Dict[str, object] = {"app": app, "scheme": scheme}
            for cls in TRAFFIC_CLASSES:
                row[cls] = arithmetic_mean(parts[cls])
            row["total"] = sum(row[c] for c in TRAFFIC_CLASSES)
            rows.append(row)
    return rows


# --------------------------------------------------------------------------
# Motivation figures (Sec II-D)
# --------------------------------------------------------------------------

def fig07_bfs_motivation(runner: Runner,
                         preprocessing: str = "none") -> ExperimentResult:
    """Fig 7: BFS on uk-2005 — performance and traffic per scheme."""
    rows = []
    base: Optional[RunMetrics] = None
    for scheme in SCHEMES:
        run = runner.run("bfs", scheme, "ukl", preprocessing)
        if base is None:
            base = run
        row: Dict[str, object] = {
            "scheme": scheme,
            "speedup": run.speedup_over(base),
            "traffic": run.traffic_ratio_over(base),
        }
        row.update(run.normalized_breakdown(base))
        rows.append(row)
    fig = "fig07" if preprocessing == "none" else "fig08"
    title = ("BFS on uk-2005 (model), normalized to Push"
             + ("" if preprocessing == "none"
                else f", {preprocessing.upper()} preprocessing"))
    return ExperimentResult(fig, title,
                            ["scheme", "speedup", "traffic",
                             *TRAFFIC_CLASSES], rows)


def fig08_bfs_preprocessed(runner: Runner) -> ExperimentResult:
    """Fig 8: the Fig 7 experiment with DFS preprocessing."""
    return fig07_bfs_motivation(runner, preprocessing="dfs")


# --------------------------------------------------------------------------
# Tables
# --------------------------------------------------------------------------

def table1_area(_runner: Runner = None) -> ExperimentResult:
    """Table I: area breakdown of the SpZip engines."""
    from repro.engine import compressor_area, fetcher_area, \
        spzip_core_overhead
    rows = []
    fetcher = fetcher_area()
    compressor = compressor_area()
    for name, area in fetcher.rows():
        rows.append({"engine": "fetcher", "component": name,
                     "area_um2": round(area)})
    rows.append({"engine": "fetcher", "component": "Total",
                 "area_um2": round(fetcher.total)})
    for name, area in compressor.rows():
        rows.append({"engine": "compressor", "component": name,
                     "area_um2": round(area)})
    rows.append({"engine": "compressor", "component": "Total",
                 "area_um2": round(compressor.total)})
    return ExperimentResult(
        "table1", "SpZip area breakdown (um^2, 45 nm)",
        ["engine", "component", "area_um2"], rows,
        notes=f"core overhead: {100 * spzip_core_overhead():.2f}% "
              f"(paper: 0.2%)")


def table2_config(_runner: Runner = None) -> ExperimentResult:
    """Table II: the simulated system configuration."""
    from repro.config import default_system
    system = default_system()
    rows = [
        {"component": "Cores",
         "value": f"{system.num_cores} cores, x86-64, "
                  f"{system.freq_ghz} GHz, OOO"},
        {"component": "L1 caches",
         "value": f"{system.l1d.size_bytes // 1024} KB per core, "
                  f"{system.l1d.ways}-way, "
                  f"{system.l1d.latency_cycles}-cycle latency"},
        {"component": "L2 cache",
         "value": f"{system.l2.size_bytes // 1024} KB, core-private, "
                  f"{system.l2.ways}-way, "
                  f"{system.l2.latency_cycles}-cycle latency"},
        {"component": "L3 cache",
         "value": f"{system.llc.size_bytes // (1024 * 1024)} MB, shared, "
                  f"{system.llc.ways}-way, "
                  f"{system.llc.replacement.upper()}, "
                  f"{system.llc.latency_cycles}-cycle bank latency"},
        {"component": "Global NoC",
         "value": f"{system.noc.mesh_width}x{system.noc.mesh_height} "
                  f"mesh, {system.noc.flit_bytes * 8}-bit flits, "
                  f"X-Y routing"},
        {"component": "Memory",
         "value": f"{system.memory.controllers} controllers, "
                  f"{system.memory.gb_per_sec_per_controller} GB/s each "
                  f"({system.memory.total_gb_per_sec:.1f} GB/s total)"},
        {"component": "SpZip engines",
         "value": f"{system.spzip.scratchpad_bytes} B scratchpad, "
                  f"{system.spzip.max_contexts} contexts, "
                  f"{system.spzip.au_outstanding_lines} outstanding "
                  f"requests, {system.spzip.fu_bytes_per_cycle} B/cycle "
                  f"FUs"},
    ]
    return ExperimentResult("table2", "Simulated system configuration",
                            ["component", "value"], rows)


def table3_datasets(runner: Runner) -> ExperimentResult:
    """Table III: inputs — paper shape vs generated model shape."""
    from repro.graph.datasets import DATASETS, load
    rows = []
    for name, spec in DATASETS.items():
        graph = load(name, runner.scale)
        rows.append({
            "graph": name,
            "paper_vertices_m": spec.vertices_m,
            "paper_edges_m": spec.edges_m,
            "source": spec.source,
            "model_vertices": graph.num_vertices,
            "model_edges": graph.num_edges,
            "model_avg_degree": round(graph.avg_degree, 1),
        })
    return ExperimentResult(
        "table3", f"Input datasets (scale 1/{runner.scale})",
        ["graph", "paper_vertices_m", "paper_edges_m", "source",
         "model_vertices", "model_edges", "model_avg_degree"], rows)


# --------------------------------------------------------------------------
# Main results (Sec V-A)
# --------------------------------------------------------------------------

def fig15_speedups(runner: Runner,
                   preprocessing: str = "none") -> ExperimentResult:
    """Fig 15a/15c: per-application speedups over Push."""
    rows = _speedup_rows(runner, ALL_APPS, preprocessing)
    fig = "fig15a" if preprocessing == "none" else "fig15c"
    return ExperimentResult(
        fig, f"Speedups over Push ({preprocessing} preprocessing), "
             f"gmean across inputs",
        ["app", *SCHEMES], rows)


def fig15_traffic(runner: Runner,
                  preprocessing: str = "none") -> ExperimentResult:
    """Fig 15b/15d: traffic breakdowns normalized to Push."""
    rows = _traffic_rows(runner, ALL_APPS, preprocessing)
    fig = "fig15b" if preprocessing == "none" else "fig15d"
    return ExperimentResult(
        fig, f"Memory traffic by data type, normalized to Push "
             f"({preprocessing} preprocessing)",
        ["app", "scheme", *TRAFFIC_CLASSES, "total"], rows)


def fig16_per_input(runner: Runner,
                    preprocessing: str = "none") -> ExperimentResult:
    """Fig 16/17: per-input speedup and traffic for the graph apps."""
    rows = []
    for app in GRAPH_APPS:
        for dataset in GRAPH_INPUTS:
            runs = runner.run_all_schemes(app, dataset, preprocessing,
                                          schemes="paper")
            base = runs["push"]
            for scheme in SCHEMES:
                rows.append({
                    "app": app, "input": dataset, "scheme": scheme,
                    "speedup": runs[scheme].speedup_over(base),
                    "traffic": runs[scheme].traffic_ratio_over(base),
                })
    fig = "fig16" if preprocessing == "none" else "fig17"
    return ExperimentResult(
        fig, f"Per-input results ({preprocessing} preprocessing), "
             f"normalized to Push",
        ["app", "input", "scheme", "speedup", "traffic"], rows)


def fig17_per_input_preprocessed(runner: Runner) -> ExperimentResult:
    return fig16_per_input(runner, preprocessing="dfs")


# --------------------------------------------------------------------------
# Preprocessing study (Sec V-B)
# --------------------------------------------------------------------------

def fig18_preprocessing(runner: Runner,
                        dataset: str = "ukl") -> ExperimentResult:
    """Fig 18: PHI vs PHI+SpZip traffic under five preprocessings."""
    rows = []
    for preprocessing in PREPROCESSINGS:
        bases = {}
        for scheme in ("phi", "phi+spzip"):
            parts: Dict[str, List[float]] = {c: [] for c in
                                             TRAFFIC_CLASSES}
            ratios = []
            for app in GRAPH_APPS:
                none_phi = runner.run(app, "phi", dataset, "none")
                run = runner.run(app, scheme, dataset, preprocessing)
                for cls, val in run.normalized_breakdown(none_phi).items():
                    parts[cls].append(val)
                ratios.append(run.traffic_ratio_over(none_phi))
            row: Dict[str, object] = {"preprocessing": preprocessing,
                                      "scheme": scheme}
            for cls in TRAFFIC_CLASSES:
                row[cls] = arithmetic_mean(parts[cls])
            row["total"] = arithmetic_mean(ratios)
            rows.append(row)
            bases[scheme] = row["total"]
        # Adjacency compression ratio this preprocessing achieves.
        from repro.runtime.traffic import rows_compressed_bytes
        import numpy as np
        workload = runner.workload("pr", dataset, preprocessing)
        graph = workload.graph
        comp = rows_compressed_bytes(graph,
                                     np.arange(graph.num_vertices),
                                     runner.scale)
        rows[-1]["adj_compression"] = graph.num_edges * 4 / comp
    return ExperimentResult(
        "fig18", f"Traffic on {dataset} by preprocessing algorithm, "
                 f"normalized to PHI without preprocessing "
                 f"(mean over graph apps)",
        ["preprocessing", "scheme", *TRAFFIC_CLASSES, "total",
         "adj_compression"], rows)


# --------------------------------------------------------------------------
# Sensitivity studies (Sec V-C)
# --------------------------------------------------------------------------

def fig19_compression_factors(runner: Runner,
                              preprocessing: str = "none"
                              ) -> ExperimentResult:
    """Fig 19: which compressed structure buys how much speedup."""
    steps = [("phi", None),
             ("+adjacency", frozenset({"adjacency"})),
             ("+bins", frozenset({"adjacency", "updates"})),
             ("+vertex", frozenset({"adjacency", "updates", "vertex"}))]
    rows = []
    for app in GRAPH_APPS:
        row: Dict[str, object] = {"app": app}
        per_step: Dict[str, List[float]] = {name: [] for name, _ in steps}
        for dataset in GRAPH_INPUTS:
            phi = runner.run(app, "phi", dataset, preprocessing)
            for name, parts in steps:
                if parts is None:
                    run = phi
                else:
                    run = runner.run(app, "phi+spzip", dataset,
                                     preprocessing, parts=parts)
                per_step[name].append(run.speedup_over(phi))
        for name, _ in steps:
            row[name] = geometric_mean(per_step[name])
        rows.append(row)
    gmean: Dict[str, object] = {"app": "gmean"}
    for name, _ in steps:
        gmean[name] = geometric_mean([r[name] for r in rows])
    rows.append(gmean)
    return ExperimentResult(
        "fig19" + ("" if preprocessing == "none" else "-preprocessed"),
        f"Compression factor analysis over PHI ({preprocessing})",
        ["app", "phi", "+adjacency", "+bins", "+vertex"], rows)


def fig20_decoupling_vs_compression(runner: Runner) -> ExperimentResult:
    """Fig 20: decoupled fetching alone vs full SpZip, over PHI."""
    rows = []
    for preprocessing in ("none", "dfs"):
        speed_dec: List[float] = []
        speed_full: List[float] = []
        for app in GRAPH_APPS:
            for dataset in GRAPH_INPUTS:
                phi = runner.run(app, "phi", dataset, preprocessing)
                dec = runner.run(app, "phi+spzip", dataset, preprocessing,
                                 decoupled_only=True)
                full = runner.run(app, "phi+spzip", dataset,
                                  preprocessing)
                speed_dec.append(dec.speedup_over(phi))
                speed_full.append(full.speedup_over(phi))
        rows.append({"preprocessing": preprocessing,
                     "phi": 1.0,
                     "+decoupled_fetching": geometric_mean(speed_dec),
                     "+compression": geometric_mean(speed_full)})
    return ExperimentResult(
        "fig20", "Decoupled fetching vs compression (speedup over PHI, "
                 "gmean over apps and inputs)",
        ["preprocessing", "phi", "+decoupled_fetching", "+compression"],
        rows)


def fig21_scratchpad(runner: Runner,
                     rows_to_walk: int = 1500) -> ExperimentResult:
    """Fig 21: fetcher scratchpad size sensitivity (functional engine).

    Runs the Fig 3 compressed-CSR traversal of CC's input through the
    *functional* fetcher model at 1/2/4 KB scratchpads, for the
    non-preprocessed and DFS-preprocessed graphs, reporting cycles
    normalized to the 2 KB default (higher = better performance).
    Each walk is a content-addressed result of the runner's store.
    """
    rows = []
    for label, preprocessing in (("none", "none"), ("dfs", "dfs")):
        cycles_by_size = {
            scratch_kb: runner.traversal_cycles(
                "ukl", preprocessing,
                SpZipConfig(scratchpad_bytes=scratch_kb * 1024),
                rows_to_walk, mem_latency=60)
            for scratch_kb in (1, 2, 4)}
        base = cycles_by_size[2]
        rows.append({
            "graph": label,
            "1KB": base / cycles_by_size[1],
            "2KB": 1.0,
            "4KB": base / cycles_by_size[4],
        })
    return ExperimentResult(
        "fig21", "CC on uk-2005: performance vs fetcher scratchpad size "
                 "(normalized to 2 KB)",
        ["graph", "1KB", "2KB", "4KB"], rows)


def fig22_cmh(runner: Runner,
              preprocessing: str = "none") -> ExperimentResult:
    """Fig 22: compressed memory hierarchy baseline on Push and UB."""
    schemes = ("push", "push+cmh", "ub", "ub+cmh")
    speed_rows = _speedup_rows(runner, ALL_APPS, preprocessing,
                               schemes=schemes)
    return ExperimentResult(
        "fig22" + ("" if preprocessing == "none" else "-preprocessed"),
        f"Compressed memory hierarchy vs Push ({preprocessing})",
        ["app", *schemes], speed_rows)


def sorting_optimization(runner: Runner) -> ExperimentResult:
    """Sec V-C: order-insensitive sorting on CC's UB bins.

    The paper reports sorting improves CC's binned-update compression
    from 1.26x to 1.55x across inputs.
    """
    rows = []
    for dataset in GRAPH_INPUTS:
        profiles = runner.profiles("cc", dataset, "none")
        raw = sum(p.update_bytes * p.weight for p in profiles)
        sorted_ = sum(p.update_bytes_compressed * p.weight
                      for p in profiles)
        unsorted = sum(p.update_bytes_compressed_unsorted * p.weight
                       for p in profiles)
        rows.append({
            "input": dataset,
            "unsorted_ratio": raw / max(1, unsorted),
            "sorted_ratio": raw / max(1, sorted_),
        })
    mean_row = {
        "input": "mean",
        "unsorted_ratio": arithmetic_mean(
            [r["unsorted_ratio"] for r in rows]),
        "sorted_ratio": arithmetic_mean(
            [r["sorted_ratio"] for r in rows]),
    }
    rows.append(mean_row)
    return ExperimentResult(
        "sorting", "CC/UB bin compression: order-insensitive sorting",
        ["input", "unsorted_ratio", "sorted_ratio"], rows)


#: Registry used by the benchmarks and EXPERIMENTS.md generation.
EXPERIMENTS: Dict[str, Callable[[Runner], ExperimentResult]] = {
    "fig07": fig07_bfs_motivation,
    "fig08": fig08_bfs_preprocessed,
    "table1": table1_area,
    "table2": table2_config,
    "table3": table3_datasets,
    "fig15a": lambda r: fig15_speedups(r, "none"),
    "fig15b": lambda r: fig15_traffic(r, "none"),
    "fig15c": lambda r: fig15_speedups(r, "dfs"),
    "fig15d": lambda r: fig15_traffic(r, "dfs"),
    "fig16": lambda r: fig16_per_input(r, "none"),
    "fig17": fig17_per_input_preprocessed,
    "fig18": fig18_preprocessing,
    "fig19": lambda r: fig19_compression_factors(r, "none"),
    "fig19-preprocessed": lambda r: fig19_compression_factors(r, "dfs"),
    "fig20": fig20_decoupling_vs_compression,
    "fig21": fig21_scratchpad,
    "fig22": lambda r: fig22_cmh(r, "none"),
    "fig22-preprocessed": lambda r: fig22_cmh(r, "dfs"),
    "sorting": sorting_optimization,
}
