"""Experiment registry: one declaration per table/figure of the evaluation.

A :class:`Declaration` holds the cells (:class:`~repro.jobs.RunRequest`)
and functional-engine walks (:class:`~repro.jobs.model.WalkRequest`) an
experiment reads, and a renderer that turns their
:class:`~repro.sim.metrics.RunMetrics` and cycle counts into an
:class:`ExperimentResult`, whose rows mirror the bars/series the paper
plots.  Calling a declaration with a :class:`~repro.jobs.JobRunner`
prices its cells in one :meth:`~repro.jobs.JobRunner.prefetch`, reads
its walks in one :meth:`~repro.jobs.JobRunner.walks`, and renders from
the map those return, which holds exactly what was declared: a read the
declaration does not name is a ``KeyError``, so the declaration cannot
drift from the table.  Fig 21 declares its walks and no cells; Tables
I–III and the sorting study declare nothing and read the model, graphs
and profiles through the runner.

:data:`EXPERIMENTS` maps each id to ``entry(runner)``, the one path that
``repro experiment``, the figure benchmarks under ``benchmarks/`` and
``repro report`` all run; :func:`declared_cells` is what a report prices
up front.  ``EXPERIMENTS.md`` records the paper-vs-measured comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping,
                    Sequence, Union)

from repro.apps import ALL_APPS, GRAPH_APPS
from repro.config import SpZipConfig
from repro.graph.datasets import GRAPH_INPUTS
from repro.jobs.model import RunRequest, WalkRequest
from repro.schemes import resolve, scheme_names
from repro.sim.metrics import TRAFFIC_CLASSES, RunMetrics
from repro.utils import arithmetic_mean, geometric_mean

if TYPE_CHECKING:
    from repro.jobs import JobRunner

#: The paper's six schemes (Fig 15 bar order), from the registry.
SCHEMES = scheme_names("paper")

#: Fig 18's preprocessing menu.
PREPROCESSINGS = ("none", "degree", "bfs", "dfs", "gorder")

#: What a renderer reads: its declared cells' metrics and its declared
#: walks' cycles, and no others.
Cells = Mapping[Union[RunRequest, WalkRequest], Union[RunMetrics, int]]


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


@dataclass(frozen=True)
class Declaration:
    """The cells and walks an experiment reads, and how it renders
    them."""

    cells: Sequence[RunRequest]
    render: Callable[[Cells, JobRunner], ExperimentResult]
    walks: Sequence[WalkRequest] = ()

    def __call__(self, runner: JobRunner) -> ExperimentResult:
        """Price the declared cells in one prefetch and read the
        declared walks, then render."""
        reads: Dict[object, object] = dict(runner.prefetch(self.cells))
        # Walks are read here, when the entry runs, and never in a
        # report's up-front prefetch: put there, they held the sections
        # before Fig 21 back until the walks finished, and perfbench's
        # report_cold p50_ms rose 15% on a 2-vCPU VM (2368 -> 2729 ms).
        reads.update(runner.walks(self.walks))
        return self.render(reads, runner)


def _inputs_for(app: str) -> Sequence[str]:
    return ("nlp",) if app == "sp" else GRAPH_INPUTS


def _grid(apps: Sequence[str], schemes: Sequence[str],
          preprocessing: str) -> List[RunRequest]:
    """Each app's cell of each scheme, on each of the app's inputs."""
    return [RunRequest(app, scheme, dataset, preprocessing)
            for app in apps
            for dataset in _inputs_for(app)
            for scheme in schemes]


def _variant(scheme: str, **knobs) -> str:
    """An ablation variant's canonical scheme name, e.g.
    ``phi+spzip[parts=adjacency]``."""
    return resolve(scheme, **knobs).canonical()


def _speedup_rows(metrics: Cells, apps: Sequence[str], preprocessing: str,
                  schemes: Sequence[str] = SCHEMES) -> List[Dict[str,
                                                                 object]]:
    """Per-app gmean speedups over Push (Fig 15a/15c structure)."""
    rows = []
    for app in apps:
        row: Dict[str, object] = {"app": app}
        per_scheme: Dict[str, List[float]] = {s: [] for s in schemes}
        for dataset in _inputs_for(app):
            runs = {s: metrics[RunRequest(app, s, dataset, preprocessing)]
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


def _traffic_rows(metrics: Cells, apps: Sequence[str], preprocessing: str,
                  schemes: Sequence[str] = SCHEMES) -> List[Dict[str,
                                                                 object]]:
    """Per-app traffic breakdowns normalized to Push (Fig 15b/15d)."""
    rows = []
    for app in apps:
        for scheme in schemes:
            parts: Dict[str, List[float]] = {c: [] for c in
                                             TRAFFIC_CLASSES}
            for dataset in _inputs_for(app):
                base = metrics[RunRequest(app, "push", dataset,
                                          preprocessing)]
                run = metrics[RunRequest(app, scheme, dataset,
                                         preprocessing)]
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

def fig07_bfs_motivation(preprocessing: str = "none") -> Declaration:
    """Fig 7 (Fig 8 under DFS preprocessing): BFS on uk-2005 —
    performance and traffic per scheme."""
    cells = [RunRequest("bfs", scheme, "ukl", preprocessing)
             for scheme in SCHEMES]

    def render(metrics: Cells, _runner: JobRunner) -> ExperimentResult:
        base = metrics[cells[0]]
        rows = []
        for cell in cells:
            run = metrics[cell]
            row: Dict[str, object] = {
                "scheme": cell.scheme,
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
    return Declaration(cells, render)


# --------------------------------------------------------------------------
# Tables
# --------------------------------------------------------------------------

def table1_area() -> Declaration:
    """Table I: area breakdown of the SpZip engines."""
    def render(_metrics: Cells, _runner: JobRunner) -> ExperimentResult:
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
    return Declaration((), render)


def table2_config() -> Declaration:
    """Table II: the simulated system configuration."""
    def render(_metrics: Cells, _runner: JobRunner) -> ExperimentResult:
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
             "value": f"{system.llc.size_bytes // (1024 * 1024)} MB, "
                      f"shared, {system.llc.ways}-way, "
                      f"{system.llc.replacement.upper()}, "
                      f"{system.llc.latency_cycles}-cycle bank latency"},
            {"component": "Global NoC",
             "value": f"{system.noc.mesh_width}x{system.noc.mesh_height} "
                      f"mesh, {system.noc.flit_bytes * 8}-bit flits, "
                      f"X-Y routing"},
            {"component": "Memory",
             "value": f"{system.memory.controllers} controllers, "
                      f"{system.memory.gb_per_sec_per_controller} GB/s "
                      f"each ({system.memory.total_gb_per_sec:.1f} GB/s "
                      f"total)"},
            {"component": "SpZip engines",
             "value": f"{system.spzip.scratchpad_bytes} B scratchpad, "
                      f"{system.spzip.max_contexts} contexts, "
                      f"{system.spzip.au_outstanding_lines} outstanding "
                      f"requests, {system.spzip.fu_bytes_per_cycle} "
                      f"B/cycle FUs"},
        ]
        return ExperimentResult("table2", "Simulated system configuration",
                                ["component", "value"], rows)
    return Declaration((), render)


def table3_datasets() -> Declaration:
    """Table III: inputs — paper shape vs generated model shape."""
    def render(_metrics: Cells, runner: JobRunner) -> ExperimentResult:
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
    return Declaration((), render)


# --------------------------------------------------------------------------
# Main results (Sec V-A)
# --------------------------------------------------------------------------

def fig15_speedups(preprocessing: str = "none") -> Declaration:
    """Fig 15a/15c: per-application speedups over Push."""
    def render(metrics: Cells, _runner: JobRunner) -> ExperimentResult:
        fig = "fig15a" if preprocessing == "none" else "fig15c"
        return ExperimentResult(
            fig, f"Speedups over Push ({preprocessing} preprocessing), "
                 f"gmean across inputs",
            ["app", *SCHEMES],
            _speedup_rows(metrics, ALL_APPS, preprocessing))
    return Declaration(_grid(ALL_APPS, SCHEMES, preprocessing), render)


def fig15_traffic(preprocessing: str = "none") -> Declaration:
    """Fig 15b/15d: traffic breakdowns normalized to Push."""
    def render(metrics: Cells, _runner: JobRunner) -> ExperimentResult:
        fig = "fig15b" if preprocessing == "none" else "fig15d"
        return ExperimentResult(
            fig, f"Memory traffic by data type, normalized to Push "
                 f"({preprocessing} preprocessing)",
            ["app", "scheme", *TRAFFIC_CLASSES, "total"],
            _traffic_rows(metrics, ALL_APPS, preprocessing))
    return Declaration(_grid(ALL_APPS, SCHEMES, preprocessing), render)


def fig16_per_input(preprocessing: str = "none") -> Declaration:
    """Fig 16/17: per-input speedup and traffic for the graph apps."""
    def render(metrics: Cells, _runner: JobRunner) -> ExperimentResult:
        rows = []
        for app in GRAPH_APPS:
            for dataset in GRAPH_INPUTS:
                base = metrics[RunRequest(app, "push", dataset,
                                          preprocessing)]
                for scheme in SCHEMES:
                    run = metrics[RunRequest(app, scheme, dataset,
                                             preprocessing)]
                    rows.append({
                        "app": app, "input": dataset, "scheme": scheme,
                        "speedup": run.speedup_over(base),
                        "traffic": run.traffic_ratio_over(base),
                    })
        fig = "fig16" if preprocessing == "none" else "fig17"
        return ExperimentResult(
            fig, f"Per-input results ({preprocessing} preprocessing), "
                 f"normalized to Push",
            ["app", "input", "scheme", "speedup", "traffic"], rows)
    return Declaration(_grid(GRAPH_APPS, SCHEMES, preprocessing), render)


# --------------------------------------------------------------------------
# Preprocessing study (Sec V-B)
# --------------------------------------------------------------------------

def fig18_preprocessing(dataset: str = "ukl") -> Declaration:
    """Fig 18: PHI vs PHI+SpZip traffic under five preprocessings."""
    schemes = ("phi", "phi+spzip")

    def render(metrics: Cells, runner: JobRunner) -> ExperimentResult:
        rows = []
        for preprocessing in PREPROCESSINGS:
            for scheme in schemes:
                parts: Dict[str, List[float]] = {c: [] for c in
                                                 TRAFFIC_CLASSES}
                ratios = []
                for app in GRAPH_APPS:
                    none_phi = metrics[RunRequest(app, "phi", dataset,
                                                  "none")]
                    run = metrics[RunRequest(app, scheme, dataset,
                                             preprocessing)]
                    for cls, val in \
                            run.normalized_breakdown(none_phi).items():
                        parts[cls].append(val)
                    ratios.append(run.traffic_ratio_over(none_phi))
                row: Dict[str, object] = {"preprocessing": preprocessing,
                                          "scheme": scheme}
                for cls in TRAFFIC_CLASSES:
                    row[cls] = arithmetic_mean(parts[cls])
                row["total"] = arithmetic_mean(ratios)
                rows.append(row)
            # Adjacency compression ratio this preprocessing achieves.
            # Imported here, so a wrapper installed on load_preprocessed
            # after import (perfbench's layer trace) sees this load.
            from repro.graph.datasets import load_preprocessed
            from repro.runtime.traffic import rows_compressed_bytes
            import numpy as np
            graph = load_preprocessed(dataset, preprocessing, runner.scale)
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
    return Declaration([RunRequest(app, scheme, dataset, preprocessing)
                        for preprocessing in PREPROCESSINGS
                        for scheme in schemes
                        for app in GRAPH_APPS], render)


# --------------------------------------------------------------------------
# Sensitivity studies (Sec V-C)
# --------------------------------------------------------------------------

def fig19_compression_factors(preprocessing: str = "none") -> Declaration:
    """Fig 19: which compressed structure buys how much speedup."""
    steps = {
        "phi": "phi",
        "+adjacency": _variant("phi+spzip", parts={"adjacency"}),
        "+bins": _variant("phi+spzip", parts={"adjacency", "updates"}),
        "+vertex": _variant("phi+spzip",
                            parts={"adjacency", "updates", "vertex"}),
    }

    def render(metrics: Cells, _runner: JobRunner) -> ExperimentResult:
        rows = []
        for app in GRAPH_APPS:
            row: Dict[str, object] = {"app": app}
            per_step: Dict[str, List[float]] = {name: [] for name in steps}
            for dataset in GRAPH_INPUTS:
                phi = metrics[RunRequest(app, "phi", dataset,
                                         preprocessing)]
                for name, scheme in steps.items():
                    run = metrics[RunRequest(app, scheme, dataset,
                                             preprocessing)]
                    per_step[name].append(run.speedup_over(phi))
            for name in steps:
                row[name] = geometric_mean(per_step[name])
            rows.append(row)
        gmean: Dict[str, object] = {"app": "gmean"}
        for name in steps:
            gmean[name] = geometric_mean([r[name] for r in rows])
        rows.append(gmean)
        return ExperimentResult(
            "fig19" + ("" if preprocessing == "none" else "-preprocessed"),
            f"Compression factor analysis over PHI ({preprocessing})",
            ["app", *steps], rows)
    return Declaration(_grid(GRAPH_APPS, tuple(steps.values()),
                             preprocessing), render)


def fig20_decoupling_vs_compression() -> Declaration:
    """Fig 20: decoupled fetching alone vs full SpZip, over PHI."""
    schemes = ("phi", _variant("phi+spzip", decoupled_only=True),
               "phi+spzip")
    preprocessings = ("none", "dfs")

    def render(metrics: Cells, _runner: JobRunner) -> ExperimentResult:
        rows = []
        for preprocessing in preprocessings:
            speed_dec: List[float] = []
            speed_full: List[float] = []
            for app in GRAPH_APPS:
                for dataset in GRAPH_INPUTS:
                    phi, dec, full = (
                        metrics[RunRequest(app, scheme, dataset,
                                           preprocessing)]
                        for scheme in schemes)
                    speed_dec.append(dec.speedup_over(phi))
                    speed_full.append(full.speedup_over(phi))
            rows.append({"preprocessing": preprocessing,
                         "phi": 1.0,
                         "+decoupled_fetching": geometric_mean(speed_dec),
                         "+compression": geometric_mean(speed_full)})
        return ExperimentResult(
            "fig20", "Decoupled fetching vs compression (speedup over "
                     "PHI, gmean over apps and inputs)",
            ["preprocessing", "phi", "+decoupled_fetching",
             "+compression"], rows)
    return Declaration([cell for preprocessing in preprocessings
                        for cell in _grid(GRAPH_APPS, schemes,
                                          preprocessing)], render)


def fig21_scratchpad(rows_to_walk: int = 1500) -> Declaration:
    """Fig 21: fetcher scratchpad size sensitivity (functional engine).

    Runs the Fig 3 compressed-CSR traversal of CC's input through the
    *functional* fetcher model at 1/2/4 KB scratchpads, for the
    non-preprocessed and DFS-preprocessed graphs, reporting cycles
    normalized to the 2 KB default (higher = better performance).
    Each walk is a content-addressed result of the runner's store.
    """
    graphs = (("none", "none"), ("dfs", "dfs"))
    sizes_kb = (1, 2, 4)

    def walk(preprocessing: str, scratch_kb: int) -> WalkRequest:
        return WalkRequest("ukl", preprocessing,
                           SpZipConfig(scratchpad_bytes=scratch_kb * 1024),
                           rows_to_walk, mem_latency=60)

    def render(walked: Cells, _runner: JobRunner) -> ExperimentResult:
        rows = []
        for label, preprocessing in graphs:
            cycles_by_size = {scratch_kb: walked[walk(preprocessing,
                                                      scratch_kb)]
                              for scratch_kb in sizes_kb}
            base = cycles_by_size[2]
            rows.append({
                "graph": label,
                "1KB": base / cycles_by_size[1],
                "2KB": 1.0,
                "4KB": base / cycles_by_size[4],
            })
        return ExperimentResult(
            "fig21", "CC on uk-2005: performance vs fetcher scratchpad "
                     "size (normalized to 2 KB)",
            ["graph", "1KB", "2KB", "4KB"], rows)
    return Declaration((), render,
                       walks=[walk(preprocessing, scratch_kb)
                              for _label, preprocessing in graphs
                              for scratch_kb in sizes_kb])


def fig22_cmh(preprocessing: str = "none") -> Declaration:
    """Fig 22: compressed memory hierarchy baseline on Push and UB."""
    schemes = ("push", "push+cmh", "ub", "ub+cmh")

    def render(metrics: Cells, _runner: JobRunner) -> ExperimentResult:
        return ExperimentResult(
            "fig22" + ("" if preprocessing == "none" else "-preprocessed"),
            f"Compressed memory hierarchy vs Push ({preprocessing})",
            ["app", *schemes],
            _speedup_rows(metrics, ALL_APPS, preprocessing,
                          schemes=schemes))
    return Declaration(_grid(ALL_APPS, schemes, preprocessing), render)


def sorting_optimization() -> Declaration:
    """Sec V-C: order-insensitive sorting on CC's UB bins.

    The paper reports sorting improves CC's binned-update compression
    from 1.26x to 1.55x across inputs.
    """
    def render(_metrics: Cells, runner: JobRunner) -> ExperimentResult:
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
    return Declaration((), render)


#: Experiment id -> its declaration's builder.  Declarations are built
#: when an entry runs, not at import: a full report declares 1,844
#: cells (772 distinct).
DECLARATIONS: Dict[str, Callable[[], Declaration]] = {
    "fig07": lambda: fig07_bfs_motivation("none"),
    "fig08": lambda: fig07_bfs_motivation("dfs"),
    "table1": table1_area,
    "table2": table2_config,
    "table3": table3_datasets,
    "fig15a": lambda: fig15_speedups("none"),
    "fig15b": lambda: fig15_traffic("none"),
    "fig15c": lambda: fig15_speedups("dfs"),
    "fig15d": lambda: fig15_traffic("dfs"),
    "fig16": lambda: fig16_per_input("none"),
    "fig17": lambda: fig16_per_input("dfs"),
    "fig18": fig18_preprocessing,
    "fig19": lambda: fig19_compression_factors("none"),
    "fig19-preprocessed": lambda: fig19_compression_factors("dfs"),
    "fig20": fig20_decoupling_vs_compression,
    "fig21": fig21_scratchpad,
    "fig22": lambda: fig22_cmh("none"),
    "fig22-preprocessed": lambda: fig22_cmh("dfs"),
    "sorting": sorting_optimization,
}


def declared_cells(experiment_ids: Iterable[str]) -> List[RunRequest]:
    """The cells the given entries declare, deduplicated, in order."""
    return list(dict.fromkeys(
        cell for experiment_id in experiment_ids
        for cell in DECLARATIONS[experiment_id]().cells))


def _entry(build: Callable[[], Declaration]
           ) -> Callable[[JobRunner], ExperimentResult]:
    return lambda runner: build()(runner)


#: Experiment id -> ``entry(runner)``: builds the entry's declaration,
#: prices its cells in one prefetch and renders.  Used by the CLI, the
#: report and the benchmarks.
EXPERIMENTS: Dict[str, Callable[[JobRunner], ExperimentResult]] = {
    experiment_id: _entry(build)
    for experiment_id, build in DECLARATIONS.items()}
