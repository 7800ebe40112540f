"""Full evaluation report generation (markdown).

``generate_report`` runs every registered experiment against one shared
runner and renders the results as a single markdown document — the
mechanised version of EXPERIMENTS.md's "measured" columns.  Exposed on
the CLI as ``python -m repro report``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Optional

from repro.harness.experiments import EXPERIMENTS, ExperimentResult, \
    declared_cells
from repro.obs import TRACER

if TYPE_CHECKING:
    from repro.jobs import JobRunner


def _markdown_table(result: ExperimentResult) -> str:
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    header = "| " + " | ".join(result.columns) + " |"
    rule = "|" + "|".join("---" for _ in result.columns) + "|"
    body = "\n".join(
        "| " + " | ".join(fmt(row.get(col, "")) for col in result.columns)
        + " |"
        for row in result.rows)
    parts = [f"## {result.experiment}: {result.title}", "", header, rule,
             body]
    if result.notes:
        parts += ["", f"*{result.notes}*"]
    return "\n".join(parts)


def generate_report(runner: Optional[JobRunner] = None,
                    experiment_ids: Optional[Iterable[str]] = None,
                    progress: bool = False) -> str:
    """Run experiments and return the combined markdown report.

    The union of the cells the selected experiments declare is priced
    in one prefetch through the runner's job layer first (parallel
    workers, disk cache); each experiment's own prefetch then finds its
    cells resident, and it renders its table from them.  ``runner``
    defaults to a serial, disk-less :class:`~repro.jobs.JobRunner`.
    """
    if runner is None:
        from repro.jobs import JobRunner
        runner = JobRunner()
    ids = list(experiment_ids) if experiment_ids is not None \
        else sorted(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")
    cells = declared_cells(ids)
    if cells:
        if progress:
            print(f"  prefetching {len(cells)} simulations "
                  f"(jobs={runner.jobs})")
        runner.prefetch(cells)
    sections = [
        "# SpZip reproduction — generated evaluation report",
        "",
        f"Model scale 1/{runner.scale}; see DESIGN.md for the modelling "
        f"approach and EXPERIMENTS.md for the paper-vs-measured "
        f"discussion.",
    ]
    for experiment_id in ids:
        start = time.perf_counter()
        with TRACER.span("harness.experiment",
                         experiment=experiment_id):
            result = EXPERIMENTS[experiment_id](runner)
        if progress:
            print(f"  {experiment_id}: {time.perf_counter() - start:.1f}s")
        sections.append("")
        sections.append(_markdown_table(result))
    return "\n".join(sections) + "\n"
