"""Full evaluation report generation (markdown).

``generate_report`` runs every registered experiment against one shared
runner and renders the results as a single markdown document — the
mechanised version of EXPERIMENTS.md's "measured" columns.  Exposed on
the CLI as ``python -m repro report``.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from repro.harness.experiments import EXPERIMENTS, ExperimentResult
from repro.obs import TRACER
from repro.sim.runner import Runner


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


def generate_report(runner: Optional[Runner] = None,
                    experiment_ids: Optional[Iterable[str]] = None,
                    progress: bool = False) -> str:
    """Run experiments and return the combined markdown report.

    When ``runner`` is a :class:`~repro.jobs.JobRunner`, the whole
    cross-product of simulations the selected experiments need is
    prefetched through the job layer first (parallel workers, disk
    cache), and the experiment functions then assemble their tables
    from the prefetched results.
    """
    runner = runner if runner is not None else Runner()
    ids = list(experiment_ids) if experiment_ids is not None \
        else sorted(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")
    if hasattr(runner, "prefetch"):
        from repro.jobs.plan import experiment_requests
        requests = experiment_requests(ids)
        if requests:
            if progress:
                print(f"  prefetching {len(requests)} simulations "
                      f"(jobs={getattr(runner, 'jobs', 1)})")
            runner.prefetch(requests)
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
