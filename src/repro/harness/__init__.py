"""Experiment harness: registry + text rendering for every table/figure."""

from repro.harness.experiments import (
    DECLARATIONS,
    EXPERIMENTS,
    Declaration,
    ExperimentResult,
    declared_cells,
)
from repro.harness.report import generate_report
from repro.harness.tables import render_table, save_table

__all__ = [
    "DECLARATIONS",
    "Declaration",
    "EXPERIMENTS",
    "ExperimentResult",
    "declared_cells",
    "generate_report",
    "render_table",
    "save_table",
]
