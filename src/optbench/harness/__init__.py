"""Experiment harness: execution, records, reporting, external evaluators."""

from .evalserver import ExternalEvaluator, external_evaluator_session
from .experiment import checkpoint_grid, run_cell, run_experiment
from .records import ExperimentRecord, load_records, save_records
from .reports import (
    curves_table,
    emit_reports,
    lower_median,
    normalize_losses,
    rank_algorithms,
    report_tables,
    winning_rate_heatmap,
)

__all__ = [
    "ExperimentRecord",
    "ExternalEvaluator",
    "checkpoint_grid",
    "curves_table",
    "emit_reports",
    "external_evaluator_session",
    "load_records",
    "lower_median",
    "normalize_losses",
    "rank_algorithms",
    "report_tables",
    "run_cell",
    "run_experiment",
    "save_records",
    "winning_rate_heatmap",
]
