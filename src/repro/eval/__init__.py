"""Evaluation harness: rig construction, dataset runs, metrics, reporting."""

from repro.eval.harness import (
    EvalRun,
    Rig,
    build_rig,
    make_model,
    run_items,
)
from repro.eval.metrics import accuracy_percent, normalized_layers
from repro.eval.reporting import ExperimentResult
from repro.eval.speedup import priced_run, speedup_table

__all__ = [
    "EvalRun",
    "ExperimentResult",
    "Rig",
    "accuracy_percent",
    "build_rig",
    "make_model",
    "normalized_layers",
    "priced_run",
    "run_items",
    "speedup_table",
]
