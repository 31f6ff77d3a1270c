"""Experiment orchestration: configs, caching, baselines, runners, reports."""

from .baselines import BaselineResult, train_finetune_lp, train_scratch_gcn
from .cache import CheckpointCache, dataset_digest
from .config import (
    MODES,
    PAPER_GRID,
    PAPER_SEEDS,
    QUICK_SEEDS,
    SCHEMA_VERSION,
    ExperimentConfig,
    GridSpec,
    RunReport,
)
from .report import emit_report
from .runner import (
    ABLATION_MODES,
    run_ablation,
    run_experiment,
    run_heterophily_sweep,
    run_transfer,
)

__all__ = [
    "ABLATION_MODES",
    "BaselineResult",
    "CheckpointCache",
    "ExperimentConfig",
    "GridSpec",
    "MODES",
    "PAPER_GRID",
    "PAPER_SEEDS",
    "QUICK_SEEDS",
    "RunReport",
    "SCHEMA_VERSION",
    "dataset_digest",
    "emit_report",
    "run_ablation",
    "run_experiment",
    "run_heterophily_sweep",
    "run_transfer",
    "train_finetune_lp",
    "train_scratch_gcn",
]
