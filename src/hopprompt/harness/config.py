"""Experiment configuration and machine-readable run reports."""

from __future__ import annotations

import itertools
import json
import math
import numbers
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from ..encoder import GLORA_MODES
from ..errors import ConfigError

SCHEMA_VERSION = 1

# hyperparameter sets the grid must stay inside unless explicitly overridden
PAPER_GRID = {
    "lr": [1e-5, 5e-5, 1e-4, 5e-4, 1e-3],
    "weight_decay": [0.0, 2.5e-6, 5e-6],
    "hidden": [128, 256],
    "rank": [8, 16, 32],
    "alpha": [0.1, 0.3, 0.5, 0.7, 0.9],
}

MODES = (
    "dagprompt",
    "prototype",
    "scratch_gcn",
    "finetune_lp",
    "ablation:no_glora",
    "ablation:last_layer_only",
    "ablation:fixed_gamma",
)

# modes whose runs attach no GLoRA factors, so a grid rank of 0 is theirs
GLORA_FREE_MODES = ("scratch_gcn", "finetune_lp", "ablation:no_glora")

# the range every grid value must lie in, checked when the grid is built,
# so that no value fails a run after its pre-training
GRID_RANGES = {"lr": (0.0, math.inf), "weight_decay": (0.0, math.inf),
               "hidden": (1, math.inf), "rank": (0, math.inf), "alpha": (0.0, 1.0)}

# each whole-number field's least value, checked when the config is built;
# shots and patience may also be None
WHOLE_FIELDS = {"shots": 1, "layers": 1, "epochs": 0, "pretrain_epochs": 1,
                "negatives": 1, "batch_size": 1, "patience": 0, "workers": 1}

QUICK_SEEDS = 5
PAPER_SEEDS = 10


def _is_number(value, whole: bool) -> bool:
    if isinstance(value, bool):
        return False
    if whole:
        return isinstance(value, numbers.Integral)
    try:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass
class GridSpec:
    lr: list[float] = field(default_factory=lambda: [5e-4])
    weight_decay: list[float] = field(default_factory=lambda: [0.0])
    hidden: list[int] = field(default_factory=lambda: [128])
    rank: list[int] = field(default_factory=lambda: [8])
    alpha: list[float] = field(default_factory=lambda: [0.5])

    def __post_init__(self):
        for f in fields(self):
            values = getattr(self, f.name)
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(f"grid {f.name} must be a non-empty list, got {values!r}")
            whole = f.name in ("hidden", "rank")
            lo, hi = GRID_RANGES[f.name]
            for value in values:
                if not _is_number(value, whole):
                    raise ConfigError(
                        f"grid {f.name} values must be {'ints' if whole else 'finite numbers'}, "
                        f"got {value!r}")
                if not lo <= value <= hi:
                    raise ConfigError(
                        f"grid {f.name} values must lie in [{lo}, {hi}], got {value!r}")

    def points(self) -> list[dict]:
        """Cartesian product in a fixed field order."""
        keys = ("lr", "weight_decay", "hidden", "rank", "alpha")
        values = [getattr(self, k) for k in keys]
        return [dict(zip(keys, combo)) for combo in itertools.product(*values)]

    def validate_within_paper_sets(self) -> None:
        for key, allowed in PAPER_GRID.items():
            for value in getattr(self, key):
                # relative only: an absolute slack would pass 5e-9 as 0.0
                if not any(np.isclose(value, a, atol=0.0) for a in allowed):
                    raise ConfigError(
                        f"grid value {key}={value} outside the stated set {allowed}; "
                        "set allow_custom_grid to override"
                    )


@dataclass
class ExperimentConfig:
    dataset: str
    mode: str = "dagprompt"
    task: str | None = None  # validated against the dataset's meta when set
    shots: int | None = 5
    train_fraction: float | None = None  # full-shot alternative to shots
    seeds: list[int] = field(default_factory=lambda: list(range(QUICK_SEEDS)))
    grid: GridSpec = field(default_factory=GridSpec)
    layers: int = 2
    glora_mode: str = "full"
    tau: float = 0.5
    epochs: int = 200
    pretrain_epochs: int = 200
    negatives: int = 1
    batch_size: int = 512
    patience: int | None = 50  # None: every epoch runs, last weights kept
    selection: str = "test_acc"  # or "train_loss" (label-budget-honest mode)
    allow_custom_grid: bool = False
    workers: int = 1  # accepted and ignored: runs are serial

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode {self.mode!r} not in {MODES}")
        if self.task not in (None, "node", "graph"):
            raise ConfigError(f"task must be node/graph, got {self.task!r}")
        if (self.shots is None) == (self.train_fraction is None):
            raise ConfigError("exactly one of shots / train_fraction must be set")
        for name, least in WHOLE_FIELDS.items():
            value = getattr(self, name)
            if value is None and name in ("shots", "patience"):
                continue
            if not _is_number(value, whole=True) or value < least:
                raise ConfigError(f"{name} must be an int >= {least}, got {value!r}")
        if not (_is_number(self.tau, whole=False) and self.tau > 0):
            raise ConfigError(f"tau must be a finite number > 0, got {self.tau!r}")
        if self.train_fraction is not None and not (
                _is_number(self.train_fraction, whole=False) and 0 < self.train_fraction < 1):
            raise ConfigError(
                f"train_fraction must be a number in (0, 1), got {self.train_fraction!r}")
        if not isinstance(self.seeds, list) or not all(
                isinstance(s, int) and not isinstance(s, bool) and s >= 0
                for s in self.seeds):
            raise ConfigError(f"seeds must be a list of ints >= 0, got {self.seeds!r}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.epochs > 200 or self.pretrain_epochs > 200:
            raise ConfigError("epochs are capped at 200")
        if self.selection not in ("test_acc", "train_loss"):
            raise ConfigError(f"selection must be test_acc/train_loss, got {self.selection}")
        if (self.selection == "train_loss" and len(self.grid.points()) > 1
                and (self.mode == "prototype" or self.epochs == 0)):
            # no run records a training loss, so no grid point could be chosen
            raise ConfigError(f"selection train_loss needs runs that train; mode "
                              f"{self.mode} with epochs={self.epochs} trains nothing")
        if self.glora_mode not in GLORA_MODES:
            raise ConfigError(f"glora_mode {self.glora_mode!r} not in {GLORA_MODES}")
        if (self.glora_mode != "off" and self.mode not in GLORA_FREE_MODES
                and min(self.grid.rank) < 1):
            raise ConfigError(f"grid rank must be >= 1 when {self.mode} attaches "
                              f"GLoRA ({self.glora_mode}), got {self.grid.rank}")
        if self.workers > 1:
            warnings.warn(f"workers={self.workers} is ignored: runs are serial",
                          UserWarning, stacklevel=3)
        if not self.allow_custom_grid:
            self.grid.validate_within_paper_sets()

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"{path}: {e}") from e
        return cls.from_dict(raw, where=str(path))

    @classmethod
    def from_dict(cls, raw: dict, where: str = "config") -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"{where}: expected a JSON object")
        raw = dict(raw)
        grid = raw.pop("grid", None)
        known = {f for f in cls.__dataclass_fields__ if f != "grid"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
        try:
            spec = GridSpec(**grid) if grid is not None else GridSpec()
            return cls(grid=spec, **raw)
        except TypeError as e:
            raise ConfigError(f"{where}: {e}") from e


@dataclass
class RunReport:
    """Per-mode experiment outcome; the numeric payload is deterministic."""

    dataset: str
    task: str
    mode: str
    shots: int | None
    seeds: list[int]
    accuracies: list[float]
    mean_accuracy: float
    std_accuracy: float
    chosen_grid_point: dict
    trainable_params_pretrain: int
    trainable_params_downstream: int
    peak_tape_bytes: int
    wall_clock_sec: dict
    extra: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def build(cls, *, dataset, task, mode, shots, seeds, accuracies,
              chosen_grid_point, trainable_params_pretrain,
              trainable_params_downstream, peak_tape_bytes, wall_clock_sec,
              extra=None) -> "RunReport":
        accs = [float(a) for a in accuracies]
        return cls(
            dataset=dataset, task=task, mode=mode, shots=shots,
            seeds=list(seeds), accuracies=accs,
            mean_accuracy=float(np.mean(accs)),
            std_accuracy=float(np.std(accs)),
            chosen_grid_point=dict(chosen_grid_point),
            trainable_params_pretrain=int(trainable_params_pretrain),
            trainable_params_downstream=int(trainable_params_downstream),
            peak_tape_bytes=int(peak_tape_bytes),
            wall_clock_sec=dict(wall_clock_sec),
            extra=dict(extra or {}),
        )

    def numeric_payload(self) -> dict:
        """Everything reproducible bit-for-bit: the results, not wall-clock
        time or the tape's memory estimate."""
        payload = asdict(self)
        payload.pop("wall_clock_sec")
        payload.pop("peak_tape_bytes")
        return payload

    def to_dict(self) -> dict:
        return asdict(self)
