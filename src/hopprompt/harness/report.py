"""Report emission: versioned JSON with stable field order, or per-(mode,
seed) CSV rows."""

from __future__ import annotations

import csv
import json
from pathlib import Path

from ..errors import ConfigError
from .config import RunReport

_CSV_COLUMNS = [
    "schema_version", "dataset", "task", "mode", "shots", "seed", "accuracy",
    "mean_accuracy", "std_accuracy", "lr", "weight_decay", "hidden", "rank",
    "alpha", "trainable_params_pretrain", "trainable_params_downstream",
    "peak_tape_bytes",
]


def emit_report(report: RunReport | list[RunReport], path, fmt: str = "json") -> None:
    reports = report if isinstance(report, list) else [report]
    path = Path(path)
    if fmt == "json":
        payload = [r.to_dict() for r in reports]
        body = payload[0] if not isinstance(report, list) else payload
        path.write_text(json.dumps(body, indent=2) + "\n")
        return
    if fmt == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for r in reports:
                for seed, acc in zip(r.seeds, r.accuracies):
                    point = r.chosen_grid_point
                    writer.writerow([
                        r.schema_version, r.dataset, r.task, r.mode, r.shots,
                        seed, repr(acc), repr(r.mean_accuracy),
                        repr(r.std_accuracy), point.get("lr"),
                        point.get("weight_decay"), point.get("hidden"),
                        point.get("rank"), point.get("alpha"),
                        r.trainable_params_pretrain,
                        r.trainable_params_downstream, r.peak_tape_bytes,
                    ])
        return
    raise ConfigError(f"format must be json or csv, got {fmt!r}")
