"""Experiment orchestration: k-shot protocol over seeds and a hyperparameter
grid, ablations, transfer runs, and heterophily sweeps."""

from __future__ import annotations

import time
import warnings
from dataclasses import replace

import numpy as np

from .. import numcore as nc
from ..encoder import EncoderConfig, init_encoder
from ..errors import (
    ConfigError,
    InfeasibleError,
    RewireInfeasibleError,
    TransferInfeasibleError,
)
from ..graphstore import (
    GraphSet,
    fraction_split,
    homophily_ratio,
    kshot_split,
    load_dataset,
    synth_rewire,
)
from ..pretrain import PretrainConfig
from ..prompt import PromptTuneConfig, run_prompt_tune
from .baselines import train_finetune_lp, train_scratch_gcn
from .cache import CheckpointCache, dataset_digest
from .config import ExperimentConfig, RunReport

ABLATION_MODES = ("ablation:no_glora", "ablation:last_layer_only",
                  "ablation:fixed_gamma")
BASELINE_MODES = ("scratch_gcn", "finetune_lp")


def _encoder_cfg(cfg: ExperimentConfig, feature_dim: int, point: dict) -> EncoderConfig:
    return EncoderConfig(layers=cfg.layers,
                         dims=[feature_dim] + [int(point["hidden"])] * cfg.layers)


def _pretrain_cfg(cfg: ExperimentConfig, point: dict, seed: int) -> PretrainConfig:
    return PretrainConfig(tau=cfg.tau, negatives=cfg.negatives,
                          epochs=cfg.pretrain_epochs, batch_size=cfg.batch_size,
                          lr=float(point["lr"]),
                          weight_decay=float(point["weight_decay"]), seed=seed)


def _tune_cfg(cfg: ExperimentConfig, point: dict, seed: int) -> PromptTuneConfig:
    mode = cfg.mode
    return PromptTuneConfig(
        alpha=float(point["alpha"]),
        rank=int(point["rank"]),
        glora_mode="off" if mode == "ablation:no_glora" else cfg.glora_mode,
        lr=0.0 if mode == "prototype" else float(point["lr"]),
        weight_decay=float(point["weight_decay"]),
        tau=cfg.tau,
        epochs=0 if mode == "prototype" else cfg.epochs,
        seed=seed,
        patience=cfg.patience,
        last_layer_only=(mode == "ablation:last_layer_only"),
        fixed_gamma=(mode == "ablation:fixed_gamma"),
    )


def _split_for(cfg: ExperimentConfig, data, seed: int):
    if cfg.shots is not None:
        return kshot_split(data, cfg.shots, seed)
    return fraction_split(data, cfg.train_fraction, seed)


def _single_run(cfg: ExperimentConfig, data, cache: CheckpointCache,
                point: dict, seed: int, source) -> dict:
    """One (grid point, seed) cell; returns accuracy plus bookkeeping.

    `source` is the (dataset, digest) pair to pre-train on; None starts
    from a random encoder drawn with `seed`.
    """
    split = _split_for(cfg, data, seed)
    out = {"seed": seed, "pretrain_sec": 0.0, "pretrain_params": 0}
    mode = cfg.mode
    if mode in BASELINE_MODES and isinstance(data, GraphSet):
        raise ConfigError(f"{mode} baseline covers node tasks only")

    if mode != "scratch_gcn":
        enc_cfg = _encoder_cfg(cfg, data.num_features, point)
        if source is None:
            params = init_encoder(enc_cfg, np.random.default_rng(seed))
        else:
            t0 = time.perf_counter()
            params, _cfg, _losses = cache.get_or_pretrain(
                source[0], enc_cfg, _pretrain_cfg(cfg, point, seed),
                digest=source[1])
            out["pretrain_sec"] = time.perf_counter() - t0
            out["pretrain_params"] = sum(t.data.size for t in params.base())

    train_kw = dict(lr=float(point["lr"]), weight_decay=float(point["weight_decay"]),
                    epochs=cfg.epochs, seed=seed, patience=cfg.patience)
    t0 = time.perf_counter()
    if mode == "scratch_gcn":
        res = train_scratch_gcn(data, split, hidden=int(point["hidden"]),
                                **train_kw)
        downstream = res.trainable_count
    elif mode == "finetune_lp":
        res = train_finetune_lp(params, data, split, **train_kw)
        downstream = res.trainable_count
    else:
        _tuned, res = run_prompt_tune(params, data, split,
                                      _tune_cfg(cfg, point, seed))
        downstream = res.trainable_encoder + res.trainable_prompt
    out.update(tune_sec=time.perf_counter() - t0,
               accuracy=res.test_accuracy,
               downstream_params=downstream,
               train_loss=min(res.train_losses) if res.train_losses else np.nan)
    return out


def _grid_report(cfg: ExperimentConfig, data, cache: CheckpointCache, source,
                 mode: str, dataset: str, extra: dict | None = None) -> RunReport:
    """Grid search over (point x seed) on `data`; the report carries the
    chosen point.

    Selection follows the protocol-faithful mean test accuracy by default;
    selection="train_loss" picks by training loss instead (no test labels
    touched during selection). Counts are the max over the chosen seeds.
    """
    task = "graph" if isinstance(data, GraphSet) else "node"
    if cfg.task is not None and cfg.task != task:
        raise ConfigError(f"config says task={cfg.task} but dataset is {task}")
    nc.peak_tape_bytes(reset=True)

    points = cfg.grid.points()
    cells = {(pi, seed): _single_run(cfg, data, cache, points[pi], seed, source)
             for pi in range(len(points)) for seed in cfg.seeds}

    key, pick = (("accuracy", np.argmax) if cfg.selection == "test_acc"
                 else ("train_loss", np.argmin))
    best_pi = int(pick([np.mean([cells[(pi, s)][key] for s in cfg.seeds])
                        for pi in range(len(points))]))

    chosen = [cells[(best_pi, s)] for s in cfg.seeds]
    return RunReport.build(
        dataset=dataset,
        task=task,
        mode=mode,
        shots=cfg.shots,
        seeds=cfg.seeds,
        accuracies=[c["accuracy"] for c in chosen],
        chosen_grid_point=points[best_pi],
        trainable_params_pretrain=max(c["pretrain_params"] for c in chosen),
        trainable_params_downstream=max(c["downstream_params"] for c in chosen),
        peak_tape_bytes=nc.peak_tape_bytes(),
        wall_clock_sec={
            "pretrain": sum(c["pretrain_sec"] for c in cells.values()),
            "tune": sum(c["tune_sec"] for c in cells.values()),
        },
        extra=extra,
    )


def run_experiment(cfg: ExperimentConfig, cache: CheckpointCache | None = None,
                   data=None) -> RunReport:
    """Grid search over (point x seed) on `cfg.dataset`, pre-training on it."""
    if data is None:
        data = load_dataset(cfg.dataset)
    cache = cache if cache is not None else CheckpointCache()
    return _grid_report(cfg, data, cache, (data, dataset_digest(data)),
                        cfg.mode, cfg.dataset)


def _per_mode(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    """`cfg` with `changes`, rebuilt with workers=1: the field is ignored, and
    the user's config has already warned about it once."""
    return replace(cfg, workers=1, **changes)


def run_ablation(cfg: ExperimentConfig, cache: CheckpointCache | None = None,
                 data=None) -> list[RunReport]:
    """Full model plus the three single-component ablations, same seeds."""
    if data is None:
        data = load_dataset(cfg.dataset)
    cache = cache if cache is not None else CheckpointCache()
    reports = []
    for mode in ("dagprompt",) + ABLATION_MODES:
        reports.append(run_experiment(_per_mode(cfg, mode=mode), cache=cache,
                                      data=data))
    return reports


def run_transfer(src_path, dst_path, cfg: ExperimentConfig,
                 cache: CheckpointCache | None = None) -> list[RunReport]:
    """-Scratch (random encoder, stage two only on the target) vs -Cross
    (pre-train on the source, stage two on the target), each searched over
    the grid as `run_experiment` does."""
    if cfg.mode in BASELINE_MODES:
        raise ConfigError(f"transfer tunes a prompt; mode {cfg.mode} is a baseline")
    src = load_dataset(src_path)
    dst = load_dataset(dst_path)
    src_f, dst_f = src.num_features, dst.num_features
    if src_f != dst_f:
        raise TransferInfeasibleError(
            f"feature widths differ: source {src_f} vs target {dst_f}"
        )
    cache = cache if cache is not None else CheckpointCache()
    extra = {"source_dataset": str(src_path)}
    return [_grid_report(cfg, dst, cache, source, f"{cfg.mode}-{suffix}",
                         str(dst_path), extra)
            for suffix, source in (("Scratch", None),
                                   ("Cross", (src, dataset_digest(src))))]


def run_heterophily_sweep(base_path, targets, cfg: ExperimentConfig,
                          modes=("dagprompt", "prototype"),
                          cache: CheckpointCache | None = None) -> dict:
    """Rewire the base dataset to each target homophily and evaluate under the
    full-shot 50% split; infeasible targets are skipped with a warning."""
    # every mode's config is checked before any rewiring or training
    mode_cfgs = {mode: _per_mode(cfg, mode=mode, shots=None, train_fraction=0.5)
                 for mode in modes}
    base = load_dataset(base_path)
    if isinstance(base, GraphSet):
        raise ConfigError("heterophily sweep needs a node dataset")
    cache = cache if cache is not None else CheckpointCache()
    series: list[dict] = []
    for target in targets:
        try:
            rewired = synth_rewire(base, float(target), seed=0)
        except (RewireInfeasibleError, InfeasibleError) as e:
            warnings.warn(f"target h={target} skipped: {e}")
            continue
        achieved = homophily_ratio(rewired)
        entry = {"target_h": float(target), "achieved_h": achieved, "modes": {}}
        for mode, sweep_cfg in mode_cfgs.items():
            report = run_experiment(sweep_cfg, cache=cache, data=rewired)
            entry["modes"][mode] = {
                "mean_accuracy": report.mean_accuracy,
                "std_accuracy": report.std_accuracy,
                "accuracies": report.accuracies,
            }
        series.append(entry)
    return {"dataset": str(base_path), "series": series,
            "seeds": cfg.seeds, "schema_version": 1}
