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
    Graph,
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


def _single_run(cfg: ExperimentConfig, data, digest: str, cache: CheckpointCache,
                point: dict, seed: int) -> dict:
    """One (grid point, seed) cell; returns accuracy plus bookkeeping."""
    feature_dim = (data.graphs[0] if isinstance(data, GraphSet) else data).num_features
    split = _split_for(cfg, data, seed)
    out = {"seed": seed, "pretrain_sec": 0.0, "tune_sec": 0.0,
           "pretrain_params": 0, "downstream_params": 0, "train_loss": np.nan}
    mode = cfg.mode

    if mode == "scratch_gcn":
        if isinstance(data, GraphSet):
            raise ConfigError("scratch_gcn baseline covers node tasks only")
        t0 = time.perf_counter()
        res = train_scratch_gcn(data, split, hidden=int(point["hidden"]),
                                lr=float(point["lr"]),
                                weight_decay=float(point["weight_decay"]),
                                epochs=cfg.epochs, seed=seed, patience=cfg.patience)
        out.update(tune_sec=time.perf_counter() - t0,
                   accuracy=res.test_accuracy,
                   downstream_params=res.trainable_count,
                   train_loss=min(res.train_losses) if res.train_losses else np.nan)
        return out

    enc_cfg = _encoder_cfg(cfg, feature_dim, point)
    pcfg = _pretrain_cfg(cfg, point, seed)
    t0 = time.perf_counter()
    params, loaded_cfg, _losses = cache.get_or_pretrain(data, enc_cfg, pcfg,
                                                        digest=digest)
    out["pretrain_sec"] = time.perf_counter() - t0
    out["pretrain_params"] = params.w_in.data.size + sum(
        lp.w0.data.size for lp in params.layers)

    if mode == "finetune_lp":
        if isinstance(data, GraphSet):
            raise ConfigError("finetune_lp baseline covers node tasks only")
        t0 = time.perf_counter()
        res = train_finetune_lp(params, loaded_cfg, data, split,
                                lr=float(point["lr"]),
                                weight_decay=float(point["weight_decay"]),
                                epochs=cfg.epochs, seed=seed, patience=cfg.patience)
        out.update(tune_sec=time.perf_counter() - t0,
                   accuracy=res.test_accuracy,
                   downstream_params=res.trainable_count,
                   train_loss=min(res.train_losses) if res.train_losses else np.nan)
        return out

    tcfg = _tune_cfg(cfg, point, seed)
    t0 = time.perf_counter()
    _tuned, result = run_prompt_tune((params, loaded_cfg), data,
                                     split, tcfg)
    out.update(tune_sec=time.perf_counter() - t0,
               accuracy=result.test_accuracy,
               downstream_params=result.trainable_encoder + result.trainable_prompt,
               train_loss=min(result.train_losses) if result.train_losses else np.nan)
    return out


def run_experiment(cfg: ExperimentConfig, cache: CheckpointCache | None = None,
                   data=None) -> RunReport:
    """Grid search over (point x seed); the report carries the chosen point.

    Selection follows the protocol-faithful mean test accuracy by default;
    selection="train_loss" picks by training loss instead (no test labels
    touched during selection).
    """
    if data is None:
        data = load_dataset(cfg.dataset)
    task = "graph" if isinstance(data, GraphSet) else "node"
    if cfg.task is not None and cfg.task != task:
        raise ConfigError(f"config says task={cfg.task} but dataset is {task}")
    cache = cache if cache is not None else CheckpointCache()
    digest = dataset_digest(data)
    nc.peak_tape_bytes(reset=True)

    points = cfg.grid.points()
    cells = {(pi, seed): _single_run(cfg, data, digest, cache, points[pi], seed)
             for pi in range(len(points)) for seed in cfg.seeds}

    def point_accs(pi):
        return [cells[(pi, s)]["accuracy"] for s in cfg.seeds]

    if cfg.selection == "test_acc":
        score = [float(np.mean(point_accs(pi))) for pi in range(len(points))]
        best_pi = int(np.argmax(score))
    else:
        losses = [float(np.mean([cells[(pi, s)]["train_loss"] for s in cfg.seeds]))
                  for pi in range(len(points))]
        best_pi = int(np.argmin(losses))

    chosen = [cells[(best_pi, s)] for s in cfg.seeds]
    return RunReport.build(
        dataset=cfg.dataset,
        task=task,
        mode=cfg.mode,
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
    )


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
    (pre-train on the source, stage two on the target)."""
    src = load_dataset(src_path)
    dst = load_dataset(dst_path)
    src_f = (src.graphs[0] if isinstance(src, GraphSet) else src).num_features
    dst_f = (dst.graphs[0] if isinstance(dst, GraphSet) else dst).num_features
    if src_f != dst_f:
        raise TransferInfeasibleError(
            f"feature widths differ: source {src_f} vs target {dst_f}"
        )
    cache = cache if cache is not None else CheckpointCache()
    src_digest = dataset_digest(src)
    reports = []

    for suffix in ("Scratch", "Cross"):
        nc.peak_tape_bytes(reset=True)
        accs = []
        pre_sec = tune_sec = 0.0
        downstream = pretrain_count = 0
        point = cfg.grid.points()[0]
        for seed in cfg.seeds:
            split = _split_for(cfg, dst, seed)
            enc_cfg = _encoder_cfg(cfg, dst_f, point)
            if suffix == "Cross":
                pcfg = _pretrain_cfg(cfg, point, seed)
                t0 = time.perf_counter()
                params, loaded_cfg, _ = cache.get_or_pretrain(src, enc_cfg, pcfg,
                                                              digest=src_digest)
                pre_sec += time.perf_counter() - t0
                pretrain_count = params.w_in.data.size + sum(
                    lp.w0.data.size for lp in params.layers)
            else:
                params = init_encoder(enc_cfg, np.random.default_rng(seed))
                loaded_cfg = enc_cfg
            tcfg = _tune_cfg(cfg, point, seed)
            t0 = time.perf_counter()
            _tuned, result = run_prompt_tune((params, loaded_cfg), dst, split,
                                             tcfg)
            tune_sec += time.perf_counter() - t0
            accs.append(result.test_accuracy)
            downstream = result.trainable_encoder + result.trainable_prompt
        reports.append(RunReport.build(
            dataset=str(dst_path),
            task="graph" if isinstance(dst, GraphSet) else "node",
            mode=f"{cfg.mode}-{suffix}",
            shots=cfg.shots,
            seeds=cfg.seeds,
            accuracies=accs,
            chosen_grid_point=point,
            trainable_params_pretrain=pretrain_count,
            trainable_params_downstream=downstream,
            peak_tape_bytes=nc.peak_tape_bytes(),
            wall_clock_sec={"pretrain": pre_sec, "tune": tune_sec},
            extra={"source_dataset": str(src_path)},
        ))
    return reports


def run_heterophily_sweep(base_path, targets, cfg: ExperimentConfig,
                          modes=("dagprompt", "prototype"),
                          cache: CheckpointCache | None = None,
                          rewire_seed: int = 0) -> dict:
    """Rewire the base dataset to each target homophily and evaluate under the
    full-shot 50% split; infeasible targets are skipped with a warning."""
    base = load_dataset(base_path)
    if isinstance(base, GraphSet):
        raise ConfigError("heterophily sweep needs a node dataset")
    cache = cache if cache is not None else CheckpointCache()
    series: list[dict] = []
    for target in targets:
        try:
            rewired = synth_rewire(base, float(target), seed=rewire_seed)
        except (RewireInfeasibleError, InfeasibleError) as e:
            warnings.warn(f"target h={target} skipped: {e}")
            continue
        achieved = homophily_ratio(rewired)
        entry = {"target_h": float(target), "achieved_h": achieved, "modes": {}}
        for mode in modes:
            sweep_cfg = _per_mode(cfg, mode=mode, shots=None, train_fraction=0.5)
            report = run_experiment(sweep_cfg, cache=cache, data=rewired)
            entry["modes"][mode] = {
                "mean_accuracy": report.mean_accuracy,
                "std_accuracy": report.std_accuracy,
                "accuracies": report.accuracies,
            }
        series.append(entry)
    return {"dataset": str(base_path), "series": series,
            "seeds": cfg.seeds, "schema_version": 1}
