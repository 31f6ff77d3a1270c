"""The benchmark's workloads: what one set-up does and which calls one round
makes, each through the package's public entry points
(`CheckpointCache.get_or_pretrain`, `run_experiment`), with the check each
call's output must pass.

Package functions are called through their modules (`gs.load_dataset`), so
that the bindings the tracer wraps are the ones called here too."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hopprompt import graphstore as gs
from hopprompt import harness as hn
from hopprompt import numcore as nc
from hopprompt.encoder import EncoderConfig
from hopprompt.pretrain import PretrainConfig

# the acceptance suite's ordering-experiment setting
HIDDEN = 128
PRETRAIN = dict(tau=0.5, negatives=1, epochs=100, batch_size=1024, lr=1e-3,
                weight_decay=0.0)
GRID = dict(lr=[1e-3], weight_decay=[0.0], hidden=[HIDDEN], rank=[8], alpha=[0.9])
SHOTS = 5
TUNE_EPOCHS = 150


class CheckFailed(Exception):
    """A call returned, but its output is wrong."""


@dataclass
class Outcome:
    fingerprint: object        # must equal the first call of the same kind
    peak_tape_bytes: int
    final_loss: float | None = None   # pre-training, final-epoch mean
    test_acc: float | None = None


def derive_seed(seed: int) -> int:
    """The split and pre-training seed of a workload seed."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _require_finite(what: str, value) -> None:
    if not all(math.isfinite(x) for x in _numbers(value)):
        raise CheckFailed(f"{what}: non-finite number in output")


def _check_loss_curve(losses) -> float:
    _require_finite("loss curve", losses)
    first, last = losses[0][1], losses[-1][1]
    if not last < first:
        raise CheckFailed(f"pre-training loss did not fall: {first} -> {last}")
    return float(last)


def _pretrain_outcome(params, losses) -> Outcome:
    final = _check_loss_curve(losses)
    digest = hashlib.sha256()
    for t in [params.w_in] + [lp.w0 for lp in params.layers]:
        if not np.isfinite(t.data).all():
            raise CheckFailed("pre-trained parameters are non-finite")
        digest.update(t.data.tobytes())
    return Outcome(fingerprint=(tuple(losses), digest.hexdigest()),
                   peak_tape_bytes=nc.peak_tape_bytes(), final_loss=final)


def _report_outcome(report) -> Outcome:
    _require_finite(f"{report.mode} report", report.to_dict())
    return Outcome(fingerprint=report.numeric_payload(),
                   peak_tape_bytes=report.peak_tape_bytes,
                   test_acc=report.mean_accuracy)


class Workload:
    """One set-up builds the state every later call of a run uses; a round
    is one call of each kind in `calls`, in order."""

    dataset = ""

    def __init__(self, root: Path, seed: int):
        self.path = root / "datasets" / self.dataset
        self.seed = derive_seed(seed)
        self.data = None
        self.cache = None
        self.fill_loss = None

    def encoder_cfg(self) -> EncoderConfig:
        feature_dim = (self.data.graphs[0] if isinstance(self.data, gs.GraphSet)
                       else self.data).num_features
        return EncoderConfig(layers=2, dims=[feature_dim, HIDDEN, HIDDEN])

    def pretrain_cfg(self) -> PretrainConfig:
        return PretrainConfig(seed=self.seed, **PRETRAIN)

    def setup(self, scratch: Path) -> None:
        """Load the data and fill a fresh disk cache with this seed's
        checkpoint."""
        self.data = gs.load_dataset(self.path)
        self.cache = hn.CheckpointCache(scratch / "cache")
        _params, _cfg, losses = self.cache.get_or_pretrain(
            self.data, self.encoder_cfg(), self.pretrain_cfg())
        if losses is None:
            raise CheckFailed("set-up found its fresh cache already filled")
        self.fill_loss = _check_loss_curve(losses)

    def misses(self) -> int:
        """Pre-trainings the set-up cache has run; must not grow after set-up."""
        return self.cache.pretrain_runs

    def pretrain_loss(self, outcomes: list[Outcome]) -> tuple[float, int]:
        """Final-epoch pre-training loss and its sample count."""
        return self.fill_loss, 1

    def experiment(self, mode: str, glora_mode: str = "full"):
        cfg = hn.ExperimentConfig(
            dataset=self.dataset, mode=mode, shots=SHOTS, seeds=[self.seed],
            grid=hn.GridSpec(**GRID), layers=2, glora_mode=glora_mode,
            tau=PRETRAIN["tau"], epochs=TUNE_EPOCHS,
            pretrain_epochs=PRETRAIN["epochs"],
            batch_size=PRETRAIN["batch_size"], workers=1)
        return lambda: _report_outcome(
            hn.run_experiment(cfg, cache=self.cache, data=self.data))


class PretrainWorkload(Workload):
    """Cold pre-training: every call misses a fresh cache directory."""

    dataset = "syn-h10"

    def setup(self, scratch: Path) -> None:
        self.data = gs.load_dataset(self.path)
        self.scratch = scratch
        self.cold_caches = 0

    def misses(self) -> int:
        return 0

    def pretrain_loss(self, outcomes: list[Outcome]) -> tuple[float, int]:
        losses = [o.final_loss for o in outcomes]
        return float(np.median(losses)), len(losses)

    def calls(self):
        return [("pretrain_s", self.cold_pretrain)]

    def cold_pretrain(self) -> Outcome:
        self.cold_caches += 1
        cache = hn.CheckpointCache(self.scratch / f"cold-{self.cold_caches}")
        nc.peak_tape_bytes(reset=True)
        params, _cfg, losses = cache.get_or_pretrain(
            self.data, self.encoder_cfg(), self.pretrain_cfg())
        if losses is None:
            raise CheckFailed("a fresh cache reported a hit")
        return _pretrain_outcome(params, losses)


class TuneNodeWorkload(Workload):
    """Stage two on a node task in every adaptation mode, plus the two
    baselines, against a warm cache."""

    dataset = "syn-h10"

    def calls(self):
        return [
            ("tune_s.full", self.experiment("dagprompt", "full")),
            ("tune_s.edge_subset", self.experiment("dagprompt", "edge_subset")),
            ("tune_s.off", self.experiment("ablation:no_glora")),
            ("baseline_s.finetune_lp", self.experiment("finetune_lp")),
            ("baseline_s.scratch_gcn", self.experiment("scratch_gcn")),
        ]


class TuneGraphWorkload(Workload):
    """Stage two on a graph task: many tiny per-item forwards."""

    dataset = "ego-tiny"

    def calls(self):
        return [("tune_s.graph", self.experiment("dagprompt"))]


WORKLOADS = {
    "pretrain": PretrainWorkload,
    "tune-node": TuneNodeWorkload,
    "tune-graph": TuneGraphWorkload,
}

# every call kind any workload makes, so each run reports all of them
CALL_KINDS = ["pretrain_s", "tune_s.full", "tune_s.edge_subset", "tune_s.off",
              "baseline_s.finetune_lp", "baseline_s.scratch_gcn", "tune_s.graph"]
