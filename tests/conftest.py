import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import hopprompt.encoder as enc
import hopprompt.pretrain as pt
from hopprompt import graphstore as gs

# `pytest --hypothesis-profile=ci` draws the same examples on every run and
# prints a failure's reproduction blob, so a CI failure can be replayed;
# runs without the flag keep hypothesis's random draws
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture(scope="session", autouse=True)
def _run_from_repo_root():
    """The tests name bundled data by paths relative to the repository root
    ("datasets/web-tiny"), so they run from there, wherever pytest started."""
    started_in = os.getcwd()
    os.chdir(Path(__file__).resolve().parents[1])
    yield
    os.chdir(started_in)


@pytest.fixture(scope="session")
def tracing():
    """`bench/tracing.py` as a module, loaded from its path: its `TARGETS`
    name the package functions the bench wraps."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


# shared desk-scale fixtures: a small heterophily/homophily pair plus a
# pre-trained encoder for each, reused across prompt/harness/acceptance tests

FEATURE_DIM = 16
HIDDEN_DIM = 32
LAYERS = 2


def _base_graph(target_h: float, seed: int) -> gs.Graph:
    g = gs.random_labeled_graph(
        num_nodes=150, num_edges=600, num_classes=3, feature_dim=FEATURE_DIM,
        seed=seed, class_sep=1.0, noise=1.0,
    )
    return gs.synth_rewire(g, target_h, seed=seed)


@pytest.fixture(scope="session")
def synth_h90():
    return _base_graph(0.9, seed=100)


@pytest.fixture(scope="session")
def synth_h10():
    return _base_graph(0.1, seed=101)


def encoder_config(feature_dim=FEATURE_DIM) -> enc.EncoderConfig:
    return enc.EncoderConfig(layers=LAYERS, dims=[feature_dim] + [HIDDEN_DIM] * LAYERS)


def pretrain_quick(graph, path, seed=0, epochs=60):
    cfg = encoder_config(graph.num_features)
    pcfg = pt.PretrainConfig(epochs=epochs, batch_size=512, lr=5e-3, seed=seed)
    pt.run_pretrain(graph, cfg, pcfg, out_path=path)
    return path


@pytest.fixture(scope="session")
def ckpt_h90(synth_h90, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "h90.dagp"
    return pretrain_quick(synth_h90, path)


@pytest.fixture(scope="session")
def ckpt_h10(synth_h10, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "h10.dagp"
    return pretrain_quick(synth_h10, path)
