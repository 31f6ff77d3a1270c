"""The tape ops, in order and with their output shapes, that the training
paths other than graph tasks run: one pre-training step from its A X start,
one node-task tune of one epoch in each GLoRA mode and one baseline run of
one epoch each, set-up and evaluation included. A change made for one path
of the shared forward that adds a product, a gather or a copy to another
fails here before a benchmark has to find it as lost time. The lists were
recorded before the graph-task read-out joined the forward plan, which
left them as they were; a change to one is a change to that path's work
and must be made on purpose."""

import importlib

import numpy as np
import pytest

import hopprompt.encoder as enc
import hopprompt.harness as hn
import hopprompt.pretrain as pt
import hopprompt.prompt as pr
from hopprompt import graphstore as gs

from tests._oracles import recorded_op_names


def _graph():
    return gs.random_labeled_graph(12, 20, 2, 4, seed=0)


CFG = enc.EncoderConfig(layers=2, dims=[4, 5, 5])


def _params():
    return enc.init_encoder(CFG, np.random.default_rng(0))


def _pretrain_step():
    # one triplet per node at most, so one batch of 64: one epoch is one step
    pt.run_pretrain(_graph(), CFG, pt.PretrainConfig(epochs=1, batch_size=64, seed=0))


def _node_tune(mode):
    def run():
        g = _graph()
        pr.run_prompt_tune(_params(), g, gs.kshot_split(g, 2, seed=0),
                           pr.PromptTuneConfig(epochs=1, patience=None, seed=0,
                                               glora_mode=mode))
    return run


def _scratch_gcn():
    g = _graph()
    hn.train_scratch_gcn(g, gs.kshot_split(g, 2, seed=0), hidden=5, lr=1e-2,
                         weight_decay=0.0, epochs=1, seed=0)


def _finetune_lp():
    g = _graph()
    hn.train_finetune_lp(_params(), g, gs.kshot_split(g, 2, seed=0), lr=1e-2,
                         weight_decay=0.0, epochs=1, seed=0)


RUNS = {
    "pretrain": _pretrain_step,
    "tune-off": _node_tune("off"),
    "tune-full": _node_tune("full"),
    "tune-edge_subset": _node_tune("edge_subset"),
    "scratch_gcn": _scratch_gcn,
    "finetune_lp": _finetune_lp,
}

PINNED = {
    "finetune_lp": [
        "gather_rows 11x4", "spmm 8x4", "matmul 4x5", "matmul 8x5", "relu 8x5",
        "spmm 4x5", "matmul 4x5", "gather_rows 4x5", "gather_rows 4x5",
        "matmul 4x2", "softmax_nll 1x1", "spmm 12x4", "matmul 4x5",
        "matmul 12x5", "relu 12x5", "spmm 12x5", "matmul 12x5", "matmul 12x2"
    ],
    "pretrain": [
        "spmm 12x4", "matmul 4x5", "matmul 12x5", "relu 12x5", "spmm 12x5",
        "matmul 12x5", "spmm 12x5", "triplet_nll 1x1"
    ],
    "scratch_gcn": [
        "gather_rows 11x4", "spmm 8x4", "matmul 8x5", "relu 8x5", "matmul 8x2",
        "spmm 4x2", "gather_rows 4x2", "softmax_nll 1x1", "spmm 12x4",
        "matmul 12x5", "relu 12x5", "matmul 12x2", "spmm 12x2"
    ],
    "tune-edge_subset": [
        "gather_rows 11x4", "matmul 11x5", "spmm 8x5", "matmul 11x5",
        "matmul 8x5", "edge_update 8x5", "edge_update 8x5",
        "lowrank_layer 8x5", "relu 8x5", "spmm 4x5", "edge_update 4x5",
        "lowrank_layer 4x5", "gather_rows 4x5", "gather_rows 4x5",
        "gather_rows 4x5", "prompt_nll 1x1", "matmul 12x5", "spmm 12x5",
        "matmul 12x5", "matmul 12x5", "edge_update 12x5", "edge_update 12x5",
        "lowrank_layer 12x5", "relu 12x5", "spmm 12x5", "edge_update 12x5",
        "lowrank_layer 12x5"
    ],
    "tune-full": [
        "matmul 12x5", "spmm 12x5", "matmul 12x5", "lowrank_layer 12x5",
        "relu 12x5", "spmm 4x5", "gather_rows 4x1", "lowrank_layer 4x5",
        "gather_rows 4x5", "gather_rows 4x5", "gather_rows 4x5",
        "prompt_nll 1x1", "matmul 12x5", "spmm 12x5", "matmul 12x5",
        "lowrank_layer 12x5", "relu 12x5", "spmm 12x5", "lowrank_layer 12x5"
    ],
    "tune-off": [
        "gather_rows 11x4", "matmul 11x5", "spmm 8x5", "matmul 8x5",
        "relu 8x5", "spmm 4x5", "matmul 4x5", "gather_rows 4x5",
        "gather_rows 4x5", "gather_rows 4x5", "prompt_nll 1x1", "matmul 12x5",
        "spmm 12x5", "matmul 12x5", "relu 12x5", "spmm 12x5", "matmul 12x5"
    ],
}


def recorded_ops(monkeypatch, run):
    """`run()`'s tape ops, each as "op RxC" of its output, in order."""
    seen = []
    for module_name in set(recorded_op_names().values()):
        module = importlib.import_module(module_name)

        def spy(op, data, *args, _real=module._record):
            seen.append(f"{op} {data.shape[0]}x{data.shape[1]}")
            return _real(op, data, *args)

        monkeypatch.setattr(module, "_record", spy)
    run()
    return seen


@pytest.mark.parametrize("name", sorted(RUNS))
def test_op_sequence_is_pinned(monkeypatch, name):
    assert recorded_ops(monkeypatch, RUNS[name]) == PINNED[name]
