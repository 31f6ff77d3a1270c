"""Reference models for ordering checks: a GCN trained from scratch and full
fine-tuning on top of the link-prediction checkpoint. Node tasks only; both
start their trainable first layer from A X, built once for the training
rows and once for every row (fine-tuning's by `encoder.forward_start`, as
its base trains; the GCN plans its own rows with `encoder.forward_plan`)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..encoder import (
    encoder_forward,
    forward_plan,
    forward_start,
    glorot,
    own_base,
)
from ..errors import ConfigError
from ..graphstore import Graph, SplitSpec, normalize_adjacency
from ..numcore import (
    fit,
    gather_rows,
    matmul,
    relu,
    softmax_nll,
    spmm,
)


@dataclass
class BaselineResult:
    test_accuracy: float
    train_losses: list[float]
    trainable_count: int


def _train_classifier(logits_over, trainables, g, split, lr, weight_decay,
                      epochs, patience):
    """`logits_over(ids)` plans rows `ids` (None: every row), builds their
    constant A X once and returns a function computing their logits from it:
    training runs on the training rows' receptive field, evaluation on every
    row."""
    train_logits = logits_over(split.train_ids)
    y_train = g.labels[split.train_ids]

    def steps(_epoch):
        yield softmax_nll(train_logits(), y_train, tau=1.0), 1

    losses, _best_epoch = fit(
        steps, trainables, lr=lr, weight_decay=weight_decay, epochs=epochs,
        patience=patience, what="baseline")
    logits = logits_over(None)().data
    preds = np.argmax(logits[split.test_ids], axis=1)
    accuracy = float((preds == g.labels[split.test_ids]).mean())
    return accuracy, losses


def train_scratch_gcn(g: Graph, split: SplitSpec, hidden: int, lr: float,
                      weight_decay: float, epochs: int, seed: int,
                      patience: int | None = 50) -> BaselineResult:
    """Two-layer GCN with a supervised softmax head, no pre-training."""
    if g.labels is None:
        raise ConfigError("scratch GCN needs labels")
    rng = np.random.default_rng(seed)
    adj = normalize_adjacency(g)
    w1 = glorot(rng, g.num_features, hidden)
    w2 = glorot(rng, hidden, g.num_classes)

    def logits_over(ids):
        plan = forward_plan(adj, ids, 2)
        x = g.features if plan.rows[0] is None else gather_rows(g.features, plan.rows[0])
        ax = spmm(plan.adjs[0], x)  # A (X w1) = (A X) w1

        def logits():
            out = spmm(plan.adjs[1], matmul(relu(matmul(ax, w1)), w2))
            return out if plan.picks[2] is None else gather_rows(out, plan.picks[2])
        return logits

    accuracy, losses = _train_classifier(logits_over, [w1, w2], g, split, lr,
                                         weight_decay, epochs, patience)
    return BaselineResult(test_accuracy=accuracy, train_losses=losses,
                          trainable_count=w1.data.size + w2.data.size)


def train_finetune_lp(checkpoint_params, g: Graph, split: SplitSpec,
                      lr: float, weight_decay: float, epochs: int, seed: int,
                      patience: int | None = 50) -> BaselineResult:
    """Full fine-tuning of the pre-trained encoder plus a linear head; the
    checkpoint's tensors are never written. A dataset whose feature width
    differs from the input map's fails with DimensionError before any step."""
    if g.labels is None:
        raise ConfigError("fine-tuning needs labels")
    rng = np.random.default_rng(seed)
    adj = normalize_adjacency(g)
    params = own_base(checkpoint_params, trainable=True)
    head = glorot(rng, params.w_in.cols, g.num_classes)
    trainables = params.base() + [head]

    def logits_over(ids):
        start = forward_start(adj, g.features, params, ids)
        return lambda: matmul(encoder_forward(start)[-1], head)

    accuracy, losses = _train_classifier(logits_over, trainables, g, split, lr,
                                         weight_decay, epochs, patience)
    return BaselineResult(
        test_accuracy=accuracy,
        train_losses=losses,
        trainable_count=int(sum(t.data.size for t in trainables)),
    )
