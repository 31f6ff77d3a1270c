"""Reference models for ordering checks: a GCN trained from scratch and full
fine-tuning on top of the link-prediction checkpoint. Node tasks only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..encoder import EncoderConfig, encoder_forward, forward_plan, own_base
from ..errors import ConfigError
from ..graphstore import Graph, SplitSpec, normalize_adjacency
from ..numcore import (
    Tensor,
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


def _train_classifier(forward_logits, adj, layers, trainables, g, split, lr,
                      weight_decay, epochs, patience):
    """`forward_logits(plan)` returns the logits of the plan's rows: training
    runs on the training rows' receptive field, evaluation on every row."""
    train_plan = forward_plan(adj, split.train_ids, layers)
    y_train = g.labels[split.train_ids]

    def steps(_epoch):
        yield softmax_nll(forward_logits(train_plan), y_train, tau=1.0), 1

    losses, _best_epoch = fit(
        steps, trainables, lr=lr, weight_decay=weight_decay, epochs=epochs,
        patience=patience, what="baseline")
    logits = forward_logits(forward_plan(adj, None, layers)).data
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
    f, c = g.num_features, g.num_classes

    def glorot(fan_in, fan_out):
        std = np.sqrt(2.0 / (fan_in + fan_out))
        return Tensor(std * rng.standard_normal((fan_in, fan_out)),
                      requires_grad=True)

    w1 = glorot(f, hidden)
    w2 = glorot(hidden, c)

    def forward_logits(plan):
        x = g.features if plan.rows[0] is None else gather_rows(g.features, plan.rows[0])
        h1 = relu(spmm(plan.adjs[0], matmul(x, w1)))
        logits = spmm(plan.adjs[1], matmul(h1, w2))
        return logits if plan.picks[2] is None else gather_rows(logits, plan.picks[2])

    accuracy, losses = _train_classifier(forward_logits, adj, 2, [w1, w2], g,
                                         split, lr, weight_decay, epochs, patience)
    return BaselineResult(test_accuracy=accuracy, train_losses=losses,
                          trainable_count=w1.data.size + w2.data.size)


def train_finetune_lp(checkpoint_params, cfg: EncoderConfig, g: Graph,
                      split: SplitSpec, lr: float, weight_decay: float,
                      epochs: int, seed: int,
                      patience: int | None = 50) -> BaselineResult:
    """Full fine-tuning of the pre-trained encoder plus a linear head; the
    checkpoint's tensors are never written."""
    if g.labels is None:
        raise ConfigError("fine-tuning needs labels")
    if g.num_features != cfg.feature_dim:
        raise ConfigError(
            f"dataset has {g.num_features} features, checkpoint expects {cfg.feature_dim}"
        )
    rng = np.random.default_rng(seed)
    adj = normalize_adjacency(g)
    params = own_base(checkpoint_params, trainable=True)
    std = np.sqrt(2.0 / (cfg.hidden_dim + g.num_classes))
    head = Tensor(std * rng.standard_normal((cfg.hidden_dim, g.num_classes)),
                  requires_grad=True)
    trainables = [params.w_in] + [lp.w0 for lp in params.layers] + [head]

    def forward_logits(plan):
        stack = encoder_forward(adj, g.features, params, plan=plan)
        return matmul(stack[-1], head)

    accuracy, losses = _train_classifier(forward_logits, adj, cfg.layers,
                                         trainables, g, split, lr, weight_decay,
                                         epochs, patience)
    return BaselineResult(
        test_accuracy=accuracy,
        train_losses=losses,
        trainable_count=int(sum(t.data.size for t in trainables)),
    )
