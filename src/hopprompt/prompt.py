"""Stage two: hop-specific prompting with low-rank encoder adaptation.

Classification is reformulated as similarity against per-class prompt
vectors, one set per encoder layer. A prompt is the mean embedding of that
class's training items (recomputed each epoch from the current adapted
encoder, so gradients reach the adapter through it) plus a persistent
learnable offset. Training and evaluation score through one function,
`numcore.prompt_cosines`: the per-layer cosines of rows against prompts.
The training loss is the unweighted sum of per-layer softmax NLL terms over
them, so gamma itself keeps its structured initialization; that loss is one
tape node per epoch, `numcore.prompt_nll`, over all scored layers at once.
Prediction is the argmax of the cosines summed over layers with hop
coefficients gamma; a zero-norm row or prompt scores 0 in training and
evaluation alike. Each task trains from one `encoder.forward_start` per
call, a node task on its training rows' receptive field, and evaluates from
a second start over every row. GLoRA's mode and rank are set by
`PromptTuneConfig` alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoder import (
    GLORA_MODES,
    EncoderParams,
    ForwardStart,
    attach_glora,
    checkpoint_load,
    edge_subset_positions,
    encoder_forward,
    forward_start,
    own_base,
)
from .errors import ParameterError
from .graphstore import (
    Graph,
    GraphBatch,
    GraphSet,
    SplitSpec,
    graph_batch,
    normalize_adjacency,
)
from .numcore import (
    Tensor,
    class_means,
    fit,
    prompt_cosines,
    prompt_nll,
    spmm,
)


def init_gamma(alpha: float, num_layers: int) -> Tensor:
    """Learnable (1, L+1) hop weights gamma_l = alpha (1-alpha)^l for l < L,
    gamma_L = (1-alpha)^L; they sum to 1."""
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must be in [0, 1], got {alpha}")
    if num_layers < 1:
        raise ParameterError(f"need >= 1 layer, got {num_layers}")
    values = [alpha * (1.0 - alpha) ** l for l in range(num_layers)]
    values.append((1.0 - alpha) ** num_layers)
    return Tensor(np.array([values]), requires_grad=True)


def graph_tokens(batch: GraphBatch, start: ForwardStart) -> list[Tensor]:
    """One forward over the batch's disjoint union from `start`, a
    `forward_start` over it, then each graph's mean row per layer: one
    (B, d) tensor per layer."""
    return [spmm(batch.pool, h) for h in encoder_forward(start)]


def anchors_from_matrices(mats: list[np.ndarray], y: np.ndarray,
                          num_classes: int) -> np.ndarray:
    """(L, C, d) per-class row means of the layer matrices, by the same
    `class_means` that builds `prompt_nll`'s anchors every epoch."""
    return class_means(np.stack(mats), y, num_classes)


# ---------------------------------------------------------------------------
# stage-two driver
# ---------------------------------------------------------------------------

@dataclass
class PromptTuneConfig:
    alpha: float = 0.5
    rank: int = 8
    glora_mode: str = "full"
    lr: float = 5e-4
    weight_decay: float = 0.0
    tau: float = 0.5
    epochs: int = 200
    seed: int = 0
    patience: int | None = 50  # early stop, restore best; None: last weights
    last_layer_only: bool = False  # ablation: single prompt at the final layer
    fixed_gamma: bool = False      # ablation: gamma = 1 everywhere, frozen

    def __post_init__(self):
        if self.tau <= 0:
            raise ParameterError(f"tau must be > 0, got {self.tau}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.patience is not None and self.patience < 0:
            raise ParameterError(f"patience must be >= 0, got {self.patience}")
        if self.glora_mode not in GLORA_MODES:
            raise ParameterError(f"glora_mode must be one of {GLORA_MODES}")
        if self.glora_mode != "off" and self.rank < 1:
            raise ParameterError(f"rank must be >= 1 with GLoRA on, got {self.rank}")


@dataclass
class TuneResult:
    test_accuracy: float
    train_losses: list[float]
    best_epoch: int
    trainable_encoder: int
    trainable_prompt: int
    predictions: np.ndarray = field(repr=False, default=None)


def _load_encoder(checkpoint) -> EncoderParams:
    if isinstance(checkpoint, (str, Path)):
        checkpoint, _cfg = checkpoint_load(checkpoint)
    return own_base(checkpoint, trainable=False)


def run_prompt_tune(checkpoint, data: Graph | GraphSet, split: SplitSpec,
                    tcfg: PromptTuneConfig) -> tuple[EncoderParams, TuneResult]:
    """Jointly tune adapters, prompt offsets, and hop coefficients.

    `checkpoint` is a path or an `EncoderParams`, whose base weights stay
    frozen and whose tensors are never written; a dataset of another feature
    width fails with DimensionError before any step. Deterministic for a
    fixed (seed, split).
    """
    if isinstance(data, GraphSet):
        return _tune_graph_task(checkpoint, data, split, tcfg)
    return _tune_node_task(checkpoint, data, split, tcfg)


def _prompt_trainables(theta, gamma, tcfg, num_layers):
    if tcfg.last_layer_only:
        trainables = [theta[num_layers - 1]]
    else:
        trainables = list(theta)
    if not tcfg.fixed_gamma:
        trainables.append(gamma)
    return trainables


def _once_if_frozen(forward, encoder_trainables):
    """A stage-two training forward, computed once when no encoder weight
    trains (glora_mode=off): its tensors are then constant and off the tape,
    and the prompt offsets are read from `theta` afresh by every loss."""
    return forward if encoder_trainables else functools.cache(forward)


def _tune_node_task(checkpoint, g: Graph, split: SplitSpec, tcfg: PromptTuneConfig):
    if g.labels is None:
        raise ParameterError("node tuning needs labels")
    params = _load_encoder(checkpoint)
    adj = normalize_adjacency(g)
    positions = (edge_subset_positions(adj, split.train_ids)
                 if tcfg.glora_mode == "edge_subset" else None)
    params = attach_glora(params, tcfg.glora_mode, tcfg.rank,
                          np.random.default_rng(tcfg.seed),
                          num_nodes=g.num_nodes, edge_positions=positions)
    # the loss reads the training rows only, so training runs on their
    # receptive field, every epoch from constants built once, here
    start = forward_start(adj, g.features, params, split.train_ids)
    return _fit_prompts(
        params, tcfg, split, g.labels, g.num_classes,
        lambda: encoder_forward(start),
        lambda: encoder_forward(forward_start(adj, g.features, params)))


def _tune_graph_task(checkpoint, items: GraphSet, split: SplitSpec,
                     tcfg: PromptTuneConfig):
    params = _load_encoder(checkpoint)
    # per-item graphs vary in size, so adjacency-side adaptation is disabled
    params = attach_glora(params, tcfg.glora_mode, tcfg.rank,
                          np.random.default_rng(tcfg.seed),
                          adjacency_adaptation=False)
    train_batch = graph_batch([items.graphs[int(i)] for i in split.train_ids])
    # every epoch's forward starts from the training batch's X W_in
    start = forward_start(train_batch.adj, train_batch.features, params)

    def evaluate():
        every = graph_batch(items.graphs)
        return graph_tokens(every, forward_start(every.adj, every.features, params))

    return _fit_prompts(params, tcfg, split, items.labels, items.num_classes,
                        lambda: graph_tokens(train_batch, start), evaluate)


def _fit_prompts(params, tcfg, split, labels, num_classes, forward, evaluate):
    """The stage-two loop of both tasks.

    `forward()` returns per-layer tensors with one row per training item, in
    `split.train_ids` order; `evaluate()` returns per-layer tensors with one
    row per item, read at the split's train and test ids.
    """
    num_layers = len(params.layers) + 1
    width = params.w_in.cols
    c = num_classes
    theta = [Tensor(np.zeros((c, width)), requires_grad=True)
             for _ in range(num_layers)]
    if tcfg.fixed_gamma:
        gamma = Tensor(np.ones((1, num_layers)))
    else:
        gamma = init_gamma(tcfg.alpha, len(params.layers))

    encoder_trainables = params.adapters()
    prompt_trainables = _prompt_trainables(theta, gamma, tcfg, num_layers)
    y_train = labels[split.train_ids]
    scored = [num_layers - 1] if tcfg.last_layer_only else range(num_layers)
    forward = _once_if_frozen(forward, encoder_trainables)

    def steps(_epoch):
        mats = forward()
        yield prompt_nll([mats[l] for l in scored], y_train,
                         [theta[l] for l in scored], tcfg.tau), 1

    train_losses, best_epoch = fit(
        steps, encoder_trainables + prompt_trainables, lr=tcfg.lr,
        weight_decay=tcfg.weight_decay, epochs=tcfg.epochs,
        patience=tcfg.patience, what="prompt tuning")

    # final evaluation with tuned parameters, through the loss's cosines
    layer_data = [h.data for h in evaluate()]
    anchors = anchors_from_matrices(
        [h[split.train_ids] for h in layer_data], y_train, c)
    prompts = anchors + np.stack([t.data for t in theta])
    weights = np.eye(num_layers)[-1] if tcfg.last_layer_only else gamma.data[0]
    preds = _predict_rows(np.stack([h[split.test_ids] for h in layer_data]),
                          prompts, weights)
    accuracy = float((preds == labels[split.test_ids]).mean())
    result = TuneResult(
        test_accuracy=accuracy,
        train_losses=train_losses,
        best_epoch=best_epoch,
        trainable_encoder=int(sum(t.data.size for t in encoder_trainables)),
        trainable_prompt=int(sum(t.data.size for t in prompt_trainables)),
        predictions=preds,
    )
    return params, result


def _predict_rows(h: np.ndarray, prompts: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
    """Each row's class: the argmax of its (L, n, d) stack's `prompt_cosines`
    against (L, C, d) prompts, summed over layers with hop weights in layer
    order. A degenerate row or prompt scores 0."""
    scores = prompt_cosines(h, prompts)[0]
    combined = weights[0] * scores[0]
    for w, layer in zip(weights[1:], scores[1:]):
        combined = combined + w * layer
    return np.argmax(combined, axis=1)
