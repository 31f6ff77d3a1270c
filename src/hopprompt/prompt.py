"""Stage two: hop-specific prompting with low-rank encoder adaptation.

Classification is reformulated as similarity against per-class prompt
vectors, one set per encoder layer. A prompt is the mean embedding of that
class's training items (recomputed each epoch from the current adapted
encoder, so gradients reach the adapter through it) plus a persistent
learnable offset. Per-layer cosine scores are combined with hop
coefficients gamma for prediction; the training loss is the unweighted sum
of per-layer softmax NLL terms, so gamma itself keeps its structured
initialization. That loss is one tape node per epoch, `numcore.prompt_nll`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoder import (
    EncoderConfig,
    EncoderParams,
    attach_glora,
    checkpoint_load,
    count_trainable,
    edge_subset_positions,
    encoder_forward,
    forward_plan,
    frozen_input,
    own_base,
    partition_params,
)
from .errors import CheckpointError, ParameterError
from .graphstore import (
    Graph,
    GraphBatch,
    GraphSet,
    SplitSpec,
    graph_batch,
    normalize_adjacency,
)
from .numcore import (
    NORM_EPS,
    Tensor,
    class_means,
    class_rows,
    fit,
    gather_rows,
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


def graph_tokens(batch: GraphBatch, params: EncoderParams,
                 cfg: EncoderConfig) -> list[Tensor]:
    """One forward over the batch's disjoint union, then each graph's mean
    row per layer: one (B, d) tensor per layer."""
    stack = encoder_forward(batch.adj, batch.features, cfg, params)
    return [spmm(batch.pool, h) for h in stack]


def anchors_from_matrices(mats: list[np.ndarray], y: np.ndarray,
                          num_classes: int) -> list[np.ndarray]:
    """Per-class row means of each layer matrix: the anchors `prompt_nll`
    builds every epoch, computed by the same code for evaluation."""
    ids = class_rows(y, num_classes)
    return [class_means(mat, ids) for mat in mats]


def prompt_param_count(num_layers: int, num_classes: int, width: int) -> int:
    """Trainable prompt-module size: offsets plus hop coefficients."""
    return num_layers * num_classes * width + num_layers


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


@dataclass
class TuneResult:
    test_accuracy: float
    train_losses: list[float]
    best_epoch: int
    trainable_encoder: int
    trainable_prompt: int
    predictions: np.ndarray = field(repr=False, default=None)


def _load_encoder(checkpoint, feature_dim: int):
    if isinstance(checkpoint, (str, Path)):
        params, cfg = checkpoint_load(checkpoint)
    else:
        params, cfg = checkpoint
    if cfg.feature_dim != feature_dim:
        raise CheckpointError(
            f"checkpoint expects {cfg.feature_dim} features, dataset has {feature_dim}"
        )
    return own_base(params, trainable=False), cfg


def _guarded_scores(mat: np.ndarray, prompts: np.ndarray) -> np.ndarray:
    """Eval-time cosine with a zero-similarity fallback for degenerate rows."""
    mn = np.linalg.norm(mat, axis=1)
    pn = np.linalg.norm(prompts, axis=1)
    mn_safe = np.where(mn < NORM_EPS, 1.0, mn)
    pn_safe = np.where(pn < NORM_EPS, 1.0, pn)
    s = (mat / mn_safe[:, None]) @ (prompts / pn_safe[:, None]).T
    s[mn < NORM_EPS] = 0.0
    s[:, pn < NORM_EPS] = 0.0
    return s


def run_prompt_tune(checkpoint, data: Graph | GraphSet, split: SplitSpec,
                    tcfg: PromptTuneConfig) -> tuple[EncoderParams, TuneResult]:
    """Jointly tune adapters, prompt offsets, and hop coefficients.

    `checkpoint` is a path or an in-memory (params, config) pair; base encoder
    weights are frozen either way, and the pair's tensors are never written.
    Deterministic for a fixed (seed, split).
    """
    if isinstance(data, GraphSet):
        return _tune_graph_task(checkpoint, data, split, tcfg)
    return _tune_node_task(checkpoint, data, split, tcfg)


def _make_stage_two(params, base_cfg, tcfg, rng, *, num_nodes=None,
                    edge_positions=None, adjacency_adaptation=True):
    cfg = EncoderConfig(layers=base_cfg.layers, dims=base_cfg.dims,
                        rank=tcfg.rank, glora_mode=tcfg.glora_mode)
    if tcfg.glora_mode != "off":
        params = attach_glora(params, cfg, rng, num_nodes=num_nodes,
                              edge_positions=edge_positions,
                              adjacency_adaptation=adjacency_adaptation)
    return params, cfg


def _prompt_trainables(theta, gamma, tcfg, num_layers):
    if tcfg.last_layer_only:
        trainables = [theta[num_layers - 1]]
    else:
        trainables = list(theta)
    if not tcfg.fixed_gamma:
        trainables.append(gamma)
    return trainables


def _once_if_frozen(forward, encoder_trainables):
    """A stage-two forward, computed once when no encoder weight trains
    (glora_mode=off): its tensors are then constant and off the tape, and the
    prompt offsets are read from `theta` afresh by every loss."""
    return forward if encoder_trainables else functools.cache(forward)


def _tune_node_task(checkpoint, g: Graph, split: SplitSpec, tcfg: PromptTuneConfig):
    if g.labels is None:
        raise ParameterError("node tuning needs labels")
    params, base_cfg = _load_encoder(checkpoint, g.num_features)
    rng = np.random.default_rng(tcfg.seed)
    adj = normalize_adjacency(g)
    positions = None
    if tcfg.glora_mode == "edge_subset":
        positions = edge_subset_positions(adj, split.train_ids)
    params, cfg = _make_stage_two(params, base_cfg, tcfg, rng,
                                  num_nodes=g.num_nodes, edge_positions=positions)

    # the input map and every W0 are frozen: each forward of this call starts
    # from constants built once, here, from this call's own inputs
    frozen = frozen_input(adj, g.features, cfg, params)

    def evaluate():
        return encoder_forward(adj, g.features, cfg, params, frozen=frozen)

    if tcfg.glora_mode == "off":
        # nothing in the encoder trains: one full forward serves every epoch
        # and the evaluation, where a restricted one would add a forward
        evaluate = _once_if_frozen(evaluate, ())

        def forward():
            return [gather_rows(h, split.train_ids) for h in evaluate()]
    else:
        # the loss reads the training rows only, so training runs on their
        # receptive field
        plan = forward_plan(adj, split.train_ids, cfg.layers,
                            edge_positions=params.edge_positions,
                            dense=tcfg.glora_mode == "full")
        # a plan whose first layer computes every row starts as the full
        # forward does
        planned = frozen if plan.rows[1] is None else frozen_input(
            adj, g.features, cfg, params, plan)

        def forward():
            return encoder_forward(adj, g.features, cfg, params, plan=plan,
                                   frozen=planned)

    return _fit_prompts(params, cfg, tcfg, split, g.labels, g.num_classes,
                        forward, evaluate)


def _tune_graph_task(checkpoint, items: GraphSet, split: SplitSpec,
                     tcfg: PromptTuneConfig):
    params, base_cfg = _load_encoder(checkpoint, items.graphs[0].num_features)
    rng = np.random.default_rng(tcfg.seed)
    # per-item graphs vary in size, so adjacency-side adaptation is disabled
    params, cfg = _make_stage_two(params, base_cfg, tcfg, rng,
                                  adjacency_adaptation=False)
    train_batch = graph_batch([items.graphs[int(i)] for i in split.train_ids])
    return _fit_prompts(
        params, cfg, tcfg, split, items.labels, items.num_classes,
        lambda: graph_tokens(train_batch, params, cfg),
        lambda: graph_tokens(graph_batch(items.graphs), params, cfg))


def _fit_prompts(params, cfg, tcfg, split, labels, num_classes, forward,
                 evaluate):
    """The stage-two loop of both tasks.

    `forward()` returns per-layer tensors with one row per training item, in
    `split.train_ids` order; `evaluate()` returns per-layer tensors with one
    row per item, read at the split's train and test ids.
    """
    num_layers = cfg.layers + 1
    width = cfg.hidden_dim
    c = num_classes
    theta = [Tensor(np.zeros((c, width)), requires_grad=True)
             for _ in range(num_layers)]
    if tcfg.fixed_gamma:
        gamma = Tensor(np.ones((1, num_layers)))
    else:
        gamma = init_gamma(tcfg.alpha, cfg.layers)

    encoder_trainables, _frozen = partition_params(params, "prompt")
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

    # final evaluation with tuned parameters
    layer_data = [h.data for h in evaluate()]
    anchor_data = anchors_from_matrices(
        [h[split.train_ids] for h in layer_data], y_train, c)
    weights = _effective_gamma(gamma, tcfg, num_layers)
    preds = _predict_rows(layer_data, anchor_data,
                          [t.data for t in theta], weights, split.test_ids)
    accuracy = float((preds == labels[split.test_ids]).mean())
    result = TuneResult(
        test_accuracy=accuracy,
        train_losses=train_losses,
        best_epoch=best_epoch,
        trainable_encoder=count_trainable(params, "prompt"),
        trainable_prompt=int(sum(t.data.size for t in prompt_trainables)),
        predictions=preds,
    )
    return params, result


def _effective_gamma(gamma: Tensor, tcfg: PromptTuneConfig,
                     num_layers: int) -> np.ndarray:
    if tcfg.last_layer_only:
        weights = np.zeros(num_layers)
        weights[-1] = 1.0
        return weights
    return gamma.data[0]


def _predict_rows(layer_data, anchor_data, theta_data, weights, ids):
    combined = None
    for w, h, anchor, off in zip(weights, layer_data, anchor_data, theta_data):
        scores = _guarded_scores(h[ids], anchor + off)
        combined = w * scores if combined is None else combined + w * scores
    return np.argmax(combined, axis=1)
