"""Stage one: contrastive link-prediction pre-training.

Each node v contributes triplets (v, a, b) with a drawn from its neighbors
and b from its non-neighbors; the encoder (plus one extra aggregation over
the normalized adjacency) is trained so cosine(s_v, s_a) beats
cosine(s_v, s_b) under a temperature-scaled two-way softmax. Every step
runs `encoder.encoder_forward` from one start, which `forward_start` plans
and builds once per run: A X, for a training base. A batch's loss is one
`numcore.triplet_nll` tape node over s = adj @ H(L); a zero-norm row of s
raises DegenerateRowError naming its node and role, which `fit` wraps in
DivergenceError with the epoch and lr.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import (
    EncoderConfig,
    checkpoint_save,
    encoder_forward,
    forward_start,
    init_encoder,
    partition_params,
)
from .errors import ParameterError, PretrainInfeasibleError
from .graphstore import Graph, GraphSet, disjoint_union, normalize_adjacency
from .numcore import fit, spmm, triplet_nll


@dataclass(frozen=True)
class Triplets:
    """Triplets as three parallel int64 arrays; indexing selects rows."""

    v: np.ndarray  # anchors
    a: np.ndarray  # connected positives
    b: np.ndarray  # non-connected negatives

    def __len__(self) -> int:
        return len(self.v)

    def __getitem__(self, rows) -> "Triplets":
        return Triplets(v=self.v[rows], a=self.a[rows], b=self.b[rows])


@dataclass
class PretrainConfig:
    tau: float = 0.5
    negatives: int = 1  # K
    epochs: int = 200
    batch_size: int = 512
    lr: float = 1e-3
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.tau <= 0:
            raise ParameterError(f"tau must be > 0, got {self.tau}")
        if self.negatives < 1:
            raise ParameterError(f"need >= 1 negative, got {self.negatives}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterError("epochs and batch_size must be >= 1")


def build_triplets(g: Graph, k_negatives: int, seed: int) -> Triplets:
    """One positive per node, k uniform negatives per positive.

    Nodes without a neighbor or without a non-neighbor are skipped with a
    warning; a graph yielding no triplets at all is infeasible.

    Draw order: for each kept node v in node order, one uniform draw over
    v's sorted neighbors, then k uniform draws (with replacement) over the
    sorted nodes outside N(v) and v itself. All draws come from one
    `integers` call with per-draw bounds, which consumes the generator
    exactly as a per-node `choice(neighbors)`, `choice(pool, size=k)` loop.
    """
    if g.num_edges == 0:
        raise PretrainInfeasibleError("graph has no edges; cannot pre-train")
    n = g.num_nodes
    offsets, targets = g.neighbors()
    deg = np.diff(offsets)
    kept = np.flatnonzero((deg > 0) & (deg < n - 1))
    skipped = n - kept.size
    if skipped:
        warnings.warn(f"{skipped} node(s) lack a neighbor or a non-neighbor; skipped")
    if not kept.size:
        raise PretrainInfeasibleError(
            "no node admits a (positive, negative) pair; cannot pre-train"
        )
    kept_deg = deg[kept]
    highs = np.empty((kept.size, 1 + k_negatives), dtype=np.int64)
    highs[:, 0] = kept_deg
    highs[:, 1:] = (n - 1 - kept_deg)[:, None]
    draws = np.random.default_rng(seed).integers(0, highs)

    # positive: the drawn entry of v's CSR neighbor row
    pos = targets[offsets[kept] + draws[:, 0]]

    # negative j of v: the j-th node outside v's excluded set N(v) + {v}.
    # With that set sorted as e_0 < e_1 < ..., c_i = e_i - i counts the free
    # nodes below e_i, so the answer is j + #{i : c_i <= j}. Keys v*n + c_i
    # are sorted across nodes, so one searchsorted serves every node.
    nodes = np.arange(n)
    src = np.repeat(nodes, deg)  # CSR row of every neighbor entry
    keys = np.sort(np.concatenate([src * n + targets, nodes * n + nodes]))
    first = offsets[:-1] + nodes  # index of each node's first key
    keys -= np.arange(keys.size) - np.repeat(first, deg + 1)
    j = draws[:, 1:]
    neg = j + np.searchsorted(keys, kept[:, None] * n + j, side="right") - first[kept, None]

    return Triplets(v=np.repeat(kept, k_negatives), a=np.repeat(pos, k_negatives),
                    b=neg.ravel())


def pretrain_loss(stack, adj, triplets: Triplets, tau: float):
    """Mean two-way contrastive loss over triplets, one `triplet_nll` node.

    Embeddings get one extra aggregation step: s = adj @ H(L).
    """
    return triplet_nll(spmm(adj, stack[-1]), triplets.v, triplets.a, triplets.b, tau)


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence(entropy=(seed, epoch)).generate_state(1)[0])


def run_pretrain(data: Graph | GraphSet, cfg: EncoderConfig, pcfg: PretrainConfig,
                 out_path=None):
    """Train the base encoder by link prediction; returns (params, losses).

    Each mini-batch is one step of `numcore.fit`, with no patience: the last
    weights stay. `losses` is a list of (epoch, mean_loss). GraphSet datasets
    train on the disjoint union of their member graphs (label-free). When
    out_path is set, a checkpoint plus `<out>.losses.csv` are written.
    """
    g = disjoint_union(data.graphs) if isinstance(data, GraphSet) else data
    if g.num_features != cfg.feature_dim:
        raise ParameterError(
            f"dataset has {g.num_features} features, config expects {cfg.feature_dim}"
        )
    rng = np.random.default_rng(pcfg.seed)
    params = init_encoder(cfg, rng)
    adj = normalize_adjacency(g)
    trainable, _ = partition_params(params, "pretrain")
    # every step's first layer starts from A X, planned and built once per run
    start = forward_start(adj, g.features, params)

    def steps(epoch):
        # the epoch's triplets and batch order are drawn when it starts
        triplets = build_triplets(g, pcfg.negatives, _epoch_seed(pcfg.seed, epoch))
        order = rng.permutation(len(triplets))
        for lo in range(0, len(triplets), pcfg.batch_size):
            batch = triplets[order[lo:lo + pcfg.batch_size]]
            yield pretrain_loss(encoder_forward(start), adj, batch, pcfg.tau), len(batch)

    epoch_losses, _best_epoch = fit(
        steps, trainable, lr=pcfg.lr, weight_decay=pcfg.weight_decay,
        epochs=pcfg.epochs, patience=None, what="pre-training")
    losses = list(enumerate(epoch_losses))

    if out_path is not None:
        out_path = Path(out_path)
        checkpoint_save(params, cfg, out_path)
        write_loss_curve(losses, out_path.with_name(out_path.name + ".losses.csv"))
    return params, losses


def write_loss_curve(losses, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, value in losses:
            writer.writerow([epoch, repr(float(value))])
