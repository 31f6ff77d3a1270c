"""Tape-independent oracles used across the test suite.

The finite-difference oracle re-evaluates a loss as a plain float under
entry-wise perturbations; it never touches tape gradients, so it stays an
independent check of them. The triplet oracle is the per-node sampling loop
that the array sampler in `pretrain.build_triplets` must reproduce draw for
draw; the edge-subset and CSR-row oracles are the loops that
`encoder.edge_subset_positions` and `SparseMatrix` must agree with exactly.
The graph-task oracles run one forward per item and `mean_rows` pooling,
which the batched disjoint-union forward in `prompt.graph_tokens` replaces.
`reference_pretrain` is stage one's own mini-batch Adam loop, which
`run_pretrain` replaces with the shared `numcore.fit`; it scores each batch
with `unfused_pretrain_loss`, the chain of tape ops (`spmm`, three
`gather_rows`, two `rowwise_cosine_sim`, `hstack`, `softmax_nll`) that
`numcore.triplet_nll` fuses into one node (`unfused_triplet_nll` runs it
with that op's arguments). The fused op's loss equals that chain's bit for
bit; its d/ds, one sparse product, and the chain's backward agree to
rounding, and `dense_triplet_grad`, a per-triplet loop of cosine
derivatives, is the third, independent reading of that gradient.
`full_rows_plan` is the full-forward training path that node-task training
on the training rows' receptive field replaces: every layer runs on every
row and the planned rows are gathered from the result. `unfactored_forward`
runs each full-GLoRA layer as ((A + pa qa^T) h)(W0 + P Q^T), through
`rank_one_update_spmm`, where the encoder runs it as the frozen product plus
a rank-(r+1) update. `ClassPromptSet`,
`tape_anchors` and `matrix_loss` are the unfused chain of tape ops that
`numcore.prompt_nll` fuses into one node (`unfused_prompt_nll` runs it
with that op's arguments); `anchor_arrays` is the per-class mask loop the
evaluation's anchors must agree with.
"""

import dataclasses
import warnings

import numpy as np

import hopprompt.pretrain as pt
import hopprompt.prompt as pr
from hopprompt.encoder import (
    encoder_forward,
    forward_plan,
    init_encoder,
    partition_params,
)
from hopprompt.errors import (
    ContractError,
    DimensionError,
    PretrainInfeasibleError,
    SplitError,
)
from hopprompt.graphstore import GraphSet, disjoint_union, normalize_adjacency
from hopprompt.numcore import (
    AdamState,
    Tensor,
    adam_step,
    add,
    backward,
    gather_rows,
    hstack,
    matmul,
    mean_rows,
    relu,
    row_cosine_sim,
    rowwise_cosine_sim,
    scale,
    softmax_nll,
    spmm,
    transpose,
    vstack,
)
from hopprompt.pretrain import Triplets


def finite_diff(loss_fn, params, h=1e-5):
    """Central differences of loss_fn() w.r.t. each param's entries.

    loss_fn must rebuild its computation from the params' current `.data`
    on every call. Returns one ndarray per param.
    """
    grads = []
    for p in params:
        base = p.data.copy()
        g = np.zeros(p.shape)
        for idx in np.ndindex(*p.shape):
            bumped = base.copy()
            bumped[idx] = base[idx] + h
            p.data = bumped
            f_plus = loss_fn()
            bumped = base.copy()
            bumped[idx] = base[idx] - h
            p.data = bumped
            f_minus = loss_fn()
            g[idx] = (f_plus - f_minus) / (2.0 * h)
        p.data = base
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7, label=""):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    err = np.abs(analytic - numeric)
    tol = atol + rtol * np.maximum(np.abs(analytic), np.abs(numeric))
    worst = (err - tol).max()
    assert (err <= tol).all(), (
        f"gradient mismatch{f' ({label})' if label else ''}: "
        f"max excess {worst:.3e}, analytic range "
        f"[{analytic.min():.3e}, {analytic.max():.3e}]"
    )


def random_csr(rng, rows, cols, density=0.2):
    """Random canonical CSR as plain arrays (structure oracle for SparseMatrix)."""
    mask = rng.random((rows, cols)) < density
    values = rng.standard_normal((rows, cols)) * mask
    offsets = np.zeros(rows + 1, dtype=np.int64)
    col_idx = []
    vals = []
    for r in range(rows):
        cs = np.flatnonzero(mask[r])
        col_idx.extend(cs.tolist())
        vals.extend(values[r, cs].tolist())
        offsets[r + 1] = offsets[r] + cs.size
    return offsets, np.array(col_idx, dtype=np.int64), np.array(vals), values


def reference_triplets(g, k_negatives, seed):
    """Per-node loop: one `choice` over the neighbors, then k over the rest."""
    if g.num_edges == 0:
        raise PretrainInfeasibleError("graph has no edges; cannot pre-train")
    rng = np.random.default_rng(seed)
    triplets: list[tuple[int, int, int]] = []
    skipped = 0
    for v in range(g.num_nodes):
        nbrs = g.neighbor_list(v)
        if nbrs.size == 0 or nbrs.size >= g.num_nodes - 1:
            skipped += 1
            continue
        mask = np.ones(g.num_nodes, dtype=bool)
        mask[nbrs] = False
        mask[v] = False
        pool = np.flatnonzero(mask)
        a = int(rng.choice(nbrs))
        for b in rng.choice(pool, size=k_negatives, replace=True):
            triplets.append((v, a, int(b)))
    if skipped:
        warnings.warn(f"{skipped} node(s) lack a neighbor or a non-neighbor; skipped")
    if not triplets:
        raise PretrainInfeasibleError(
            "no node admits a (positive, negative) pair; cannot pre-train"
        )
    v, a, b = np.array(triplets, dtype=np.int64).T
    return Triplets(v=v, a=a, b=b)


def reference_edge_subset_positions(adj, train_ids):
    """Dict loop: slot of every stored (row, col), then each selected upper
    entry paired with the slot of its mirror."""
    train = np.zeros(adj.shape[0], dtype=bool)
    train[np.asarray(train_ids, dtype=np.int64)] = True
    rows = adj.nnz_rows()
    cols = adj.col_indices
    sel = (rows < cols) & (train[rows] | train[cols])
    upper = np.flatnonzero(sel)
    # locate the mirrored (v,u) slot for each selected (u,v)
    pos_of = {}
    for k in range(adj.nnz):
        pos_of[(int(rows[k]), int(cols[k]))] = k
    pairs = np.array(
        [[k, pos_of[(int(cols[k]), int(rows[k]))]] for k in upper], dtype=np.int64
    ).reshape(-1, 2)
    return pairs


def reference_unsorted_row(row_offsets, col_indices):
    """First row whose column indices do not strictly increase, else None
    (the per-row check `SparseMatrix` ran before it was vectorized)."""
    offs = np.asarray(row_offsets, dtype=np.int64)
    idx = np.asarray(col_indices, dtype=np.int64)
    for r in range(offs.size - 1):
        seg = idx[offs[r]:offs[r + 1]]
        if seg.size > 1 and np.any(np.diff(seg) <= 0):
            return r
    return None


@dataclasses.dataclass
class ClassPromptSet:
    """Per-layer class prompts: mean anchors (recomputed) + learnable offsets."""

    anchors: list[Tensor]  # L+1 tensors, C x d, live on the tape
    theta: list[Tensor]    # L+1 tensors, C x d, zero-initialized trainables

    def __post_init__(self):
        if len(self.anchors) != len(self.theta):
            raise ContractError("anchor/offset layer counts differ")

    @property
    def num_layers(self) -> int:
        return len(self.anchors)

    def effective(self, layer: int) -> Tensor:
        return add(self.anchors[layer], self.theta[layer])


def tape_anchors(mats, y, num_classes):
    """Per-class row means of each layer matrix, on the tape."""
    class_ids = [np.flatnonzero(y == c) for c in range(num_classes)]
    for c, ids in enumerate(class_ids):
        if ids.size == 0:
            raise SplitError(f"class {c} has no training items")
    return [
        vstack([mean_rows(gather_rows(mat, ids)) for ids in class_ids])
        for mat in mats
    ]


def matrix_loss(mats, prompts, y, tau, layers=None):
    """Softmax NLL of cosine scores, summed over layers AND items (per-layer
    terms are unweighted; gamma never enters the loss)."""
    total = None
    layer_ids = range(prompts.num_layers) if layers is None else layers
    for l in layer_ids:
        mean_term = softmax_nll(row_cosine_sim(mats[l], prompts.effective(l)), y, tau)
        term = scale(mean_term, float(y.size))  # sum over items, not mean
        total = term if total is None else add(total, term)
    return total


def unfused_prompt_nll(mats, y, thetas, tau):
    """`numcore.prompt_nll(mats, y, thetas, tau)` as the chain of tape ops."""
    anchors = tape_anchors(mats, y, thetas[0].rows)
    return matrix_loss(mats, ClassPromptSet(anchors=anchors, theta=list(thetas)),
                       y, tau)


def anchor_arrays(layer_data, train_ids, y_train, num_classes):
    """Each layer's class-mean anchors, one boolean class mask at a time."""
    anchors = []
    for h in layer_data:
        rows = h[train_ids]
        anchors.append(np.stack([
            rows[y_train == cls].mean(axis=0) for cls in range(num_classes)
        ]))
    return anchors


def reference_graph_tokens(graph, params, cfg):
    """One item's own forward, mean-pooled per layer: L+1 tensors, 1 x d."""
    stack = encoder_forward(normalize_adjacency(graph), graph.features, cfg, params)
    return [mean_rows(h) for h in stack]


def reference_graph_tune(checkpoint, items, split, tcfg):
    """Graph-task stage two with one forward per training item per epoch
    and one per item for the evaluation; returns (predictions, losses,
    best epoch). With a patience the best epoch's weights are evaluated,
    without one the last epoch's."""
    params, base_cfg = pr._load_encoder(checkpoint, items.graphs[0].num_features)
    rng = np.random.default_rng(tcfg.seed)
    params, cfg = pr._make_stage_two(params, base_cfg, tcfg, rng,
                                     adjacency_adaptation=False)
    layers = cfg.layers + 1
    c = items.num_classes
    theta = [Tensor(np.zeros((c, cfg.hidden_dim)), requires_grad=True)
             for _ in range(layers)]
    if tcfg.fixed_gamma:
        gamma = Tensor(np.ones((1, layers)))
    else:
        gamma = pr.init_gamma(tcfg.alpha, cfg.layers)
    encoder_trainables, _frozen = partition_params(params, "prompt")
    trainables = encoder_trainables + pr._prompt_trainables(theta, gamma, tcfg, layers)
    state = AdamState.for_params(trainables, lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    y_train = items.labels[split.train_ids]
    layer_ids = [layers - 1] if tcfg.last_layer_only else None
    train = [items.graphs[int(i)] for i in split.train_ids]

    losses = []
    best = (np.inf, -1, None)
    stale = 0
    for epoch in range(tcfg.epochs):
        tokens = [reference_graph_tokens(g, params, cfg) for g in train]
        mats = [vstack([t[l] for t in tokens]) for l in range(layers)]
        prompts = ClassPromptSet(anchors=tape_anchors(mats, y_train, c), theta=theta)
        loss = matrix_loss(mats, prompts, y_train, tcfg.tau, layers=layer_ids)
        adam_step(trainables, backward(loss), state)
        losses.append(loss.item())
        if losses[-1] < best[0] - 1e-12:
            # without a patience the last weights stay: nothing to snapshot
            snapshot = (None if tcfg.patience is None
                        else [t.data.copy() for t in trainables])
            best = (losses[-1], epoch, snapshot)
            stale = 0
        else:
            stale += 1
            if tcfg.patience is not None and stale > tcfg.patience:
                break
    if best[2] is not None:
        for t, saved in zip(trainables, best[2]):
            t.data = saved

    tokens = [reference_graph_tokens(g, params, cfg) for g in items.graphs]
    layer_data = [np.concatenate([t[l].data for t in tokens]) for l in range(layers)]
    anchor_data = anchor_arrays(layer_data, split.train_ids, y_train, c)
    weights = pr._effective_gamma(gamma, tcfg, layers)
    preds = pr._predict_rows(layer_data, anchor_data, [t.data for t in theta],
                             weights, split.test_ids)
    return preds, losses, best[1]


def unfused_triplet_nll(s, v, a, b, tau):
    """`numcore.triplet_nll(s, v, a, b, tau)` as the chain of tape ops."""
    sv = gather_rows(s, v)
    sim_pos = rowwise_cosine_sim(sv, gather_rows(s, a))
    sim_neg = rowwise_cosine_sim(sv, gather_rows(s, b))
    scores = hstack([sim_pos, sim_neg])
    return softmax_nll(scores, np.zeros(len(v), dtype=np.int64), tau)


def dense_triplet_grad(s, v, a, b, tau, upstream=1.0):
    """d/ds of `upstream * numcore.triplet_nll(s, v, a, b, tau)` for a
    (rows, d) array s: one triplet at a time, the derivatives of its two
    cosines added into a dense (rows, d) array."""
    s = np.asarray(s, dtype=np.float64)
    grad = np.zeros(s.shape)
    n = len(v)
    for i, j, k in zip(v, a, b):
        sv, sa, sb = s[i], s[j], s[k]
        nv, na, nb = (float(np.sqrt(x @ x)) for x in (sv, sa, sb))
        pos = (sv @ sa) / (nv * na)
        neg = (sv @ sb) / (nv * nb)
        # softmax weight of the negative; the NLL's slope in pos is -q / tau
        q = 1.0 / (1.0 + np.exp((pos - neg) / tau))
        gp, gn = -q * upstream / (n * tau), q * upstream / (n * tau)
        grad[i] += gp * (sa / (nv * na) - sv * pos / nv**2)
        grad[i] += gn * (sb / (nv * nb) - sv * neg / nv**2)
        grad[j] += gp * (sv / (nv * na) - sa * pos / na**2)
        grad[k] += gn * (sv / (nv * nb) - sb * neg / nb**2)
    return grad


def unfused_pretrain_loss(stack, adj, triplets, tau):
    """`pretrain.pretrain_loss` as the chain of tape ops it fuses."""
    return unfused_triplet_nll(spmm(adj, stack[-1]), triplets.v, triplets.a,
                               triplets.b, tau)


def reference_pretrain(data, cfg, pcfg):
    """Stage one as its own mini-batch Adam loop over the unfused loss: each
    epoch draws its triplets and a batch permutation, takes one step per
    batch, and records the batch-size-weighted mean loss; the last weights
    stay. Returns (params, [(epoch, mean_loss), ...]) as `run_pretrain`
    does."""
    g = disjoint_union(data.graphs) if isinstance(data, GraphSet) else data
    rng = np.random.default_rng(pcfg.seed)
    params = init_encoder(cfg, rng)
    adj = normalize_adjacency(g)
    trainable, _ = partition_params(params, "pretrain")
    state = AdamState.for_params(trainable, lr=pcfg.lr, weight_decay=pcfg.weight_decay)
    losses = []
    for epoch in range(pcfg.epochs):
        triplets = pt.build_triplets(g, pcfg.negatives, pt._epoch_seed(pcfg.seed, epoch))
        order = rng.permutation(len(triplets))
        total, count = 0.0, 0
        for start in range(0, len(triplets), pcfg.batch_size):
            batch = triplets[order[start:start + pcfg.batch_size]]
            stack = encoder_forward(adj, g.features, cfg, params)
            loss = unfused_pretrain_loss(stack, adj, batch, pcfg.tau)
            adam_step(trainable, backward(loss), state)
            total += loss.item() * len(batch)
            count += len(batch)
        losses.append((epoch, total / count))
    return params, losses


def full_rows_plan(adj, ids, layers, edge_positions=None, dense=False):
    """A drop-in for `forward_plan` that restricts nothing: every layer runs
    on all rows, and rows `ids` are gathered from each."""
    plan = forward_plan(adj, None, layers, edge_positions)
    if ids is None:
        return plan
    ids = np.asarray(ids, dtype=np.int64)
    return dataclasses.replace(plan, picks=[ids] * (layers + 1))


def rank_one_update_spmm(s, p, q, d):
    """(s + p q^T) @ d without materializing the dense rank-one term; for an
    (m, n) matrix s, p is (m, 1) and q is (n, 1)."""
    m, n = s.shape
    if p.shape != (m, 1) or q.shape != (n, 1):
        raise DimensionError(
            f"rank_one_update_spmm: p, q must be ({m}, 1), ({n}, 1), "
            f"got {p.shape}, {q.shape}"
        )
    if d.rows != n:
        raise DimensionError(f"rank_one_update_spmm: d has {d.rows} rows, expected {n}")
    return add(spmm(s, d), matmul(p, matmul(transpose(q), d)))


def unfactored_forward(adj, x, params, plan=None):
    """The full-GLoRA encoder forward with every layer computed as
    ((A + pa qa^T) h)(W0 + P Q^T): the adjacency update first, then one
    product with the adapted weight."""
    if plan is None:
        plan = forward_plan(adj, None, len(params.layers))
    h = matmul(x if plan.rows[0] is None else gather_rows(x, plan.rows[0]), params.w_in)
    stack = [h]
    for l, lp in enumerate(params.layers):
        pa = lp.pa if plan.rows[l + 1] is None else gather_rows(lp.pa, plan.rows[l + 1])
        weight = add(lp.w0, matmul(lp.p, transpose(lp.q)))
        h = matmul(rank_one_update_spmm(plan.adjs[l], pa, lp.qa, h), weight)
        if l < len(params.layers) - 1:
            h = relu(h)
        stack.append(h)
    return [h if pick is None else gather_rows(h, pick)
            for h, pick in zip(stack, plan.picks)]
