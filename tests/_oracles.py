"""Tape-independent oracles used across the test suite.

The finite-difference oracle re-evaluates a loss as a plain float under
entry-wise perturbations; it never touches tape gradients, so it stays an
independent check of them. The triplet oracle is the per-node sampling loop
that the array sampler in `pretrain.build_triplets` must reproduce draw for
draw; the edge-subset and CSR-row oracles are the loops that
`encoder.edge_subset_positions` and `SparseMatrix` must agree with exactly.
The graph-task oracles run one forward per item and `mean_rows` pooling
after it, which the batched disjoint-union forward in `prompt.graph_tokens`
replaces: its pooled start reads each layer out inside the forward and runs
the top layer on the pooled rows, pool A H, alone.
`reference_pretrain` is stage one's own mini-batch Adam loop, which
`run_pretrain` replaces with the shared `numcore.fit`; it runs each step's
forward as `h0_first_forward`, X W_in first, where every forward of a
training base starts from A X as (A X)(W_in W0), and it scores each batch
with `unfused_pretrain_loss`, the chain of tape ops (`spmm`, three
`gather_rows`, two `rowwise_cosine_sim`, `hstack`, `softmax_nll`) that
`numcore.triplet_nll` fuses into one node (`unfused_triplet_nll` runs it
with that op's arguments). The fused op's loss equals that chain's bit for
bit; its d/ds, one sparse product, and the chain's backward agree to
rounding, and `dense_triplet_grad`, a per-triplet loop of cosine
derivatives, is the third, independent reading of that gradient.
`reference_adam_step` is the per-parameter Adam loop that `numcore.adam_step`
replaces with one pass over all entries; both training-loop oracles step
through it. `full_rows_plan` is the full-forward training path that
node-task training on the training rows' receptive field replaces: every
layer runs on every row and the planned rows are gathered from the result
(a pooled plan it leaves as planned).
`override_spmm` is the trainable-edge product that `numcore.edge_update`
replaces: it rebuilds the adjacency with the edge weights written into their
entries, where the op adds their k-entry update to the frozen product.
`unfactored_forward` runs each full-GLoRA layer as ((A + pa qa^T) h)(W0 +
P Q^T), through `rank_one_update_spmm`, where the encoder runs it as the
frozen product plus a rank-(r+1) update. `unfused_lowrank_layer` is the
chain of tape ops (`transpose`, `matmul`, `add`, `hstack`, `vstack`) that
`numcore.lowrank_layer` fuses into one node: the factored full-GLoRA layer,
which the op matches bit for bit, and, without adjacency factors, the layer
with the dense weight W0 + P Q^T formed, which the op reassociates;
`lowrank_chain` is the op's own association as a chain. `densify` is a
`SparseMatrix`'s dense array, which the sparse kernels are checked against.
`ClassPromptSet`,
`tape_anchors` and `matrix_loss` are the unfused chain of tape ops that
`numcore.prompt_nll` fuses into one node (`unfused_prompt_nll` runs it
with that op's arguments); `anchor_arrays` is the per-class mask loop the
evaluation's anchors must agree with. `reference_predict` is the per-layer
evaluation loop, one `guarded_scores` cosine per layer, that the evaluation
replaces with one call to `numcore.prompt_cosines`, the loss's own cosines;
`reference_graph_tune` predicts through it. `scalar`, `add`, `sub`,
`scale`, `sum_all`, `mean_rows`, `transpose`, `vstack` and `hstack` are tape ops the
package itself does not run; the tests build losses, poolings and the
oracle chains from them. `resigned` and `version_one` rewrite a
checkpoint's bytes as `checkpoint_save` would sign them and as the
version-1 format held them. `glora_param_count` is the closed form of the
adapter size that `EncoderParams.adapters()` enumerates. `recorded_op_names`
lists the tape ops `numcore` records, which the guards that check every op
read.
"""

import ast
import dataclasses
import hashlib
import warnings
from pathlib import Path

import numpy as np
from scipy import sparse as scipy_sparse

import hopprompt.numcore
import hopprompt.pretrain as pt
import hopprompt.prompt as pr
from hopprompt.encoder import (
    attach_glora,
    encoder_forward,
    forward_plan,
    forward_start,
    init_encoder,
)
from hopprompt.errors import (
    ContractError,
    DimensionError,
    NumericError,
    ParameterError,
    PretrainInfeasibleError,
    SplitError,
)
from hopprompt.graphstore import GraphSet, disjoint_union, normalize_adjacency
from hopprompt.numcore import (
    Tensor,
    backward,
    gather_rows,
    matmul,
    relu,
    row_cosine_sim,
    rowwise_cosine_sim,
    softmax_nll,
    spmm,
)
from hopprompt.numcore.optim import BETA1, BETA2, EPS, AdamState
from hopprompt.numcore.tensor import NORM_EPS, _record
from hopprompt.pretrain import Triplets


def scalar(x: float) -> Tensor:
    return Tensor(np.array([[float(x)]]))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes differ, {a.shape} vs {b.shape}")

    def vjp(g):
        return g, g

    return _record("add", a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub: shapes differ, {a.shape} vs {b.shape}")

    def vjp(g):
        return g, -g

    return _record("sub", a.data - b.data, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g):
        return (c * g,)

    return _record("scale", c * a.data, (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape

    def vjp(g):
        return (np.full(shape, g[0, 0]),)

    return _record("sum_all", np.array([[a.data.sum()]]), (a,), vjp)


def mean_rows(a: Tensor) -> Tensor:
    """Column means: (n, d) -> (1, d)."""
    n = a.rows
    if n == 0:
        raise DimensionError("mean_rows: empty tensor")

    def vjp(g):
        return (np.repeat(g, n, axis=0) / n,)

    return _record("mean_rows", a.data.mean(axis=0, keepdims=True), (a,), vjp)


def transpose(a: Tensor) -> Tensor:
    def vjp(g):
        return (g.T,)

    return _record("transpose", a.data.T.copy(), (a,), vjp)


def vstack(parts) -> Tensor:
    if not parts:
        raise DimensionError("vstack: no tensors")
    cols = parts[0].cols
    for p in parts:
        if p.cols != cols:
            raise DimensionError(f"vstack: column counts differ, {p.cols} vs {cols}")
    sizes = [p.rows for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    return _record("vstack", np.concatenate([p.data for p in parts], axis=0),
                   tuple(parts), vjp)


def hstack(parts) -> Tensor:
    if not parts:
        raise DimensionError("hstack: no tensors")
    rows = parts[0].rows
    for p in parts:
        if p.rows != rows:
            raise DimensionError(f"hstack: row counts differ, {p.rows} vs {rows}")
    sizes = [p.cols for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    return _record("hstack", np.concatenate([p.data for p in parts], axis=1),
                   tuple(parts), vjp)


def unfused_lowrank_layer(agg, w0, p, q, base=None, h=None, pa=None, qa=None):
    """`numcore.lowrank_layer` with the same arguments as the chains of tape
    ops the encoder ran before it. With the adjacency factors, the factored
    full-GLoRA layer: base + [agg P | pa] [Q^T ; (qa^T h) W0 + ((qa^T h) P)
    Q^T], base = agg W0 unless supplied. Without them, agg (W0 + P Q^T) with
    the dense adapted weight formed (`base` is not read)."""
    if pa is None:
        return matmul(agg, add(w0, matmul(p, transpose(q))))
    if base is None:
        base = matmul(agg, w0)
    q_t = transpose(q)
    qh = matmul(transpose(qa), h)
    row = add(matmul(qh, w0), matmul(matmul(qh, p), q_t))
    return add(base, matmul(hstack([matmul(agg, p), pa]), vstack([q_t, row])))


def lowrank_chain(agg, w0, p, q):
    """agg W0 + (agg P) Q^T as a chain of tape ops: the association that
    `numcore.lowrank_layer` runs without adjacency factors or a base."""
    return add(matmul(agg, w0), matmul(matmul(agg, p), transpose(q)))


def reference_adam_step(params, grads, state):
    """One Adam update as a loop over the parameters, rebinding `state.m[i]`
    and `state.v[i]` to fresh arrays: the update `numcore.adam_step` makes in
    one pass over every parameter's entries."""
    if len(state.m) != len(params):
        raise DimensionError(f"adam_step: state tracks {len(state.m)} params, got {len(params)}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for i, p in enumerate(params):
        g = grads.get(p)
        if g.shape != p.shape or state.m[i].shape != p.shape:
            raise DimensionError(
                f"adam_step: param {i} shape {p.shape} vs grad {g.shape} / moment {state.m[i].shape}"
            )
        new = p.data
        if state.weight_decay:
            new = new - state.lr * state.weight_decay * new
        state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g
        state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        new = new - state.lr * m_hat / (np.sqrt(v_hat) + EPS)
        if not np.isfinite(new).all():
            raise NumericError(f"adam_step: param {i} became non-finite")
        p.data = new


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


def recorded_op_names() -> dict[str, str]:
    """{op name: module} of every `_record(...)` call in `numcore`'s
    sources, the tape ops the guards that every op is checked read. An op
    name that is not a string literal fails here, since a guard could not
    tell which op it names."""
    names = {}
    for path in sorted(Path(hopprompt.numcore.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_record":
                op = node.args[0]
                assert isinstance(op, ast.Constant) and isinstance(op.value, str), \
                    f"{path.name}:{node.lineno}: _record's op name is not a literal"
                names[op.value] = f"hopprompt.numcore.{path.stem}"
    return names


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


def densify(s):
    """The dense array of a `SparseMatrix`: its stored values at their
    (row, column) entries, zero elsewhere."""
    out = np.zeros(s.shape)
    out[s.nnz_rows(), s.col_indices] = s.values
    return out


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
    offsets, targets = g.neighbors()
    for v in range(g.num_nodes):
        nbrs = targets[offsets[v]:offsets[v + 1]]
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


def guarded_scores(mat, prompts):
    """One layer's (n, C) cosines of rows against prompts; a row or prompt
    of norm below NORM_EPS scores 0 against everything."""
    mn = np.linalg.norm(mat, axis=1)
    pn = np.linalg.norm(prompts, axis=1)
    mn_safe = np.where(mn < NORM_EPS, 1.0, mn)
    pn_safe = np.where(pn < NORM_EPS, 1.0, pn)
    s = (mat / mn_safe[:, None]) @ (prompts / pn_safe[:, None]).T
    s[mn < NORM_EPS] = 0.0
    s[:, pn < NORM_EPS] = 0.0
    return s


def reference_predict(layer_data, anchor_data, theta_data, weights, ids):
    """Rows `ids`' classes, one layer at a time: each layer's guarded cosines
    against its anchors plus offsets, weighted and added in layer order, then
    the argmax."""
    combined = None
    for w, h, anchor, off in zip(weights, layer_data, anchor_data, theta_data):
        scores = guarded_scores(h[ids], anchor + off)
        combined = w * scores if combined is None else combined + w * scores
    return np.argmax(combined, axis=1)


def reference_graph_tokens(graph, params):
    """One item's own forward, mean-pooled per layer: L+1 tensors, 1 x d."""
    stack = encoder_forward(forward_start(normalize_adjacency(graph), graph.features,
                                          params))
    return [mean_rows(h) for h in stack]


def reference_graph_tune(checkpoint, items, split, tcfg):
    """Graph-task stage two with one forward per training item per epoch
    and one per item for the evaluation; returns (predictions, losses,
    best epoch). With a patience the best epoch's weights are evaluated,
    without one the last epoch's."""
    params = pr._load_encoder(checkpoint)
    if tcfg.glora_mode != "off":
        params = attach_glora(params, tcfg.glora_mode, tcfg.rank,
                              np.random.default_rng(tcfg.seed),
                              adjacency_adaptation=False)
    layers = len(params.layers) + 1
    c = items.num_classes
    theta = [Tensor(np.zeros((c, params.w_in.cols)), requires_grad=True)
             for _ in range(layers)]
    if tcfg.fixed_gamma:
        gamma = Tensor(np.ones((1, layers)))
    else:
        gamma = pr.init_gamma(tcfg.alpha, layers - 1)
    trainables = params.adapters() + pr._prompt_trainables(theta, gamma, tcfg, layers)
    state = AdamState.for_params(trainables, lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    y_train = items.labels[split.train_ids]
    layer_ids = [layers - 1] if tcfg.last_layer_only else None
    train = [items.graphs[int(i)] for i in split.train_ids]

    losses = []
    best = (np.inf, -1, None)
    stale = 0
    for epoch in range(tcfg.epochs):
        tokens = [reference_graph_tokens(g, params) for g in train]
        mats = [vstack([t[l] for t in tokens]) for l in range(layers)]
        prompts = ClassPromptSet(anchors=tape_anchors(mats, y_train, c), theta=theta)
        loss = matrix_loss(mats, prompts, y_train, tcfg.tau, layers=layer_ids)
        reference_adam_step(trainables, backward(loss), state)
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

    tokens = [reference_graph_tokens(g, params) for g in items.graphs]
    layer_data = [np.concatenate([t[l].data for t in tokens]) for l in range(layers)]
    anchor_data = anchor_arrays(layer_data, split.train_ids, y_train, c)
    if tcfg.last_layer_only:
        weights = np.zeros(layers)
        weights[-1] = 1.0
    else:
        weights = gamma.data[0]
    preds = reference_predict(layer_data, anchor_data, [t.data for t in theta],
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
    """Stage one as its own mini-batch Adam loop over the unfused loss and
    the H(0)-first forward: each epoch draws its triplets and a batch
    permutation, takes one step per batch, and records the
    batch-size-weighted mean loss; the last weights stay. Returns (params, [(epoch, mean_loss), ...]) as `run_pretrain`
    does."""
    g = disjoint_union(data.graphs) if isinstance(data, GraphSet) else data
    rng = np.random.default_rng(pcfg.seed)
    params = init_encoder(cfg, rng)
    adj = normalize_adjacency(g)
    trainable = params.base()
    state = AdamState.for_params(trainable, lr=pcfg.lr, weight_decay=pcfg.weight_decay)
    losses = []
    for epoch in range(pcfg.epochs):
        triplets = pt.build_triplets(g, pcfg.negatives, pt._epoch_seed(pcfg.seed, epoch))
        order = rng.permutation(len(triplets))
        total, count = 0.0, 0
        for start in range(0, len(triplets), pcfg.batch_size):
            batch = triplets[order[start:start + pcfg.batch_size]]
            stack = h0_first_forward(adj, g.features, params)
            loss = unfused_pretrain_loss(stack, adj, batch, pcfg.tau)
            reference_adam_step(trainable, backward(loss), state)
            total += loss.item() * len(batch)
            count += len(batch)
        losses.append((epoch, total / count))
    return params, losses


def full_rows_plan(adj, ids, layers, edge_positions=None, dense=False, pool=None):
    """A drop-in for `forward_plan` that restricts nothing: every layer runs
    on all rows, and rows `ids` are gathered from each. A pooled plan is
    planned as `forward_plan` plans it."""
    if pool is not None:
        return forward_plan(adj, ids, layers, edge_positions, dense, pool)
    plan = forward_plan(adj, None, layers, edge_positions)
    if ids is None:
        return plan
    ids = np.asarray(ids, dtype=np.int64)
    return dataclasses.replace(plan, picks=[ids] * (layers + 1))


def override_spmm(s, d, values, slots):
    """s @ d with the (k, 1) `values` in place of the entries at k distinct
    CSR `slots`, and only those entries getting a value gradient: the
    trainable-edge path `numcore.spmm` ran before `numcore.edge_update`
    added E(w) d to the frozen product instead of rebuilding the matrix."""
    slots = np.asarray(slots, dtype=np.int64)
    if values.shape != (slots.size, 1):
        raise DimensionError(f"override_spmm: {slots.size} slots, values {values.shape}")
    if s.shape[1] != d.rows:
        raise DimensionError(f"override_spmm: inner dims differ, {s.shape} x {d.shape}")
    val_arr = s.values.copy()
    val_arr[slots] = values.data[:, 0]
    mat = scipy_sparse.csr_matrix((val_arr, s.col_indices, s.row_offsets), shape=s.shape)
    rows_of, cols_of = s.nnz_rows()[slots], s.col_indices[slots]
    dd = d.data

    def vjp(g):
        dd_grad = mat.T @ g if d.requires_grad else None
        return dd_grad, np.einsum("ij,ij->i", g[rows_of], dd[cols_of])[:, None]

    return _record("override_spmm", mat @ dd, (d, values), vjp)


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


def h0_first_forward(adj, x, params, plan=None):
    """The forward of an encoder without adapters, the input map first: H(0)
    = X W_in on the plan's input rows, then A h W0 per layer, with ReLU on
    interior layers. Every forward of a training base runs from A X as
    (A X)(W_in W0) instead, which reassociates these products."""
    if plan is None:
        plan = forward_plan(adj, None, len(params.layers))
    h = matmul(x if plan.rows[0] is None else gather_rows(x, plan.rows[0]), params.w_in)
    stack = [h]
    for l, lp in enumerate(params.layers):
        h = matmul(spmm(plan.adjs[l], h), lp.w0)
        if l < len(params.layers) - 1:
            h = relu(h)
        stack.append(h)
    return [h if pick is None else gather_rows(h, pick)
            for h, pick in zip(stack, plan.picks)]


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


def resigned(raw: bytes) -> bytes:
    """A checkpoint's bytes with the trailing sha256 digest recomputed over
    the rest, as `checkpoint_save` writes it: an edit made before calling
    this reaches the reader's other checks instead of the checksum."""
    body = raw[:-32]
    return body + hashlib.sha256(body).digest()


def version_one(raw: bytes) -> bytes:
    """A version-2 checkpoint's bytes as the version-1 format wrote them:
    version field 1 and no trailing digest."""
    return raw[:4] + (1).to_bytes(4, "little") + raw[8:-32]


def glora_param_count(cfg, mode, rank, num_nodes=None, num_selected_edges=None):
    """Closed-form stage-two encoder trainable count of an encoder `cfg`
    adapted in GLoRA `mode` at `rank`."""
    if mode == "off":
        return 0
    proj = sum(rank * (cfg.hidden_dim + cfg.dims[l]) for l in range(1, cfg.layers + 1))
    if mode == "full":
        if num_nodes is None:
            raise ParameterError("full mode count needs num_nodes")
        return proj + 2 * num_nodes * cfg.layers
    if num_selected_edges is None:
        raise ParameterError("edge_subset count needs num_selected_edges")
    return proj + num_selected_edges * cfg.layers


def prompt_param_count(num_layers: int, num_classes: int, width: int) -> int:
    """Closed-form trainable prompt-module size: one width-wide offset per
    scored layer and class, plus one hop coefficient per scored layer."""
    return num_layers * num_classes * width + num_layers
