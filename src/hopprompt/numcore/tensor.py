"""Dense 2-D float64 tensors with a define-by-run reverse-mode tape.

Every operation validates its output is finite (NaN/Inf raise NumericError),
so training loops detect divergence at the op that produced it. The tape is
implicit: each op result keeps references to its parents plus a VJP closure,
and a global monotonic counter gives insertion order, which is by construction
a topological order. Tapes are rebuilt every iteration; a tape and its tensors
belong to one thread, but the underlying arrays are never mutated after
creation and may be shared freely.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np
from scipy import sparse as _scipy_sparse

from ..errors import (
    ContractError,
    DegenerateRowError,
    DimensionError,
    NumericError,
    ParameterError,
    SplitError,
)

_ORDER = itertools.count()

# Peak bytes held by any single backward pass; an allocation-counter estimate
# of working-set size, not OS RSS.
_PEAK = {"bytes": 0}

NORM_EPS = 1e-12  # cosine guard: a row below this norm raises or scores 0


def peak_tape_bytes(reset: bool = False) -> int:
    value = _PEAK["bytes"]
    if reset:
        _PEAK["bytes"] = 0
    return value


class Tensor:
    """A (rows, cols) float64 matrix, optionally recorded on the tape.

    `requires_grad` marks leaves whose gradients the caller wants; op results
    are tracked automatically when any input is tracked. Gradients are read
    from the map `backward` returns.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_vjp", "_order")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"Tensor must be 2-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NumericError("Tensor contains non-finite entries")
        self.data = arr
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._order = next(_ORDER)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def item(self) -> float:
        if self.shape != (1, 1):
            raise ContractError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _record(op: str, data: np.ndarray, parents: tuple[Tensor, ...],
            vjp) -> Tensor:
    """Wrap an op output, attaching tape bookkeeping if any parent is tracked.

    A non-finite output raises NumericError naming `op` and the output shape.
    """
    try:
        out = Tensor(data)
    except NumericError:
        raise NumericError(
            f"{op}: non-finite entries in its {data.shape} output") from None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        # an untracked parent (e.g. constant features) gets no product
        return (g @ bd.T if a.requires_grad else None,
                ad.T @ g if b.requires_grad else None)

    return _record("matmul", ad @ bd, (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # subgradient at 0 is 0

    def vjp(g):
        return (g * mask,)

    # + 0.0 turns the -0.0 that maximum keeps into +0.0, as a select would
    return _record("relu", np.maximum(a.data, 0.0) + 0.0, (a,), vjp)


def _row_index(idx, rows: int, what: str) -> np.ndarray:
    """idx as a 1-D int64 array of row ids in [0, rows); `what` starts the
    DimensionError otherwise."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"{what} must be 1-D, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise DimensionError(f"{what} out of range for {rows} rows")
    return idx


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows by index; duplicate indices accumulate in the gradient."""
    idx = _row_index(idx, a.rows, "gather_rows: index")
    rows, cols = a.shape

    def vjp(g):
        # bincount adds in index order from zero, exactly as np.add.at does
        bins = (idx[:, None] * cols + np.arange(cols)).ravel()
        da = np.bincount(bins, weights=np.ravel(g), minlength=rows * cols)
        return (da.reshape(rows, cols),)

    return _record("gather_rows", a.data[idx], (a,), vjp)


def scatter_rows(src: Tensor, idx, out_rows: int) -> Tensor:
    """Accumulate src's rows into a zero (out_rows, cols) tensor at idx.

    Adjoint of gather_rows; duplicate indices accumulate in the forward pass.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != (src.rows,):
        raise DimensionError(f"scatter_rows: need {src.rows} indices, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= out_rows):
        raise DimensionError(f"scatter_rows: index out of range for {out_rows} rows")
    out = np.zeros((out_rows, src.cols))
    np.add.at(out, idx, src.data)

    def vjp(g):
        return (g[idx],)

    return _record("scatter_rows", out, (src,), vjp)


def lowrank_layer(agg: Tensor, w0: Tensor, p: Tensor, q: Tensor,
                  base: Tensor | None = None, h: Tensor | None = None,
                  pa: Tensor | None = None, qa: Tensor | None = None) -> Tensor:
    """A layer adapted by a rank-r weight update, agg (W0 + P Q^T), as one
    tape node: base + (agg P) Q^T, never forming W0 + P Q^T. `base` is
    agg W0, supplied when it is constant. With the adjacency factors of
    agg = A h, the layer is ((A + pa qa^T) h)(W0 + P Q^T) = base +
    [agg P | pa] [Q^T ; (qa^T h) W0 + ((qa^T h) P) Q^T], a rank-(r+1)
    update. Both passes run the expressions of that chain of `matmul`,
    `add`, `hstack` and `vstack` in its order, so the adjacency-adapted
    layer agrees with it bit for bit. The VJP keeps no (n, d) array but
    the inputs'."""
    n, k = agg.shape
    r, full = p.cols, pa is not None
    if (w0.rows != k or p.rows != k or q.shape != (w0.cols, r)
            or base is not None and base.shape != (n, w0.cols)
            or full and (h is None or qa is None or h.cols != k
                         or pa.shape != (n, 1) or qa.shape != (h.rows, 1))):
        raise DimensionError(
            f"lowrank_layer: agg {agg.shape}, w0 {w0.shape}, p {p.shape}, "
            f"q {q.shape} do not chain, or base or the adjacency factors do "
            f"not fit them")
    q_t = q.data.T.copy()
    left, right = agg.data @ p.data, q_t
    if full:
        qa_t = qa.data.T.copy()
        qh = qa_t @ h.data
        m2 = qh @ p.data
        row = qh @ w0.data + m2 @ q_t
        left = np.concatenate([left, pa.data], axis=1)
        right = np.concatenate([q_t, row], axis=0)
    out = (agg.data @ w0.data if base is None else base.data) + left @ right

    def vjp(g):
        d_left, d_right = g @ right.T, left.T @ g
        d_ap, d_qt = d_left[:, :r], d_right[:r]
        d_agg = d_ap @ p.data.T if agg.requires_grad else None
        d_p = agg.data.T @ d_ap if p.requires_grad else None
        d_w0 = d_h = d_pa = d_qa = None
        if full:
            d_pa, d_row = d_left[:, r:], d_right[r:]
            d_m2 = d_row @ q_t.T
            d_qt = d_qt + m2.T @ d_row
            d_qh = d_m2 @ p.data.T + d_row @ w0.data.T
            d_p = None if d_p is None else d_p + qh.T @ d_m2
            d_w0 = qh.T @ d_row if w0.requires_grad else None
            d_qa = (d_qh @ h.data.T).T
            d_h = qa_t.T @ d_qh if h.requires_grad else None
        if base is None:
            d_agg = None if d_agg is None else d_agg + g @ w0.data.T
            if w0.requires_grad:
                d_w0 = agg.data.T @ g if d_w0 is None else d_w0 + agg.data.T @ g
        grads = (d_agg, d_w0, d_p, d_qt.T) + (() if base is None else (g,))
        return grads + ((d_h, d_pa, d_qa) if full else ())

    extra = (() if base is None else (base,)) + ((h, pa, qa) if full else ())
    return _record("lowrank_layer", out, (agg, w0, p, q) + extra, vjp)


def _require_norms(norms: np.ndarray, op: str, who: str, nodes=None) -> None:
    """A norm below NORM_EPS raises, naming its row, or the node the row was
    gathered from when `nodes` gives each row's node id."""
    bad = np.flatnonzero(norms < NORM_EPS)
    if bad.size:
        i = bad[0]
        name = f"row {i}" if nodes is None else f"node {nodes[i]}"
        raise DegenerateRowError(
            f"{op}: {who} {name} has norm {norms[i]:.3e} < {NORM_EPS}")


def _row_norms(arr: np.ndarray, op: str, who: str) -> np.ndarray:
    norms = np.linalg.norm(arr, axis=1)
    _require_norms(norms, op, who)
    return norms


def row_cosine_sim(h: Tensor, p: Tensor) -> Tensor:
    """All-pairs cosine similarity between rows: (n, d) x (m, d) -> (n, m)."""
    if h.cols != p.cols:
        raise DimensionError(f"row_cosine_sim: widths differ, {h.shape} vs {p.shape}")
    hn = _row_norms(h.data, "row_cosine_sim", "left")
    pn = _row_norms(p.data, "row_cosine_sim", "right")
    u = h.data / hn[:, None]
    v = p.data / pn[:, None]
    s = u @ v.T

    def vjp(g):
        gs = g * s
        dh = (g @ v) / hn[:, None] - u * (gs.sum(axis=1) / hn)[:, None]
        dp = (g.T @ u) / pn[:, None] - v * (gs.sum(axis=0) / pn)[:, None]
        return dh, dp

    return _record("row_cosine_sim", s, (h, p), vjp)


def rowwise_cosine_sim(a: Tensor, b: Tensor) -> Tensor:
    """Paired cosine similarity of matching rows: (n, d) x (n, d) -> (n, 1)."""
    if a.shape != b.shape:
        raise DimensionError(f"rowwise_cosine_sim: shapes differ, {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    an = _row_norms(ad, "rowwise_cosine_sim", "left")
    bn = _row_norms(bd, "rowwise_cosine_sim", "right")
    dots = np.einsum("ij,ij->i", ad, bd)
    s = dots / (an * bn)

    def vjp(g):
        gv = g[:, 0]
        da = (bd / (an * bn)[:, None] - ad * (s / an**2)[:, None]) * gv[:, None]
        db = (ad / (an * bn)[:, None] - bd * (s / bn**2)[:, None]) * gv[:, None]
        return da, db

    return _record("rowwise_cosine_sim", s[:, None], (a, b), vjp)


def softmax_nll(scores: Tensor, targets, tau: float) -> Tensor:
    """Mean over rows of -ln softmax(scores/tau)[target], with max-subtraction."""
    if tau <= 0:
        raise ParameterError(f"softmax_nll: tau must be > 0, got {tau}")
    y = np.asarray(targets, dtype=np.int64)
    n, c = scores.shape
    if y.shape != (n,):
        raise DimensionError(f"softmax_nll: {n} rows but {y.shape} targets")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ParameterError(f"softmax_nll: target outside [0, {c})")

    z = scores.data / tau
    z = z - z.max(axis=1, keepdims=True)
    expz = np.exp(z)
    denom = expz.sum(axis=1)
    logp = z - np.log(denom)[:, None]
    loss = -logp[np.arange(n), y].mean()

    def vjp(g):
        ds = expz / denom[:, None]
        ds[np.arange(n), y] -= 1.0
        return (ds * (g[0, 0] / (n * tau)),)

    return _record("softmax_nll", np.array([[loss]]), (scores,), vjp)


# `triplet_nll`'s forward and `edge_update`'s VJP gather the rows of their dot
# products in blocks of about this many bytes of float64: temporaries that small
# are reused from the heap, where whole (n, d) ones are freshly mapped and
# page-faulted on every call (on syn-h10 at width 128, gathering whole rows took
# 18 times the minor faults)
_BLOCK_BYTES = 1 << 16


def triplet_nll(s: Tensor, v, a, b, tau: float) -> Tensor:
    """Stage one's contrastive loss as one tape node.

    For triplets of row ids (v, a, b): the mean over triplets of
    -ln softmax([cos(s_v, s_a), cos(s_v, s_b)] / tau)[0], the two-way NLL of
    the anchor's positive against its negative.

    The forward runs the numpy expressions of the unfused chain (three
    `gather_rows`, two `rowwise_cosine_sim`, `hstack`, `softmax_nll`) in its
    order, with each row's norm computed once and read by index, so the loss
    agrees with that chain bit for bit; it gathers the rows of the two dot
    products one block of triplets at a time. d/ds is linear in s, so the
    VJP computes it as one sparse product M @ s, where the (rows, rows)
    coordinate matrix M holds each triplet's seven cosine coefficients,
    added in a fixed order; it agrees with the chain's backward to rounding
    (within 1e-13 of its largest entry) and is the same bytes on every run.
    The VJP keeps only the array of `s` (already on the tape), the indices
    and per-triplet vectors. A row a triplet reads of norm below NORM_EPS
    raises DegenerateRowError naming its node and its role (anchor, positive
    or negative). `prompt_nll` scores such a row 0 because stage two's
    evaluation does; no evaluation reads these cosines, and a collapsed row
    of s would be a fault in the checkpoint every later stage starts from.
    """
    if tau <= 0:
        raise ParameterError(f"triplet_nll: tau must be > 0, got {tau}")
    roles = ("anchor", "positive", "negative")
    rows = s.rows
    v, a, b = (_row_index(idx, rows, f"triplet_nll: {role} index")
               for role, idx in zip(roles, (v, a, b)))
    n = v.size
    if not n or a.size != n or b.size != n:
        raise DimensionError(
            f"triplet_nll: need equally many anchors, positives and negatives, "
            f"at least one, got {n}, {a.size}, {b.size}")

    sd = s.data
    # every row's norm once, over C-ordered rows as a gathered block has them;
    # only the rows a triplet reads are checked
    norms = np.linalg.norm(np.ascontiguousarray(sd), axis=1)
    vn, an, bn = norms[v], norms[a], norms[b]
    for role, k_norms, idx in zip(roles, (vn, an, bn), (v, a, b)):
        _require_norms(k_norms, "triplet_nll", role, idx)
    step = max(1, _BLOCK_BYTES // (8 * sd.shape[1]))
    dots = np.empty((2, n))   # anchor with positive, anchor with negative
    for lo in range(0, n, step):
        blk = slice(lo, lo + step)
        sv = sd[v[blk]]
        dots[0, blk] = np.einsum("ij,ij->i", sv, sd[a[blk]])
        dots[1, blk] = np.einsum("ij,ij->i", sv, sd[b[blk]])
    pos = dots[0] / (vn * an)
    neg = dots[1] / (vn * bn)
    z = np.concatenate([pos[:, None], neg[:, None]], axis=1) / tau
    z = z - z.max(axis=1, keepdims=True)
    expz = np.exp(z)
    denom = expz.sum(axis=1)
    logp = z - np.log(denom)[:, None]
    items = np.arange(n)
    loss = -logp[items, 0].mean()

    def vjp(g):
        ds = expz / denom[:, None]
        ds[items, 0] -= 1.0
        ds = ds * (g[0, 0] / (n * tau))
        gp, gn = ds[:, 0], ds[:, 1]
        # row r of d/ds is sum_c M[r, c] s_c: d cos(s_v, s_a) / d s_v is
        # s_a / (|s_v| |s_a|) - s_v cos / |s_v|^2, and alike for each role
        cross_a, cross_b = gp / (vn * an), gn / (vn * bn)
        coefs = np.concatenate([cross_a, cross_a, cross_b, cross_b,
                                -(gp * pos + gn * neg) / vn**2,
                                -gp * pos / an**2, -gn * neg / bn**2])
        at = (np.concatenate([v, a, v, b, v, a, b]),
              np.concatenate([a, v, b, v, v, a, b]))
        # the product adds the entries in the order above, a repeated
        # (row, col) included, so every run gives the same bytes
        mat = _scipy_sparse.coo_matrix((coefs, at), shape=(rows, rows))
        return (mat @ sd,)

    return _record("triplet_nll", np.array([[loss]]), (s,), vjp)


def class_means(stack: np.ndarray, targets, num_classes: int) -> np.ndarray:
    """(L, C, d) class-mean anchors of an (L, n, d) stack: entry [l, c] is the
    mean of layer l's rows whose target is c. One bincount over (layer, class,
    column) bins sums them, adding each bin's rows in row order from zero as
    a per-class mean does at every width above 1 (numpy sums a single column
    pairwise). An empty class raises SplitError naming it."""
    y = np.asarray(targets, dtype=np.int64)
    layers, n, d = stack.shape
    if y.shape != (n,) or (n and (y.min() < 0 or y.max() >= num_classes)):
        raise ParameterError(f"class_means: need {n} targets in [0, {num_classes})")
    counts = np.bincount(y, minlength=num_classes)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise SplitError(f"class {empty[0]} has no training items")
    bins = (np.arange(layers)[:, None] * num_classes + y)[:, :, None] * d + np.arange(d)
    sums = np.bincount(bins.ravel(), weights=stack.ravel(),
                       minlength=layers * num_classes * d)
    return sums.reshape(layers, num_classes, d) / counts[:, None]


def prompt_cosines(h: np.ndarray, prompts: np.ndarray):
    """Stage two's one scoring path: the (L, n, C) cosines of an (L, n, d)
    stack's rows against (L, C, d) prompts, layer by layer, with the unit
    rows u, v and the norms hn, pn they came from, as (s, u, v, hn, pn).

    A row or prompt of norm below NORM_EPS scores 0 against everything, in
    training (`prompt_nll`) and evaluation alike. Rows above it are divided
    by their own norm, so their scores do not depend on whether a degenerate
    row sits beside them.
    """
    hn = np.linalg.norm(h, axis=2)
    pn = np.linalg.norm(prompts, axis=2)
    low_h, low_p = hn < NORM_EPS, pn < NORM_EPS
    u = h / np.where(low_h, 1.0, hn)[..., None]
    v = prompts / np.where(low_p, 1.0, pn)[..., None]
    s = u @ v.transpose(0, 2, 1)
    s[low_h] = 0.0
    s.transpose(0, 2, 1)[low_p] = 0.0
    return s, u, v, hn, pn


def prompt_nll(mats: Sequence[Tensor], targets, thetas: Sequence[Tensor],
               tau: float) -> Tensor:
    """Stage two's prompt loss as one tape node.

    For each layer matrix (n, d) and its offsets (C, d): the prompts are the
    class means of the matrix's rows plus the offsets, the scores the rows'
    cosine against them, and the term the softmax NLL of scores/tau summed
    over the n rows. The output is the sum of the terms over the layers.

    The layers are stacked into one (L, n, d) array that both passes run over
    at once, with the unfused chain's numpy expressions (class means, `add`,
    `row_cosine_sim`, `softmax_nll`, `scale` by n, `add` over layers) and
    sums in its order, so both agree bit for bit at every width above 1 (at
    width 1, to rounding). The cosines are `prompt_cosines`', the evaluation's
    scoring path. Every layer has the same width. A row or prompt of norm
    below NORM_EPS scores 0, as in the evaluation, and no gradient flows
    through its cosines; a row still reaches its class's prompt through the
    class mean. An untracked matrix gets no gradient.
    """
    if tau <= 0:
        raise ParameterError(f"prompt_nll: tau must be > 0, got {tau}")
    if not mats or len(mats) != len(thetas):
        raise DimensionError(
            f"prompt_nll: need one offset matrix per layer, got {len(mats)} "
            f"layers and {len(thetas)} offsets")
    y = np.asarray(targets, dtype=np.int64)
    n = y.size
    c = thetas[0].rows
    if y.ndim != 1 or (n and (y.min() < 0 or y.max() >= c)):
        raise ParameterError(f"prompt_nll: targets must be 1-D in [0, {c})")
    d = mats[0].cols
    for l, (mat, theta) in enumerate(zip(mats, thetas)):
        if mat.shape != (n, d) or theta.shape != (c, d):
            raise DimensionError(
                f"prompt_nll: layer {l} is {mat.shape} with {theta.shape} offsets "
                f"for {n} targets, {c} classes and width {d}")

    h = np.stack([mat.data for mat in mats])
    prompts = class_means(h, y, c) + np.stack([theta.data for theta in thetas])
    s, u, v, hn, pn = prompt_cosines(h, prompts)
    low_h, low_p = hn < NORM_EPS, pn < NORM_EPS
    hn, pn = np.where(low_h, 1.0, hn), np.where(low_p, 1.0, pn)
    z = s / tau
    z = z - z.max(axis=2, keepdims=True)
    expz = np.exp(z)
    denom = expz.sum(axis=2)
    logp = z - np.log(denom)[..., None]
    items = np.arange(n)
    total = None
    # one 1-D mean per layer: a 2-D mean over axis 1 orders its sum otherwise
    for picked in logp[:, items, y]:
        term = float(n) * -picked.mean()
        total = term if total is None else total + term
    tracked = [mat.requires_grad for mat in mats]

    def vjp(g):
        # upstream of each layer's mean NLL, through the unfused `scale` by n
        g_mean = float(n) * g[0, 0]
        ds = expz / denom[..., None]
        ds[:, items, y] -= 1.0
        ds = ds * (g_mean / (n * tau))
        # a degenerate row's or prompt's scores are the constant 0
        ds[low_h] = 0.0
        ds.transpose(0, 2, 1)[low_p] = 0.0
        gs = ds * s
        dp = ((ds.transpose(0, 2, 1) @ u) / pn[..., None]
              - v * (gs.sum(axis=1) / pn)[..., None])
        dh = (ds @ v) / hn[..., None] - u * (gs.sum(axis=2) / hn)[..., None]
        # through the class mean: row i gets its class's dp / count
        dh += (dp / np.bincount(y, minlength=c)[:, None])[:, y]
        return (*[dl if t else None for dl, t in zip(dh, tracked)], *dp)

    return _record("prompt_nll", np.array([[total]]), (*mats, *thetas), vjp)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

class Gradients:
    """Gradient map keyed by tensor identity; absent parameters read as zero."""

    def __init__(self, grads: dict[int, np.ndarray]):
        self._grads = grads

    def get(self, t: Tensor) -> np.ndarray:
        g = self._grads.get(id(t))
        return g if g is not None else np.zeros(t.shape)

    def __contains__(self, t: Tensor) -> bool:
        return id(t) in self._grads

    def __len__(self) -> int:
        return len(self._grads)


def backward(loss: Tensor) -> Gradients:
    """Reverse sweep from a scalar loss; returns the gradient map.

    Deterministic: accumulation follows tape insertion order, so repeated
    runs over identical inputs produce bitwise-identical gradients.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"backward needs a scalar (1x1) loss, got {loss.shape}")

    # Collect the tracked ancestor subgraph.
    nodes: list[Tensor] = []
    seen: set[int] = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen or not t.requires_grad:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    nodes.sort(key=lambda t: t._order)

    tape_bytes = sum(t.data.nbytes for t in nodes)
    if tape_bytes > _PEAK["bytes"]:
        _PEAK["bytes"] = tape_bytes

    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for node in reversed(nodes):
        g = grads.get(id(node))
        if g is None or node._vjp is None:
            continue
        parent_grads = node._vjp(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return Gradients(grads)
