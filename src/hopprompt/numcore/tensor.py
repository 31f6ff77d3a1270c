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

NORM_EPS = 1e-12  # cosine guard; rows below this norm raise, never clamp


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


def scalar(x: float) -> Tensor:
    return Tensor(np.array([[float(x)]]))


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


def transpose(a: Tensor) -> Tensor:
    def vjp(g):
        return (g.T,)

    return _record("transpose", a.data.T.copy(), (a,), vjp)


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


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # subgradient at 0 is 0

    def vjp(g):
        return (g * mask,)

    # + 0.0 turns the -0.0 that maximum keeps into +0.0, as a select would
    return _record("relu", np.maximum(a.data, 0.0) + 0.0, (a,), vjp)


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


def vstack(parts: Sequence[Tensor]) -> Tensor:
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


def hstack(parts: Sequence[Tensor]) -> Tensor:
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


# `triplet_nll`'s forward works through its triplets in row blocks of about
# this many bytes of float64: temporaries that small are reused from the heap,
# where whole (n, d) ones are freshly mapped and page-faulted on every call (on
# syn-h10 at width 128, gathering whole rows took 18 times the minor faults)
_BLOCK_BYTES = 1 << 16


def triplet_nll(s: Tensor, v, a, b, tau: float) -> Tensor:
    """Stage one's contrastive loss as one tape node.

    For triplets of row ids (v, a, b): the mean over triplets of
    -ln softmax([cos(s_v, s_a), cos(s_v, s_b)] / tau)[0], the two-way NLL of
    the anchor's positive against its negative.

    The forward runs the numpy expressions of the unfused chain (three
    `gather_rows`, two `rowwise_cosine_sim`, `hstack`, `softmax_nll`) in its
    order, with the anchor norms computed once, so the loss agrees with that
    chain bit for bit; it gathers the rows of `s` one block of triplets at a
    time. d/ds is linear in s, so the VJP computes it as one sparse product
    M @ s, where the (rows, rows) coordinate matrix M holds each triplet's
    seven cosine coefficients, added in a fixed order; it agrees with the
    chain's backward to rounding (within 1e-13 of its largest entry) and is
    the same bytes on every run. The VJP keeps only the array of `s`
    (already on the tape), the indices and per-triplet vectors. A row of norm
    below NORM_EPS raises DegenerateRowError naming its node and its role
    (anchor, positive or negative).
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
    step = max(1, _BLOCK_BYTES // (8 * sd.shape[1]))
    norms = np.empty((3, n))  # of the anchor, positive and negative rows
    dots = np.empty((2, n))   # anchor with positive, anchor with negative
    for lo in range(0, n, step):
        blk = slice(lo, lo + step)
        sv, sa, sb = sd[v[blk]], sd[a[blk]], sd[b[blk]]
        for k, arr in enumerate((sv, sa, sb)):
            norms[k, blk] = np.linalg.norm(arr, axis=1)
        dots[0, blk] = np.einsum("ij,ij->i", sv, sa)
        dots[1, blk] = np.einsum("ij,ij->i", sv, sb)
    for role, k_norms, idx in zip(roles, norms, (v, a, b)):
        _require_norms(k_norms, "triplet_nll", role, idx)
    vn, an, bn = norms
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


def class_rows(targets, num_classes: int) -> list[np.ndarray]:
    """Row ids of each class, in class order; an empty class raises
    SplitError naming it."""
    y = np.asarray(targets)
    ids = [np.flatnonzero(y == c) for c in range(num_classes)]
    for c, rows in enumerate(ids):
        if rows.size == 0:
            raise SplitError(f"class {c} has no training items")
    return ids


def class_means(arr: np.ndarray, ids: Sequence[np.ndarray]) -> np.ndarray:
    """(C, d) class-mean anchors: row c is the mean of `arr`'s rows ids[c]."""
    return np.concatenate([arr[rows].mean(axis=0, keepdims=True) for rows in ids])


def prompt_nll(mats: Sequence[Tensor], targets, thetas: Sequence[Tensor],
               tau: float) -> Tensor:
    """Stage two's prompt loss as one tape node.

    For each layer matrix (n, d) and its offsets (C, d): the prompts are the
    class means of the matrix's rows plus the offsets, the scores the rows'
    cosine against them, and the term the softmax NLL of scores/tau summed
    over the n rows. The output is the sum of the terms over the layers.

    The forward runs the numpy expressions of the unfused chain (class means,
    `add`, `row_cosine_sim`, `softmax_nll`, `scale` by n, `add` over layers)
    in its order, and the VJP accumulates as that chain's backward does, so
    both agree bit for bit. A row or prompt of norm below NORM_EPS raises
    DegenerateRowError; an untracked matrix gets no gradient product.
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
    ids = class_rows(y, c)
    items = np.arange(n)

    total = None
    saved = []
    for l, (mat, theta) in enumerate(zip(mats, thetas)):
        if mat.rows != n or theta.shape != (c, mat.cols):
            raise DimensionError(
                f"prompt_nll: layer {l} is {mat.shape} with {theta.shape} "
                f"offsets for {n} targets and {c} classes")
        h = mat.data
        prompts = class_means(h, ids) + theta.data
        hn = _row_norms(h, "prompt_nll", f"layer {l} item")
        pn = _row_norms(prompts, "prompt_nll", f"layer {l} prompt")
        u = h / hn[:, None]
        v = prompts / pn[:, None]
        s = u @ v.T
        z = s / tau
        z = z - z.max(axis=1, keepdims=True)
        expz = np.exp(z)
        denom = expz.sum(axis=1)
        logp = z - np.log(denom)[:, None]
        term = float(n) * -logp[items, y].mean()
        total = term if total is None else total + term
        saved.append((mat.requires_grad, u, v, hn, pn, s, expz, denom))

    def vjp(g):
        # upstream of each layer's mean NLL, through the unfused `scale` by n
        g_mean = float(n) * g[0, 0]
        dmats, dthetas = [], []
        for tracked, u, v, hn, pn, s, expz, denom in saved:
            ds = expz / denom[:, None]
            ds[items, y] -= 1.0
            ds = ds * (g_mean / (n * tau))
            gs = ds * s
            dp = (ds.T @ u) / pn[:, None] - v * (gs.sum(axis=0) / pn)[:, None]
            dthetas.append(dp)
            if not tracked:
                dmats.append(None)
                continue
            dh = (ds @ v) / hn[:, None] - u * (gs.sum(axis=1) / hn)[:, None]
            for k, rows in enumerate(ids):
                dh[rows] += dp[k] / rows.size  # through the class mean
            dmats.append(dh)
        return (*dmats, *dthetas)

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
