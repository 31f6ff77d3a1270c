"""GCN backbone with dual low-rank adaptation.

Each layer computes (A_hat + PA QA^T) H W with W = W0 + P Q^T; the base
weights W0 (and the input linear map) are learned during pre-training and
frozen afterwards, while the low-rank factors are the stage-two trainables:
`EncoderParams.base()` lists the former, `.adapters()` the latter.
Adaptation factors are zero-initialized on one side so a freshly attached
adapter reproduces the frozen encoder exactly. Every layer carrying P and Q
is one `numcore.lowrank_layer` node that never forms W0 + P Q^T: a projected
layer (`edge_subset`, graph tasks) runs as (A'H) W0 + ((A'H) P) Q^T, which
reassociates the dense weight's product (results move by rounding), and a
full-GLoRA layer as the frozen product (A_hat H) W0 plus a rank-(r+1)
update, bitwise as the unfused chain ran it. Trainable edges make A' = A_hat
+ E(w), E(w) holding each selected edge's weight at its two entries; one
`numcore.edge_update` node adds E(w) H to the frozen aggregation, which is
never rebuilt. There is one way into the encoder: `forward_start(adj, x,
params, ids)` plans rows `ids` from the parameters alone and builds the
constants every forward over that plan starts from, and
`encoder_forward(start)` runs it. While the base is frozen those are H(0) =
X W_in with layer 0's A_hat H(0) and A_hat H(0) W0 in every mode, and A_hat
X once a base weight trains, the first layer then being (A_hat X)(W_in W0).
A checkpoint holds the float32 base weights only, as `as_stored` rounds
them, and ends in the sha256 of its other bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    CheckpointError,
    ContractError,
    DimensionError,
    ParameterError,
    StructuralError,
)
from .numcore import (
    EdgePattern,
    SparseMatrix,
    Tensor,
    edge_update,
    gather_rows,
    lowrank_layer,
    matmul,
    relu,
    spmm,
)

GLORA_MODES = ("off", "full", "edge_subset")

GLORA_INIT_STD = 0.02  # one-sided Gaussian; the other factor starts at zero

_MAGIC = b"DAGP"
_VERSION = 2
_DIGEST_BYTES = 32  # sha256 of every byte before it


@dataclass
class EncoderConfig:
    layers: int
    dims: list[int]  # [F, d, d, ..., d]; hidden widths must all agree

    def __post_init__(self):
        if self.layers < 1:
            raise ParameterError(f"need >= 1 layer, got {self.layers}")
        if len(self.dims) != self.layers + 1:
            raise ParameterError(
                f"dims must have layers+1 entries, got {len(self.dims)} for {self.layers}"
            )
        hidden = set(self.dims[1:])
        if len(hidden) != 1:
            raise ParameterError(f"hidden widths must all agree, got {sorted(hidden)}")
        if min(self.dims) < 1:
            raise ParameterError(f"every width in dims must be >= 1, got {self.dims}")
        self.dims = [int(d) for d in self.dims]

    @property
    def feature_dim(self) -> int:
        return self.dims[0]

    @property
    def hidden_dim(self) -> int:
        return self.dims[1]

    def to_json(self) -> str:
        return json.dumps({"layers": self.layers, "dims": self.dims}, sort_keys=True)

    @classmethod
    def from_json(cls, blob: str | bytes) -> "EncoderConfig":
        # a version-2 blob holds `layers` and `dims` alone; version-1 files
        # are refused before their blob is read
        try:
            raw = json.loads(blob)
            return cls(layers=int(raw["layers"]), dims=list(raw["dims"]))
        except (KeyError, TypeError, ValueError, ParameterError) as e:
            raise CheckpointError(f"bad config blob: {e}") from e


@dataclass
class LayerParams:
    w0: Tensor
    p: Tensor | None = None
    q: Tensor | None = None
    pa: Tensor | None = None
    qa: Tensor | None = None
    edge_weights: Tensor | None = None

    def adapters(self) -> list[Tensor]:
        """The stage-two factors this layer carries."""
        return [t for t in (self.p, self.q, self.pa, self.qa, self.edge_weights)
                if t is not None]


@dataclass
class EncoderParams:
    w_in: Tensor
    layers: list[LayerParams]
    # CSR value positions of each selected undirected edge (E_sel, 2): the
    # (u,v) and (v,u) slots that share one trainable weight (edge_subset mode)
    edge_positions: np.ndarray | None = field(default=None, repr=False)

    def base(self) -> list[Tensor]:
        """The input map and each layer's W0, in checkpoint order: what
        pre-training trains and what a checkpoint holds."""
        return [self.w_in] + [lp.w0 for lp in self.layers]

    def adapters(self) -> list[Tensor]:
        """Every layer's stage-two factors, in layer order."""
        return [t for lp in self.layers for t in lp.adapters()]


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    """A trainable (fan_in, fan_out) Glorot-normal draw from `rng`."""
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return Tensor(std * rng.standard_normal((fan_in, fan_out)), requires_grad=True)


def init_encoder(cfg: EncoderConfig, rng: np.random.Generator) -> EncoderParams:
    """Fresh pre-training parameters: input map plus one W0 per layer."""
    w_in = glorot(rng, cfg.feature_dim, cfg.hidden_dim)
    layers = [
        LayerParams(w0=glorot(rng, cfg.hidden_dim, cfg.dims[l]))
        for l in range(1, cfg.layers + 1)
    ]
    return EncoderParams(w_in=w_in, layers=layers)


def edge_subset_positions(adj: SparseMatrix, train_ids) -> np.ndarray:
    """CSR value positions, paired per undirected edge, for off-diagonal
    entries incident to a training node."""
    train = np.zeros(adj.shape[0], dtype=bool)
    train[np.asarray(train_ids, dtype=np.int64)] = True
    rows = adj.nnz_rows()
    cols = adj.col_indices
    sel = (rows < cols) & (train[rows] | train[cols])
    upper = np.flatnonzero(sel)
    # canonical CSR stores its entries sorted by row * N + col, so the
    # mirrored (v,u) slot of each selected (u,v) is one binary search away
    n = adj.shape[1]
    keys = rows * n + cols
    want = cols[upper] * n + rows[upper]
    mirror = np.minimum(np.searchsorted(keys, want), adj.nnz - 1)
    missing = np.flatnonzero(keys[mirror] != want)
    if missing.size:
        k = upper[missing[0]]
        raise StructuralError(
            f"adjacency is not symmetric: entry ({rows[k]}, {cols[k]}) has no mirror")
    return np.stack([upper, mirror], axis=1)


def own_base(params: EncoderParams, trainable: bool) -> EncoderParams:
    """`params` with the input map and every W0 in tensors of their own,
    trainable or frozen, over the same arrays. Training rebinds a tensor's
    array and never writes into one, so the caller's tensors, a cached
    checkpoint's among them, keep their values and flags."""
    def own(t):
        return Tensor(t.data, requires_grad=trainable)

    return replace(params, w_in=own(params.w_in),
                   layers=[replace(lp, w0=own(lp.w0)) for lp in params.layers])


def attach_glora(params: EncoderParams, mode: str, rank: int,
                 rng: np.random.Generator, num_nodes: int | None = None,
                 edge_positions: np.ndarray | None = None,
                 adjacency_adaptation: bool = True) -> EncoderParams:
    """Add trainable rank-`rank` factors for stage two in GLoRA `mode`.

    P (and PA) start Gaussian, Q (and QA, and edge weights) start at zero, so
    the adapted forward initially equals the frozen one exactly. Set
    `adjacency_adaptation=False` to attach only the projection factors
    (graph-level tasks, where per-item adjacency sizes vary). Mode "off"
    attaches nothing and returns `params` itself.
    """
    if mode == "off":
        return params
    layers = []
    for l, lp in enumerate(params.layers):
        d_in, d_out = lp.w0.shape
        new = LayerParams(
            w0=lp.w0,
            p=Tensor(GLORA_INIT_STD * rng.standard_normal((d_in, rank)),
                     requires_grad=True),
            q=Tensor(np.zeros((d_out, rank)), requires_grad=True),
        )
        if adjacency_adaptation and mode == "full":
            if num_nodes is None:
                raise ContractError("full GLoRA needs num_nodes")
            new.pa = Tensor(GLORA_INIT_STD * rng.standard_normal((num_nodes, 1)),
                            requires_grad=True)
            new.qa = Tensor(np.zeros((num_nodes, 1)), requires_grad=True)
        elif adjacency_adaptation and mode == "edge_subset":
            if edge_positions is None:
                raise ContractError("edge_subset GLoRA needs edge_positions")
            new.edge_weights = Tensor(np.zeros((len(edge_positions), 1)),
                                      requires_grad=True)
        layers.append(new)
    return EncoderParams(w_in=params.w_in, layers=layers,
                         edge_positions=edge_positions)


@dataclass(frozen=True)
class ForwardPlan:
    """Which rows each layer computes so that every layer yields rows `ids`.

    `rows[l]` are the sorted rows of H(l) computed (None: every row);
    `adjs[l]` aggregates layer l+1, rows `rows[l+1]` by columns `rows[l]`;
    `picks[l]` are the positions of `ids` in `rows[l]` (None: all of them,
    in order); `edge_patterns[l]` places the trainable edge entries lying in
    `adjs[l]` (None without selected edges).
    """

    rows: list
    adjs: list[SparseMatrix]
    picks: list
    edge_patterns: list[EdgePattern] | None


def forward_plan(adj: SparseMatrix, ids, layers: int,
                 edge_positions: np.ndarray | None = None,
                 dense: bool = False) -> ForwardPlan:
    """Plan a forward that computes rows `ids` of every layer and nothing the
    last layer does not read: R_L is `ids` and R_{l-1} is R_l plus its
    neighbours, the exact (sampling-free) receptive field. `dense` layers
    carry full GLoRA's rank-one term, which reads every row of its input, so
    only the last layer is restricted. `ids=None` plans the full forward.
    `edge_positions` (E, 2) pairs each selected entry with its mirror.
    """
    n = adj.shape[0]
    if ids is None:
        rows = [None] * (layers + 1)
    else:
        ids = np.asarray(ids, dtype=np.int64)
        top = np.unique(ids)
        if top.size == 1 and n > 1:
            # a one-row product runs as BLAS gemv, which orders its sums
            # unlike gemm; a second row keeps the rows bitwise the full
            # forward's
            top = np.union1d(top, [int(top[0] == 0)])
        # a row set holding every row is None: nothing to gather or slice
        rows = [None if top.size == n else top]
        for _ in range(layers):
            below = None if dense or rows[0] is None else adj.neighbourhood(rows[0])
            rows.insert(0, None if below is None or below.size == n else below)
    adjs, sources = [], []
    for l in range(1, layers + 1):
        if rows[l] is None:
            adjs.append(adj)
            sources.append(np.arange(adj.nnz))
        else:
            cols = np.arange(n) if rows[l - 1] is None else rows[l - 1]
            block, source = adj.slice(rows[l], cols)
            adjs.append(block)
            sources.append(source)
    patterns = None
    if edge_positions is not None:
        pos = np.asarray(edge_positions, dtype=np.int64)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise DimensionError(f"edge_positions must be (E, 2), got {pos.shape}")
        # each selected undirected edge owns an upper and a mirrored slot,
        # checked once here; a layer keeps those lying in its block
        slots, edges = pos.T.ravel(), np.tile(np.arange(len(pos)), 2)
        EdgePattern(adj, slots, edges, len(pos))  # in range and distinct
        if np.any(adj.nnz_rows()[pos] != adj.col_indices[pos][:, ::-1]):
            raise ContractError("edge_positions must pair each entry with its mirror")
        patterns = []
        for block, source in zip(adjs, sources):
            where = np.full(adj.nnz, -1)
            where[source] = np.arange(source.size)
            mapped = where[slots]
            keep = mapped >= 0
            patterns.append(EdgePattern(block, mapped[keep], edges[keep], len(pos)))
    if ids is None:
        picks = rows
    else:
        picks = [ids if r is None else np.searchsorted(r, ids) for r in rows]
    return ForwardPlan(rows=rows, adjs=adjs, picks=picks, edge_patterns=patterns)


@dataclass(frozen=True)
class ForwardStart:
    """A forward's parameters, its plan and the constants it starts from, as
    `forward_start` builds them, untracked. With the input map and every W0
    frozen: `h0` = H(0) = X W_in on the plan's input rows and `first` = the
    first layer's A H(0), A H(0) W0 and, only when its edge weights train,
    the H(0) W0 their update of A H(0) W0 reads. With a base weight
    training: `ax` = A X on the first layer's rows alone."""

    params: EncoderParams
    plan: ForwardPlan
    h0: Tensor | None = None
    first: tuple[Tensor, Tensor, Tensor | None] | None = None
    ax: Tensor | None = None


def _full_glora(lp: LayerParams) -> bool:
    return lp.pa is not None and lp.qa is not None


def forward_start(adj: SparseMatrix, x: Tensor, params: EncoderParams,
                  ids=None) -> ForwardStart:
    """Plan a forward of `params` over rows `ids` (None: every row) and build
    the constants it starts from. The plan takes its trainable edges from
    `params.edge_positions` and, when a layer carries full GLoRA, keeps every
    row below the top. While the input map and every W0 stay frozen the
    constants are H(0) and the first layer's frozen products; once a base
    weight trains they are A X, and the first layer runs as (A X)(W_in W0)."""
    n = adj.shape[0]
    if adj.shape[1] != n:
        raise DimensionError(f"adjacency must be square, got {adj.shape}")
    f = params.w_in.rows
    if x.rows != n or x.cols != f:
        raise DimensionError(
            f"features must be ({n}, {f}), got {x.shape}; the input map takes {f}")
    layers = params.layers
    plan = forward_plan(adj, ids, len(layers), edge_positions=params.edge_positions,
                        dense=any(_full_glora(lp) for lp in layers))
    x = x if plan.rows[0] is None else gather_rows(x, plan.rows[0])
    if any(t.requires_grad for t in params.base()):
        if layers[0].adapters():
            raise ContractError("an A X start needs a layer 0 without GLoRA factors")
        return ForwardStart(params, plan, ax=spmm(plan.adjs[0], x))
    h0, w0 = matmul(x, params.w_in), layers[0].w0
    agg = spmm(plan.adjs[0], h0)
    hw = None if layers[0].edge_weights is None else matmul(h0, w0)
    return ForwardStart(params, plan, h0=h0, first=(agg, matmul(agg, w0), hw))


def encoder_forward(start: ForwardStart) -> list[Tensor | None]:
    """Run the (possibly adapted) encoder from `start`; ReLU on interior
    layers only.

    Returns the per-layer embeddings H(0..L) of the rows `forward_start` was
    given, each layer computed on its planned rows only. H(0) is the input
    map's output; from an A X start it is not formed and its place holds
    None.
    """
    params, plan, ax = start.params, start.plan, start.ax
    stack = [start.h0]
    for l, lp in enumerate(params.layers):
        h, w = stack[-1], lp.edge_weights
        if l == 0 and ax is not None:
            # no nonlinearity precedes it: A (X W_in) W0 = (A X)(W_in W0)
            h = matmul(ax, matmul(params.w_in, lp.w0))
        else:
            if l == 0:
                agg, base, hw = start.first
                if w is not None:
                    base = edge_update(base, plan.edge_patterns[l], w, hw)
            else:
                agg, base = spmm(plan.adjs[l], h), None
            if w is not None:
                # A' = A + E(w): one shared scalar per selected undirected
                # edge at each of its entries, added to the frozen product
                agg = edge_update(agg, plan.edge_patterns[l], w, h)
            if _full_glora(lp):
                rows = plan.rows[l + 1]
                pa = lp.pa if rows is None else gather_rows(lp.pa, rows)
                h = lowrank_layer(agg, lp.w0, lp.p, lp.q, base, h=h, pa=pa, qa=lp.qa)
            elif lp.p is not None:
                h = lowrank_layer(agg, lp.w0, lp.p, lp.q, base)
            else:
                h = matmul(agg, lp.w0) if base is None else base
        if l < len(params.layers) - 1:
            h = relu(h)
        stack.append(h)
    return [h if h is None or pick is None else gather_rows(h, pick)
            for h, pick in zip(stack, plan.picks)]


# ---------------------------------------------------------------------------
# checkpoint container: magic "DAGP", u32 version, length-prefixed config
# JSON, then one (name_len, name, ndim, dims..., float32 payload) record per
# base weight, "w_in" then "layer{l}.w0" in layer order, all little-endian,
# then the sha256 digest of every preceding byte (version 2)
# ---------------------------------------------------------------------------

def _records(params: EncoderParams):
    """(name, float32 array) of each base weight, in checkpoint order: the
    storage precision both a checkpoint and `as_stored` keep."""
    if params.adapters():
        raise ContractError("a checkpoint holds no GLoRA factors")
    yield "w_in", params.w_in.data.astype("<f4")
    for i, lp in enumerate(params.layers):
        yield f"layer{i}.w0", lp.w0.data.astype("<f4")


def _from_records(arrays: list[np.ndarray]) -> EncoderParams:
    w_in, *w0s = [Tensor(a.astype(np.float64)) for a in arrays]
    return EncoderParams(w_in=w_in, layers=[LayerParams(w0=w) for w in w0s])


def as_stored(params: EncoderParams) -> EncoderParams:
    """The base weights as a checkpoint of them loads: rounded to float32,
    in new untracked tensors."""
    return _from_records([data for _name, data in _records(params)])


def _record_header(name: str, shape: tuple[int, int]) -> bytes:
    raw = name.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw + struct.pack("<III", 2, *shape)


def checkpoint_save(params: EncoderParams, cfg: EncoderConfig, path) -> None:
    """Write a checkpoint atomically: readers of `path` see the old file or
    the whole new one, never a torn write."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    blob = cfg.to_json().encode("utf-8")
    body = b"".join([_MAGIC + struct.pack("<II", _VERSION, len(blob)) + blob] + [
        _record_header(name, data.shape) + data.tobytes()
        for name, data in _records(params)])
    try:
        with open(tmp, "xb") as fh:
            fh.write(body + hashlib.sha256(body).digest())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def checkpoint_load(path):
    """Read a checkpoint; returns (EncoderParams, EncoderConfig).

    The config fixes each record's header, checked before its payload is
    read, and no read asks for more than the file holds; the digest at the
    end must match every byte before it. A malformed or altered file, or
    one of another version, raises CheckpointError only. Loaded tensors are
    not trainable; stage two and fine-tuning train tensors of their own over
    them (`own_base`).
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            if n > size - fh.tell():
                raise CheckpointError(f"truncated checkpoint while reading {what}")
            return fh.read(n)

        if read(4, "magic") != _MAGIC:
            raise CheckpointError("bad magic bytes (not a checkpoint)")
        (version,) = struct.unpack("<I", read(4, "version"))
        if version != _VERSION:
            raise CheckpointError(f"version {version} unsupported (want {_VERSION})")
        (blob_len,) = struct.unpack("<I", read(4, "config length"))
        cfg = EncoderConfig.from_json(read(blob_len, "config"))
        d = cfg.hidden_dim
        arrays = []
        for name, shape in [("w_in", (cfg.feature_dim, d))] + [
                (f"layer{l}.w0", (d, d)) for l in range(cfg.layers)]:
            header = _record_header(name, shape)
            if read(len(header), f"{name} header") != header:
                raise CheckpointError(f"record {len(arrays)} is not {name} {shape}")
            data = np.frombuffer(read(4 * shape[0] * shape[1], f"{name} payload"),
                                 dtype="<f4").reshape(shape)
            # checked before widening: a signalling NaN warns when cast
            if not np.isfinite(data).all():
                raise CheckpointError(f"{name}: non-finite entries")
            arrays.append(data)
        body = fh.tell()
        digest = read(_DIGEST_BYTES, "checksum")
        if fh.tell() != size:
            raise CheckpointError(f"{size - fh.tell()} bytes after the checksum")
        fh.seek(0)
        if hashlib.sha256(fh.read(body)).digest() != digest:
            raise CheckpointError("checksum mismatch: the file was altered")
    return _from_records(arrays), cfg
