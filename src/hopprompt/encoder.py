"""GCN backbone with dual low-rank adaptation.

Each layer computes (A_hat + PA QA^T) H W with W = W0 + P Q^T; the base
weights W0 (and the input linear map) are learned during pre-training and
frozen afterwards, while the low-rank factors are the stage-two trainables.
Adaptation factors are zero-initialized on one side so a freshly attached
adapter reproduces the frozen encoder exactly.
"""

from __future__ import annotations

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
    SparseMatrix,
    Tensor,
    add,
    gather_rows,
    matmul,
    rank_one_update_spmm,
    relu,
    spmm,
    transpose,
)

GLORA_MODES = ("off", "full", "edge_subset")

GLORA_INIT_STD = 0.02  # one-sided Gaussian; the other factor starts at zero

_MAGIC = b"DAGP"
_VERSION = 1


@dataclass
class EncoderConfig:
    layers: int
    dims: list[int]  # [F, d, d, ..., d]; hidden widths must all agree
    rank: int = 8
    glora_mode: str = "off"

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
        if self.glora_mode not in GLORA_MODES:
            raise ParameterError(f"glora_mode must be one of {GLORA_MODES}")
        if self.glora_mode != "off" and self.rank < 1:
            raise ParameterError(f"rank must be >= 1 with GLoRA on, got {self.rank}")
        self.dims = [int(d) for d in self.dims]

    @property
    def feature_dim(self) -> int:
        return self.dims[0]

    @property
    def hidden_dim(self) -> int:
        return self.dims[1]

    def to_json(self) -> str:
        return json.dumps(
            {"layers": self.layers, "dims": self.dims, "rank": self.rank,
             "glora_mode": self.glora_mode},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, blob: str) -> "EncoderConfig":
        try:
            raw = json.loads(blob)
            return cls(layers=int(raw["layers"]), dims=list(raw["dims"]),
                       rank=int(raw["rank"]), glora_mode=str(raw["glora_mode"]))
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"bad config blob: {e}") from e


@dataclass
class LayerParams:
    w0: Tensor
    p: Tensor | None = None
    q: Tensor | None = None
    pa: Tensor | None = None
    qa: Tensor | None = None
    edge_weights: Tensor | None = None

    def has_glora(self) -> bool:
        return any(t is not None for t in (self.p, self.q, self.pa, self.qa,
                                           self.edge_weights))


@dataclass
class EncoderParams:
    w_in: Tensor
    layers: list[LayerParams]
    # CSR value positions of each selected undirected edge (E_sel, 2): the
    # (u,v) and (v,u) slots that share one trainable weight (edge_subset mode)
    edge_positions: np.ndarray | None = field(default=None, repr=False)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return Tensor(std * rng.standard_normal((fan_in, fan_out)), requires_grad=True)


def init_encoder(cfg: EncoderConfig, rng: np.random.Generator) -> EncoderParams:
    """Fresh pre-training parameters: input map plus one W0 per layer."""
    w_in = _glorot(rng, cfg.feature_dim, cfg.hidden_dim)
    layers = [
        LayerParams(w0=_glorot(rng, cfg.hidden_dim, cfg.dims[l]))
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


def attach_glora(params: EncoderParams, cfg: EncoderConfig,
                 rng: np.random.Generator, num_nodes: int | None = None,
                 edge_positions: np.ndarray | None = None,
                 adjacency_adaptation: bool = True) -> EncoderParams:
    """Add trainable low-rank factors for stage two.

    P (and PA) start Gaussian, Q (and QA, and edge weights) start at zero, so
    the adapted forward initially equals the frozen one exactly. Set
    `adjacency_adaptation=False` to attach only the projection factors
    (graph-level tasks, where per-item adjacency sizes vary).
    """
    if cfg.glora_mode == "off":
        raise ContractError("attach_glora called with glora_mode=off")
    layers = []
    for l, lp in enumerate(params.layers):
        d_in, d_out = lp.w0.shape
        new = LayerParams(
            w0=lp.w0,
            p=Tensor(GLORA_INIT_STD * rng.standard_normal((d_in, cfg.rank)),
                     requires_grad=True),
            q=Tensor(np.zeros((d_out, cfg.rank)), requires_grad=True),
        )
        if adjacency_adaptation and cfg.glora_mode == "full":
            if num_nodes is None:
                raise ContractError("full GLoRA needs num_nodes")
            new.pa = Tensor(GLORA_INIT_STD * rng.standard_normal((num_nodes, 1)),
                            requires_grad=True)
            new.qa = Tensor(np.zeros((num_nodes, 1)), requires_grad=True)
        elif adjacency_adaptation and cfg.glora_mode == "edge_subset":
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
    in order); `edge_slots[l]` holds, for the trainable edge entries lying in
    `adjs[l]`, their slots there and the edge each one belongs to (None
    without selected edges).
    """

    rows: list
    adjs: list[SparseMatrix]
    picks: list
    edge_slots: list | None


def forward_plan(adj: SparseMatrix, ids, layers: int,
                 edge_positions: np.ndarray | None = None,
                 dense: bool = False) -> ForwardPlan:
    """Plan a forward that computes rows `ids` of every layer and nothing the
    last layer does not read: R_L is `ids` and R_{l-1} is R_l plus its
    neighbours, the exact (sampling-free) receptive field. `dense` layers
    carry full GLoRA's rank-one term, which reads every row of its input, so
    only the last layer is restricted. `ids=None` plans the full forward.
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
    edge_slots = None
    if edge_positions is not None:
        # each selected undirected edge owns an upper and a mirrored slot;
        # a layer keeps those lying in its block
        slots = np.concatenate([edge_positions[:, 0], edge_positions[:, 1]])
        edges = np.tile(np.arange(len(edge_positions)), 2)
        edge_slots = []
        for source in sources:
            where = np.full(adj.nnz, -1)
            where[source] = np.arange(source.size)
            mapped = where[slots]
            edge_slots.append((mapped[mapped >= 0], edges[mapped >= 0]))
    if ids is None:
        picks = rows
    else:
        picks = [ids if r is None else np.searchsorted(r, ids) for r in rows]
    return ForwardPlan(rows=rows, adjs=adjs, picks=picks, edge_slots=edge_slots)


def encoder_forward(adj: SparseMatrix, x: Tensor, cfg: EncoderConfig,
                    params: EncoderParams,
                    plan: ForwardPlan | None = None) -> list[Tensor]:
    """Run the (possibly adapted) encoder; ReLU on interior layers only.

    Returns the per-layer embeddings H(0..L), H(0) being the input linear
    map's output. With a `plan` from `forward_plan(adj, ids, ...)` each layer
    runs on its planned rows only, and every returned layer holds rows `ids`.
    """
    n = adj.shape[0]
    if adj.shape[1] != n:
        raise DimensionError(f"adjacency must be square, got {adj.shape}")
    if x.rows != n or x.cols != cfg.feature_dim:
        raise DimensionError(
            f"features must be ({n}, {cfg.feature_dim}), got {x.shape}"
        )
    if len(params.layers) != cfg.layers:
        raise DimensionError(
            f"params carry {len(params.layers)} layers, config says {cfg.layers}"
        )
    if cfg.glora_mode == "off" and any(lp.has_glora() for lp in params.layers):
        raise ContractError("GLoRA factors present but glora_mode=off")
    if plan is None:
        plan = forward_plan(adj, None, cfg.layers, params.edge_positions)
    elif len(plan.adjs) != cfg.layers:
        raise DimensionError(f"plan has {len(plan.adjs)} layers, config says {cfg.layers}")

    x_rows = x if plan.rows[0] is None else gather_rows(x, plan.rows[0])
    stack = [matmul(x_rows, params.w_in)]
    for l, lp in enumerate(params.layers):
        h, sub = stack[-1], plan.adjs[l]
        weight = lp.w0
        if lp.p is not None and lp.q is not None:
            weight = add(weight, matmul(lp.p, transpose(lp.q)))
        if lp.pa is not None and lp.qa is not None:
            if plan.rows[l] is not None:
                raise ContractError("full GLoRA reads every row of each layer's "
                                    "input; plan it with dense=True")
            pa = lp.pa if plan.rows[l + 1] is None else gather_rows(lp.pa, plan.rows[l + 1])
            agg = rank_one_update_spmm(sub, pa, lp.qa, h)
        elif lp.edge_weights is not None:
            if plan.edge_slots is None:
                raise ContractError("edge weights present but no edge_positions")
            # one shared scalar per selected undirected edge, added to each
            # of its slots; the other entries stay constant
            slots, edges = plan.edge_slots[l]
            values = add(Tensor(sub.values[slots][:, None]),
                         gather_rows(lp.edge_weights, edges))
            agg = spmm(sub, h, values=values, slots=slots)
        else:
            agg = spmm(sub, h)
        h = matmul(agg, weight)
        if l < len(params.layers) - 1:
            h = relu(h)
        stack.append(h)
    return [h if pick is None else gather_rows(h, pick)
            for h, pick in zip(stack, plan.picks)]


def partition_params(params: EncoderParams, stage: str):
    """Split encoder parameters into (trainable, frozen) for a stage."""
    if stage not in ("pretrain", "prompt"):
        raise ParameterError(f"stage must be 'pretrain' or 'prompt', got {stage!r}")
    base = [params.w_in] + [lp.w0 for lp in params.layers]
    adapters = []
    for lp in params.layers:
        for t in (lp.p, lp.q, lp.pa, lp.qa, lp.edge_weights):
            if t is not None:
                adapters.append(t)
    if stage == "pretrain":
        if adapters:
            raise ContractError("GLoRA factors must not exist during pre-training")
        return base, []
    return adapters, base


def count_trainable(params: EncoderParams, stage: str) -> int:
    trainable, _frozen = partition_params(params, stage)
    return int(sum(t.data.size for t in trainable))


def glora_param_count(cfg: EncoderConfig, num_nodes: int | None = None,
                      num_selected_edges: int | None = None) -> int:
    """Closed-form stage-two encoder trainable count (cross-check oracle)."""
    if cfg.glora_mode == "off":
        return 0
    proj = sum(cfg.rank * (cfg.hidden_dim + cfg.dims[l])
               for l in range(1, cfg.layers + 1))
    if cfg.glora_mode == "full":
        if num_nodes is None:
            raise ParameterError("full mode count needs num_nodes")
        return proj + 2 * num_nodes * cfg.layers
    if num_selected_edges is None:
        raise ParameterError("edge_subset count needs num_selected_edges")
    return proj + num_selected_edges * cfg.layers


# ---------------------------------------------------------------------------
# checkpoint container: magic "DAGP", u32 version, length-prefixed config
# JSON, then (name_len, name, ndim, dims..., float32 payload) records to EOF,
# all little-endian
# ---------------------------------------------------------------------------

def _named_tensors(params: EncoderParams):
    yield "w_in", params.w_in
    for i, lp in enumerate(params.layers):
        yield f"layer{i}.w0", lp.w0
        for attr in ("p", "q", "pa", "qa", "edge_weights"):
            t = getattr(lp, attr)
            if t is not None:
                yield f"layer{i}.{attr}", t


def checkpoint_save(params: EncoderParams, cfg: EncoderConfig, path) -> None:
    """Write a checkpoint atomically: readers of `path` see the old file or
    the whole new one, never a torn write."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    blob = cfg.to_json().encode("utf-8")
    try:
        with open(tmp, "xb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", _VERSION))
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for name, tensor in _named_tensors(params):
                raw = name.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<I", 2))
                fh.write(struct.pack("<II", *tensor.shape))
                fh.write(tensor.data.astype("<f4").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return data


def checkpoint_load(path, expect_cfg: EncoderConfig | None = None):
    """Read a checkpoint; returns (EncoderParams, EncoderConfig).

    Loaded tensors are not trainable; stage two and fine-tuning train
    tensors of their own over the same arrays (`own_base`).
    """
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != _MAGIC:
            raise CheckpointError("bad magic bytes (not a checkpoint)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != _VERSION:
            raise CheckpointError(f"version {version} unsupported (want {_VERSION})")
        (blob_len,) = struct.unpack("<I", _read_exact(fh, 4, "config length"))
        cfg = EncoderConfig.from_json(_read_exact(fh, blob_len, "config").decode("utf-8"))
        tensors: dict[str, Tensor] = {}
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise CheckpointError("truncated checkpoint while reading record header")
            (name_len,) = struct.unpack("<I", head)
            name = _read_exact(fh, name_len, "record name").decode("utf-8")
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, f"{name} rank"))
            if ndim != 2:
                raise CheckpointError(f"{name}: rank {ndim} unsupported")
            rows, cols = struct.unpack("<II", _read_exact(fh, 8, f"{name} dims"))
            payload = _read_exact(fh, 4 * rows * cols, f"{name} payload")
            data = np.frombuffer(payload, dtype="<f4").astype(np.float64)
            tensors[name] = Tensor(data.reshape(rows, cols))

    if expect_cfg is not None and (
        expect_cfg.layers != cfg.layers or expect_cfg.dims != cfg.dims
    ):
        raise CheckpointError(
            f"config mismatch: checkpoint dims {cfg.dims} vs requested {expect_cfg.dims}"
        )
    if "w_in" not in tensors:
        raise CheckpointError("checkpoint missing w_in")
    expected_win = (cfg.feature_dim, cfg.hidden_dim)
    if tensors["w_in"].shape != expected_win:
        raise CheckpointError(
            f"w_in shape {tensors['w_in'].shape} vs config-implied {expected_win}"
        )
    layers = []
    for l in range(cfg.layers):
        key = f"layer{l}.w0"
        if key not in tensors:
            raise CheckpointError(f"checkpoint missing {key}")
        want = (cfg.hidden_dim, cfg.dims[l + 1])  # l is 0-based here
        if tensors[key].shape != want:
            raise CheckpointError(f"{key} shape {tensors[key].shape} vs config-implied {want}")
        lp = LayerParams(w0=tensors[key])
        for attr in ("p", "q", "pa", "qa", "edge_weights"):
            t = tensors.get(f"layer{l}.{attr}")
            if t is not None:
                setattr(lp, attr, t)
        layers.append(lp)
    known = {"w_in"} | {
        f"layer{l}.{a}" for l in range(cfg.layers)
        for a in ("w0", "p", "q", "pa", "qa", "edge_weights")
    }
    unknown = set(tensors) - known
    if unknown:
        raise CheckpointError(f"unknown records: {sorted(unknown)}")
    return EncoderParams(w_in=tensors["w_in"], layers=layers), cfg

