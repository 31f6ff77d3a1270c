"""Graph data model: undirected graphs, normalization, homophily measures,
k-shot splits, and ego-network extraction.

Edges are canonical: an (E, 2) int array with u < v per row, lexicographically
sorted, no duplicates, no self-loops. Graphs are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ParameterError, SplitError, StructuralError
from ..numcore import SparseMatrix, Tensor


def canonical_edges(edges, num_nodes: int) -> np.ndarray:
    """Normalize an edge list to canonical form; rejects self-loops."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.min() < 0 or arr.max() >= num_nodes:
        raise StructuralError(f"edge endpoint outside [0, {num_nodes})")
    if np.any(arr[:, 0] == arr[:, 1]):
        raise StructuralError("self-loop in edge list")
    lo = arr.min(axis=1)
    hi = arr.max(axis=1)
    arr = np.stack([lo, hi], axis=1)
    arr = np.unique(arr, axis=0)  # sorts lexicographically
    return arr


@dataclass
class Graph:
    """Undirected graph with node features and optional node labels.

    `labels` uses -1 for unlabeled nodes; `graph_label` is set on members of a
    GraphSet (graph-classification items).
    """

    num_nodes: int
    edges: np.ndarray
    features: Tensor
    labels: np.ndarray | None
    num_classes: int
    graph_label: int | None = None
    _nbrs: tuple | None = field(default=None, repr=False, compare=False, init=False)

    def __post_init__(self):
        if self.num_nodes < 1:
            raise StructuralError(f"graph needs >= 1 node, got {self.num_nodes}")
        arr = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if arr.size:
            if arr.min() < 0 or arr.max() >= self.num_nodes:
                raise StructuralError(f"edge endpoint outside [0, {self.num_nodes})")
            if np.any(arr[:, 0] >= arr[:, 1]):
                raise StructuralError("edges must satisfy u < v (no self-loops)")
            if len(np.unique(arr, axis=0)) != len(arr):
                raise StructuralError("duplicate edges")
            keys = arr[:, 0] * self.num_nodes + arr[:, 1]
            if np.any(np.diff(keys) <= 0):
                raise StructuralError("edges must be lexicographically sorted")
        self.edges = arr
        if self.features.rows != self.num_nodes:
            raise StructuralError(
                f"features have {self.features.rows} rows for {self.num_nodes} nodes"
            )
        if self.labels is not None:
            y = np.asarray(self.labels, dtype=np.int64)
            if y.shape != (self.num_nodes,):
                raise StructuralError(f"labels shape {y.shape} != ({self.num_nodes},)")
            if y.size and (y.min() < -1 or y.max() >= self.num_classes):
                raise StructuralError(f"label outside [-1, {self.num_classes})")
            self.labels = y
        if self.graph_label is not None and not 0 <= self.graph_label < self.num_classes:
            raise StructuralError(f"graph_label {self.graph_label} outside [0, {self.num_classes})")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_features(self) -> int:
        return self.features.cols

    def neighbors(self):
        """CSR-style neighbor arrays (offsets, targets), built lazily."""
        if self._nbrs is None:
            if self.num_edges:
                both = np.concatenate([self.edges, self.edges[:, ::-1]])
            else:
                both = np.zeros((0, 2), dtype=np.int64)
            order = np.lexsort((both[:, 1], both[:, 0]))
            both = both[order]
            offsets = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.add.at(offsets, both[:, 0] + 1, 1)
            self._nbrs = (np.cumsum(offsets), both[:, 1].copy())
        return self._nbrs


@dataclass
class GraphSet:
    """Graph-classification dataset: each member carries a graph_label."""

    graphs: list[Graph]
    num_classes: int

    def __post_init__(self):
        if not self.graphs:
            raise StructuralError("GraphSet needs >= 1 graph")
        width = self.graphs[0].num_features
        for i, g in enumerate(self.graphs):
            if g.graph_label is None:
                raise StructuralError(f"graph {i} has no graph_label")
            if g.num_features != width:
                raise StructuralError(
                    f"graph {i} feature width {g.num_features} != {width}"
                )
            if g.num_classes != self.num_classes:
                raise StructuralError(
                    f"graph {i} num_classes {g.num_classes} != {self.num_classes}"
                )

    @property
    def num_features(self) -> int:
        return self.graphs[0].num_features

    @property
    def labels(self) -> np.ndarray:
        return np.array([g.graph_label for g in self.graphs], dtype=np.int64)

    def __len__(self):
        return len(self.graphs)


@dataclass
class SplitSpec:
    """k train items per class, the rest as test; deterministic per seed."""

    train_ids: np.ndarray
    test_ids: np.ndarray
    shots: int
    seed: int


def normalize_adjacency(g: Graph) -> SparseMatrix:
    """Symmetric GCN normalization with self-loops: D^-1/2 (A + I) D^-1/2."""
    n = g.num_nodes
    if g.num_edges:
        both = np.concatenate([g.edges, g.edges[:, ::-1]])
    else:
        both = np.zeros((0, 2), dtype=np.int64)
    loops = np.stack([np.arange(n, dtype=np.int64)] * 2, axis=1)
    all_entries = np.concatenate([both, loops])
    deg = np.bincount(all_entries[:, 0], minlength=n).astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(deg)
    vals = inv_sqrt[all_entries[:, 0]] * inv_sqrt[all_entries[:, 1]]
    return SparseMatrix.from_coo((n, n), all_entries[:, 0], all_entries[:, 1], vals)


def homophily_ratio(g: Graph) -> float:
    """Fraction of edges whose endpoints share a label.

    Edges touching an unlabeled (-1) endpoint are excluded from both counts.
    """
    if g.labels is None:
        raise ParameterError("homophily_ratio needs labels")
    if g.num_edges == 0:
        raise StructuralError("homophily ratio undefined: graph has no edges")
    y = g.labels
    u, v = g.edges[:, 0], g.edges[:, 1]
    labeled = (y[u] >= 0) & (y[v] >= 0)
    if not labeled.any():
        raise StructuralError("homophily ratio undefined: no edge has both endpoints labeled")
    return float((y[u[labeled]] == y[v[labeled]]).mean())


def bfs_distances(g: Graph, source: int, max_depth: int | None = None) -> np.ndarray:
    """BFS hop distances from source; unreached nodes get -1."""
    offsets, targets = g.neighbors()
    dist = np.full(g.num_nodes, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size and (max_depth is None or depth < max_depth):
        nxt = []
        for u in frontier:
            nxt.append(targets[offsets[u]:offsets[u + 1]])
        cand = np.unique(np.concatenate(nxt)) if nxt else np.zeros(0, dtype=np.int64)
        cand = cand[dist[cand] < 0]
        depth += 1
        dist[cand] = depth
        frontier = cand
    return dist


def local_hop_homophily(g: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-node fraction of exactly-k-hop peers sharing the node's label.

    Returns (values, defined): `values` is NaN-free (0 where undefined) and
    `defined` masks nodes with a nonempty labeled k-ring. Distances from the
    center in the subgraph induced by its k-hop neighborhood coincide with
    depth-truncated BFS distances, which is what is computed.
    """
    if k < 1:
        raise ParameterError(f"local_hop_homophily needs k >= 1, got {k}")
    if g.labels is None:
        raise ParameterError("local_hop_homophily needs labels")
    y = g.labels
    values = np.zeros(g.num_nodes)
    defined = np.zeros(g.num_nodes, dtype=bool)
    for i in range(g.num_nodes):
        if y[i] < 0:
            continue
        dist = bfs_distances(g, i, max_depth=k)
        ring = np.flatnonzero(dist == k)
        ring = ring[y[ring] >= 0]
        if ring.size == 0:
            continue
        values[i] = float((y[ring] == y[i]).mean())
        defined[i] = True
    return values, defined


def _labels_of(data) -> tuple[np.ndarray, int]:
    if isinstance(data, GraphSet):
        return data.labels, data.num_classes
    if data.labels is None:
        raise ParameterError("k-shot split needs labels")
    return data.labels, data.num_classes


def kshot_split(data, k: int, seed: int) -> SplitSpec:
    """Sample k labeled items per class as train; remaining labeled as test.

    Works on a Graph (node ids) or a GraphSet (graph indices). Classes with
    fewer than k labeled items contribute all of them, with a warning.
    """
    if k < 1:
        raise ParameterError(f"k-shot split needs k >= 1, got {k}")
    y, num_classes = _labels_of(data)
    rng = np.random.default_rng(seed)
    train: list[np.ndarray] = []
    for c in range(num_classes):
        pool = np.flatnonzero(y == c)
        if pool.size == 0:
            raise SplitError(f"class {c} has no labeled items")
        if pool.size < k:
            warnings.warn(
                f"class {c} has only {pool.size} labeled items (< {k} shots); using all"
            )
            train.append(pool)
        else:
            train.append(rng.choice(pool, size=k, replace=False))
    train_ids = np.sort(np.concatenate(train))
    labeled = np.flatnonzero(y >= 0)
    test_ids = np.setdiff1d(labeled, train_ids)
    if test_ids.size == 0:
        raise SplitError("k-shot split left no test items")
    return SplitSpec(train_ids=train_ids, test_ids=test_ids, shots=k, seed=seed)


def fraction_split(data, train_fraction: float, seed: int) -> SplitSpec:
    """Per-class stratified fraction split (e.g. 50% train for full-shot runs)."""
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError(f"train_fraction must be in (0, 1), got {train_fraction}")
    y, num_classes = _labels_of(data)
    rng = np.random.default_rng(seed)
    train: list[np.ndarray] = []
    for c in range(num_classes):
        pool = np.flatnonzero(y == c)
        if pool.size == 0:
            raise SplitError(f"class {c} has no labeled items")
        take = max(1, int(round(train_fraction * pool.size)))
        take = min(take, pool.size)
        train.append(rng.choice(pool, size=take, replace=False))
    train_ids = np.sort(np.concatenate(train))
    labeled = np.flatnonzero(y >= 0)
    test_ids = np.setdiff1d(labeled, train_ids)
    if test_ids.size == 0:
        raise SplitError("fraction split left no test items")
    return SplitSpec(train_ids=train_ids, test_ids=test_ids, shots=0, seed=seed)


def ego_network(g: Graph, v: int, hops: int) -> tuple[Graph, int]:
    """Induced subgraph on nodes within `hops` of v, ids relabeled contiguously.

    Returns (subgraph, center index). Node order is ascending original id.
    """
    if not 0 <= v < g.num_nodes:
        raise ParameterError(f"node {v} outside [0, {g.num_nodes})")
    if hops < 0:
        raise ParameterError(f"hops must be >= 0, got {hops}")
    dist = bfs_distances(g, v, max_depth=hops)
    keep = np.flatnonzero(dist >= 0)
    remap = np.full(g.num_nodes, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    if g.num_edges:
        mask = (remap[g.edges[:, 0]] >= 0) & (remap[g.edges[:, 1]] >= 0)
        sub_edges = remap[g.edges[mask]]
    else:
        sub_edges = np.zeros((0, 2), dtype=np.int64)
    sub = Graph(
        num_nodes=keep.size,
        edges=sub_edges,
        features=Tensor(g.features.data[keep]),
        labels=None if g.labels is None else g.labels[keep],
        num_classes=g.num_classes,
    )
    return sub, int(remap[v])


def build_graph_task(g: Graph, hops: int = 2) -> GraphSet:
    """One ego network per node, labeled with its center node's label."""
    if g.labels is None:
        raise ParameterError("build_graph_task needs labels")
    items = []
    for v in range(g.num_nodes):
        if g.labels[v] < 0:
            continue
        sub, _center = ego_network(g, v, hops)
        items.append(replace(sub, graph_label=int(g.labels[v])))
    return GraphSet(graphs=items, num_classes=g.num_classes)


def disjoint_union(graphs: list[Graph]) -> Graph:
    """Node-disjoint union (pre-training on a whole GraphSet, graph batches)."""
    if not graphs:
        raise StructuralError("disjoint_union of nothing")
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
    edges = [g.edges + offsets[i] for i, g in enumerate(graphs) if g.num_edges]
    try:
        feats = np.concatenate([g.features.data for g in graphs])
    except ValueError:
        # the features are 2-D, so only their widths can differ
        width = graphs[0].num_features
        i = next(i for i, g in enumerate(graphs) if g.num_features != width)
        raise StructuralError(
            f"graph {i} feature width {graphs[i].num_features} != {width}") from None
    labels = None
    if all(g.labels is not None for g in graphs):
        labels = np.concatenate([g.labels for g in graphs])
    return Graph(
        num_nodes=int(offsets[-1]),
        edges=np.concatenate(edges) if edges else np.zeros((0, 2), dtype=np.int64),
        features=Tensor(feats),
        labels=labels,
        num_classes=graphs[0].num_classes,
    )


@dataclass(frozen=True)
class GraphBatch:
    """Graphs as one block-diagonal graph plus a (B, N) mean-pool matrix.

    Degrees are local to each component, so `adj` holds bitwise the values
    of each graph's own normalized adjacency; row b of `pool` is 1/n_b over
    graph b's node range.
    """

    adj: SparseMatrix
    features: Tensor
    pool: SparseMatrix


def graph_batch(graphs: list[Graph]) -> GraphBatch:
    union = disjoint_union(graphs)
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    pool = SparseMatrix((sizes.size, union.num_nodes), offsets,
                        np.arange(union.num_nodes), np.repeat(1.0 / sizes, sizes))
    return GraphBatch(adj=normalize_adjacency(union), features=union.features,
                      pool=pool)
