"""Dataset directory ingestion and emission.

Layout (bit-exact):
  meta.json     {"name", "num_nodes", "num_features", "num_classes", "task"}
                task is "node" or "graph"; for graph tasks num_nodes is the
                total node count across member graphs.
  edges.tsv     one undirected edge per line, "u<TAB>v" with u < v, sorted,
                no duplicates, no self-loops            (node tasks)
  features.csv  N rows of F comma-separated floats      (node tasks)
  labels.csv    N lines, one integer, -1 = unlabeled    (node tasks)
  graphs.jsonl  {"edges": [[u,v],...], "features": [[...],...], "label": int}
                one JSON object per line                (graph tasks)

Loaders reject malformed input rather than repairing it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import DatasetError, StructuralError
from ..numcore import Tensor
from .graph import Graph, GraphSet, canonical_edges

_META_KEYS = {"name", "num_nodes", "num_features", "num_classes", "task"}


def _read_meta(path: Path) -> dict:
    meta_path = path / "meta.json"
    if not meta_path.is_file():
        raise DatasetError(f"{meta_path}: missing")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as e:
        raise DatasetError(f"{meta_path}: invalid JSON ({e})") from e
    if not isinstance(meta, dict):
        raise DatasetError(f"{meta_path}: expected a JSON object")
    missing = _META_KEYS - meta.keys()
    if missing:
        raise DatasetError(f"{meta_path}: missing keys {sorted(missing)}")
    if meta["task"] not in ("node", "graph"):
        raise DatasetError(f"{meta_path}: task must be 'node' or 'graph', got {meta['task']!r}")
    for key in ("num_nodes", "num_features", "num_classes"):
        # JSON integers only: bool is an int, and int() would take 1.5 or "7"
        if type(meta[key]) is not int or meta[key] < 0:
            raise DatasetError(
                f"{meta_path}: {key} must be a non-negative integer, got {meta[key]!r}")
    if meta["task"] == "node" and meta["num_nodes"] < 1:
        raise DatasetError(f"{meta_path}: a node task needs num_nodes >= 1, got 0")
    if meta["num_features"] < 1:
        # no features file could hold rows of zero values: a blank line is skipped
        raise DatasetError(f"{meta_path}: num_features must be >= 1, got 0")
    return meta


def _read_edges(path: Path, num_nodes: int) -> np.ndarray:
    edge_path = path / "edges.tsv"
    if not edge_path.is_file():
        raise DatasetError(f"{edge_path}: missing")
    rows = []
    prev = (-1, -1)
    with edge_path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DatasetError(f"{edge_path}:{lineno}: expected two tab-separated ints")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as e:
                raise DatasetError(f"{edge_path}:{lineno}: non-integer endpoint") from e
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise DatasetError(f"{edge_path}:{lineno}: endpoint outside [0, {num_nodes})")
            if u >= v:
                raise DatasetError(f"{edge_path}:{lineno}: requires u < v (self-loops forbidden)")
            if (u, v) <= prev:
                raise DatasetError(f"{edge_path}:{lineno}: edges must be sorted and unique")
            prev = (u, v)
            rows.append((u, v))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def _read_features(path: Path, num_nodes: int, num_features: int) -> np.ndarray:
    feat_path = path / "features.csv"
    if not feat_path.is_file():
        raise DatasetError(f"{feat_path}: missing")
    with feat_path.open() as fh:  # np.loadtxt warns on a file without data
        if not any(line.split("#", 1)[0].strip() for line in fh):
            raise DatasetError(f"{feat_path}: 0 rows but meta num_nodes={num_nodes}")
    try:
        feats = np.loadtxt(feat_path, delimiter=",", ndmin=2)
    except ValueError as e:
        where = _first_bad_feature_line(feat_path)
        raise DatasetError(where or f"{feat_path}: parse failure ({e})") from e
    if feats.shape[0] != num_nodes:
        raise DatasetError(
            f"{feat_path}: {feats.shape[0]} rows but meta num_nodes={num_nodes}"
        )
    if feats.shape[1] != num_features:
        raise DatasetError(
            f"{feat_path}: {feats.shape[1]} columns but meta num_features={num_features}"
        )
    if not np.isfinite(feats).all():
        raise DatasetError(f"{feat_path}: non-finite feature value")
    return feats


def _first_bad_feature_line(feat_path: Path) -> str | None:
    """`{path}:{lineno}: ...` for the first line `np.loadtxt` cannot read:
    a token that is no float, or a value count unlike the first row's.
    Lines count from 1, blank and comment lines included."""
    first = None
    with feat_path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            tokens = text.split(",")
            for token in tokens:
                try:
                    float(token)
                except ValueError:
                    return f"{feat_path}:{lineno}: non-numeric feature value {token.strip()!r}"
            if first is None:
                first = (lineno, len(tokens))
            elif len(tokens) != first[1]:
                return (f"{feat_path}:{lineno}: {len(tokens)} values, "
                        f"line {first[0]} has {first[1]}")
    return None


def _read_labels(path: Path, num_nodes: int, num_classes: int) -> np.ndarray:
    label_path = path / "labels.csv"
    if not label_path.is_file():
        raise DatasetError(f"{label_path}: missing")
    values = []
    with label_path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                y = int(line)
            except ValueError as e:
                raise DatasetError(f"{label_path}:{lineno}: non-integer label") from e
            if y < -1 or y >= num_classes:
                raise DatasetError(
                    f"{label_path}:{lineno}: label {y} outside [-1, {num_classes})"
                )
            values.append(y)
    if len(values) != num_nodes:
        raise DatasetError(
            f"{label_path}: {len(values)} labels but meta num_nodes={num_nodes}"
        )
    return np.array(values, dtype=np.int64)


def load_dataset(path) -> Graph | GraphSet:
    """Load a dataset directory; the meta record decides node vs graph task."""
    path = Path(path)
    if not path.is_dir():
        raise DatasetError(f"{path}: not a directory")
    meta = _read_meta(path)
    n, f, c = meta["num_nodes"], meta["num_features"], meta["num_classes"]
    if meta["task"] == "node":
        edges = _read_edges(path, n)
        feats = _read_features(path, n, f)
        labels = _read_labels(path, n, c)
        return Graph(num_nodes=n, edges=edges, features=Tensor(feats),
                     labels=labels, num_classes=c)
    return _load_graph_task(path, meta)


def _load_graph_task(path: Path, meta: dict) -> GraphSet:
    jsonl = path / "graphs.jsonl"
    if not jsonl.is_file():
        raise DatasetError(f"{jsonl}: missing")
    f, c = meta["num_features"], meta["num_classes"]
    graphs = []
    with jsonl.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{jsonl}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetError(f"{where}: invalid JSON ({e})") from e
            graphs.append(_graph_item(rec, where, f, c))
    if not graphs:
        raise DatasetError(f"{jsonl}: no graphs")
    total_nodes = sum(g.num_nodes for g in graphs)
    if total_nodes != meta["num_nodes"]:
        raise DatasetError(
            f"{jsonl}: {total_nodes} total nodes but meta num_nodes={meta['num_nodes']}"
        )
    return GraphSet(graphs=graphs, num_classes=c)


def _json_array(value, kinds: str, want: str, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged
        arr = None
    if arr is None or arr.size and arr.dtype.kind not in kinds:
        raise DatasetError(f"{where}: expected a rectangular array of {want}")
    return arr


def _graph_item(rec, where: str, f: int, c: int) -> Graph:
    """One graphs.jsonl record as a graph-task item; malformed values raise
    DatasetError naming the line."""
    if not isinstance(rec, dict):
        raise DatasetError(f"{where}: expected a JSON object")
    for key in ("edges", "features", "label"):
        if key not in rec:
            raise DatasetError(f"{where}: missing key {key!r}")
    feats = _json_array(rec["features"], "if", "numeric features", where).astype(np.float64)
    if feats.ndim != 2 or feats.shape[1] != f:
        raise DatasetError(f"{where}: features must be n x {f}, got {feats.shape}")
    if not np.isfinite(feats).all():
        raise DatasetError(f"{where}: non-finite feature value")
    label = rec["label"]
    if type(label) is not int or not 0 <= label < c:
        raise DatasetError(f"{where}: label {label!r} is not an integer in [0, {c})")
    edges = _json_array(rec["edges"], "i", "integer edge endpoints", where)
    if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
        raise DatasetError(f"{where}: edges must be [u, v] pairs, got shape {edges.shape}")
    try:
        canon = canonical_edges(edges, feats.shape[0])
    except StructuralError as e:
        raise DatasetError(f"{where}: {e}") from e
    if len(canon) != edges.size // 2:
        raise DatasetError(f"{where}: duplicate edges")
    return Graph(num_nodes=feats.shape[0], edges=canon, features=Tensor(feats),
                 labels=None, num_classes=c, graph_label=label)


def _write_floats_row(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def save_dataset(data: Graph | GraphSet, path, name: str) -> None:
    """Write a dataset directory in the on-disk format (round-trips exactly)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    if isinstance(data, GraphSet):
        meta = {
            "name": name,
            "num_nodes": int(sum(g.num_nodes for g in data.graphs)),
            "num_features": int(data.num_features),
            "num_classes": int(data.num_classes),
            "task": "graph",
        }
        (path / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
        with (path / "graphs.jsonl").open("w") as fh:
            for g in data.graphs:
                rec = {
                    "edges": [[int(u), int(v)] for u, v in g.edges],
                    "features": [[float(x) for x in row] for row in g.features.data],
                    "label": int(g.graph_label),
                }
                fh.write(json.dumps(rec) + "\n")
        return
    g = data
    if g.labels is None:
        raise DatasetError("save_dataset needs labels for node tasks")
    meta = {
        "name": name,
        "num_nodes": int(g.num_nodes),
        "num_features": int(g.num_features),
        "num_classes": int(g.num_classes),
        "task": "node",
    }
    (path / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    with (path / "edges.tsv").open("w") as fh:
        for u, v in g.edges:
            fh.write(f"{int(u)}\t{int(v)}\n")
    with (path / "features.csv").open("w") as fh:
        for row in g.features.data:
            fh.write(_write_floats_row(row) + "\n")
    with (path / "labels.csv").open("w") as fh:
        for y in g.labels:
            fh.write(f"{int(y)}\n")
