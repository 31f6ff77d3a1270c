"""Checkpoint cache keyed by (revision, dataset digest, encoder config,
pretrain config, seed): grid points sharing a pre-training setup never retrain."""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from ..encoder import EncoderConfig, as_stored, checkpoint_load
from ..errors import CheckpointError
from ..graphstore import Graph, GraphSet
from ..pretrain import PretrainConfig, run_pretrain


def _frame(h, arr) -> None:
    """Hash an array with its dtype, shape and byte length in front."""
    arr = np.ascontiguousarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}{arr.nbytes}:".encode())
    h.update(arr.tobytes())


def dataset_digest(data: Graph | GraphSet) -> str:
    """Content hash of a dataset; every array is framed, so member
    boundaries and label widths cannot alias."""
    h = hashlib.sha256()
    graphs = data.graphs if isinstance(data, GraphSet) else [data]
    h.update(f"{type(data).__name__}[{len(graphs)}]".encode())
    for g in graphs:
        _frame(h, g.edges)
        _frame(h, g.features.data)
        for extra in (g.labels, g.graph_label):
            if extra is None:
                h.update(b"none;")
            else:
                _frame(h, np.asarray(extra, dtype=np.int64))
    return h.hexdigest()


# Revision of pre-training's arithmetic: any change that moves a checkpoint's
# bytes for the same inputs must bump it, so no warm cache serves stale weights.
CHECKPOINT_REVISION = 1


def _key(digest: str, cfg: EncoderConfig, pcfg: PretrainConfig) -> str:
    h = hashlib.sha256()
    h.update(f"revision {CHECKPOINT_REVISION};".encode())
    h.update(digest.encode())
    h.update(cfg.to_json().encode())
    h.update(repr((pcfg.tau, pcfg.negatives, pcfg.epochs, pcfg.batch_size,
                   pcfg.lr, pcfg.weight_decay, pcfg.seed)).encode())
    return h.hexdigest()[:24]


class CheckpointCache:
    """Disk-backed when given a directory, else in-memory for one process."""

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._mem: dict[str, tuple] = {}
        self.pretrain_runs = 0  # observability: how many cache misses trained
        self.quarantined = 0  # unreadable entries renamed to <key>.dagp.bad

    def get_or_pretrain(self, data, cfg: EncoderConfig, pcfg: PretrainConfig,
                        digest: str | None = None):
        """Returns (params, cfg, losses-or-None); losses only on a fresh run.

        Every result is what loading its checkpoint gives (`as_stored`), so
        warm, cold, disk and in-memory caches yield bitwise-equal parameters.
        """
        key = _key(digest or dataset_digest(data), cfg, pcfg)
        if self.root is not None:
            path = self.root / f"{key}.dagp"
            if path.exists():
                try:
                    params, loaded_cfg = checkpoint_load(path)
                    return params, loaded_cfg, None
                except CheckpointError:
                    # torn or damaged: set it aside for inspection, retrain
                    path.replace(path.with_name(f"{path.name}.bad"))
                    self.quarantined += 1
            self.pretrain_runs += 1
            _params, losses = run_pretrain(data, cfg, pcfg, out_path=path)
            params, loaded_cfg = checkpoint_load(path)
            return params, loaded_cfg, losses
        if key in self._mem:
            params, cached_cfg = self._mem[key]
            return params, cached_cfg, None
        self.pretrain_runs += 1
        params, losses = run_pretrain(data, cfg, pcfg)
        params = as_stored(params)
        self._mem[key] = (params, cfg)
        return params, cfg, losses
