"""Spans around the package's layer functions, recorded from outside.

Each traced function is replaced at every binding a `hopprompt` module looks
it up under (for example `encoder_forward` is bound separately in `pretrain`,
`prompt` and `harness.baselines`), so calls made inside the package are seen
without any change to the package itself. Spans are kept in memory as
[name, start, end, parent] and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median


def _matmul_flops(args, kwargs, result):
    a, b = args[0], args[1]
    return {"numcore.matmul.flops": 2 * a.rows * a.cols * b.cols}


def _spmm_flops(args, kwargs, result):
    s, d = args[0], args[1]
    return {"numcore.spmm.flops": 2 * s.nnz * d.cols}


def _triplet_count(args, kwargs, result):
    return {"pretrain.build_triplets.triplets": len(result)}


def _cache_outcome(args, kwargs, result):
    # get_or_pretrain returns losses only when it had to pre-train
    hit = result[2] is None
    return {"harness.cache.hits": int(hit), "harness.cache.misses": int(not hit)}


# (span name, module, attribute, counter) for every traced function; the span
# name is "<layer>.<function>", the layer being the package's module
TARGETS = [
    ("graphstore.load_dataset", "hopprompt.graphstore", "load_dataset", None),
    ("graphstore.normalize_adjacency", "hopprompt.graphstore",
     "normalize_adjacency", None),
    ("numcore.matmul", "hopprompt.numcore", "matmul", _matmul_flops),
    ("numcore.spmm", "hopprompt.numcore", "spmm", _spmm_flops),
    ("numcore.scatter_rows", "hopprompt.numcore", "scatter_rows", None),
    ("numcore.gather_rows", "hopprompt.numcore", "gather_rows", None),
    ("numcore.row_cosine_sim", "hopprompt.numcore", "row_cosine_sim", None),
    ("numcore.rowwise_cosine_sim", "hopprompt.numcore", "rowwise_cosine_sim", None),
    ("numcore.softmax_nll", "hopprompt.numcore", "softmax_nll", None),
    ("numcore.backward", "hopprompt.numcore", "backward", None),
    ("numcore.adam_step", "hopprompt.numcore", "adam_step", None),
    ("encoder.encoder_forward", "hopprompt.encoder", "encoder_forward", None),
    ("encoder.edge_subset_positions", "hopprompt.encoder",
     "edge_subset_positions", None),
    ("encoder.checkpoint_save", "hopprompt.encoder", "checkpoint_save", None),
    ("encoder.checkpoint_load", "hopprompt.encoder", "checkpoint_load", None),
    ("pretrain.run_pretrain", "hopprompt.pretrain", "run_pretrain", None),
    ("pretrain.build_triplets", "hopprompt.pretrain", "build_triplets",
     _triplet_count),
    ("pretrain.pretrain_loss", "hopprompt.pretrain", "pretrain_loss", None),
    ("prompt.run_prompt_tune", "hopprompt.prompt", "run_prompt_tune", None),
    ("prompt.graph_tokens", "hopprompt.prompt", "graph_tokens", None),
    ("prompt.anchors_from_matrices", "hopprompt.prompt",
     "anchors_from_matrices", None),
    ("harness.run_experiment", "hopprompt.harness", "run_experiment", None),
    ("harness.get_or_pretrain", "hopprompt.harness",
     "CheckpointCache.get_or_pretrain", _cache_outcome),
    ("harness.train_finetune_lp", "hopprompt.harness", "train_finetune_lp", None),
    ("harness.train_scratch_gcn", "hopprompt.harness", "train_scratch_gcn", None),
]

SPAN_NAMES = [name for name, *_ in TARGETS]
# spans measured per set-up rather than per round: rounds never load data
SETUP_SPANS = {"graphstore.load_dataset"}
# counters the wrapped functions add, computed from their arguments and results
COUNTERS = {
    "numcore.matmul.flops": "flop",
    "numcore.spmm.flops": "flop",
    "pretrain.build_triplets.triplets": "count",
    "harness.cache.hits": "count",
    "harness.cache.misses": "count",
}


class Tracer:
    """In-memory span recorder; `install` swaps in the wrappers, `remove`
    puts the originals back."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))  # per root span
        self._stack: list[int] = []
        self._root = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def root(self, name: str):
        """A top-level span (a set-up or a round) that later spans nest under."""
        idx = self._open(name)
        self._root = idx
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                bucket = tracer.counts[tracer._root]
                for key, value in counter(args, kwargs, result).items():
                    bucket[key] += value
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hopprompt" or n.startswith("hopprompt.")]
        for name, module_name, attr, counter in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:  # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def per_root(self, root_name: str) -> list[dict[str, float]]:
        """For each root span called `root_name`: calls, seconds and self
        seconds per span name beneath it, plus that root's counters."""
        n = len(self.spans)
        root_of = [0] * n
        child_time = [0.0] * n
        for i, (_name, start, end, parent) in enumerate(self.spans):
            root_of[i] = i if parent < 0 else root_of[parent]
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[int, dict[str, float]] = {
            i: defaultdict(float) for i, span in enumerate(self.spans)
            if span[3] < 0 and span[0] == root_name
        }
        for i, (name, start, end, parent) in enumerate(self.spans):
            bucket = totals.get(root_of[i])
            if bucket is None or parent < 0:
                continue
            bucket[f"{name}.calls"] += 1
            bucket[f"{name}.s"] += end - start
            bucket[f"{name}.self_s"] += (end - start) - child_time[i]
        for i, bucket in totals.items():
            for key, value in self.counts.get(i, {}).items():
                bucket[key] += value
        return list(totals.values())

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: [name, start, end, parent index]."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(per_setup: list[dict[str, float]],
                  per_round: list[dict[str, float]]) -> dict[str, tuple[float, str, int]]:
    """Medians of every span and counter metric over rounds (over set-ups for
    SETUP_SPANS), zero where a function never ran; returns
    {name: (value, unit, samples)}."""
    out = {}
    for span in SPAN_NAMES:
        samples = per_setup if span in SETUP_SPANS else per_round
        for suffix, unit in (("calls", "count"), ("s", "s"), ("self_s", "s")):
            key = f"{span}.{suffix}"
            out[key] = (median(r.get(key, 0.0) for r in samples), unit, len(samples))
    for key, unit in COUNTERS.items():
        out[key] = (median(r.get(key, 0.0) for r in per_round), unit, len(per_round))
    return out
