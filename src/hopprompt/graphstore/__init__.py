"""Graph data model, ingestion, homophily measurement, splits, and synthesis."""

from .graph import (
    Graph,
    GraphBatch,
    GraphSet,
    SplitSpec,
    bfs_distances,
    build_graph_task,
    canonical_edges,
    disjoint_union,
    ego_network,
    fraction_split,
    graph_batch,
    homophily_ratio,
    kshot_split,
    local_hop_homophily,
    normalize_adjacency,
)
from .io import load_dataset, save_dataset
from .synth import REWIRE_TOLERANCE, random_labeled_graph, synth_rewire

__all__ = [
    "Graph",
    "GraphBatch",
    "GraphSet",
    "REWIRE_TOLERANCE",
    "SplitSpec",
    "bfs_distances",
    "build_graph_task",
    "canonical_edges",
    "disjoint_union",
    "ego_network",
    "fraction_split",
    "graph_batch",
    "homophily_ratio",
    "kshot_split",
    "load_dataset",
    "local_hop_homophily",
    "normalize_adjacency",
    "random_labeled_graph",
    "save_dataset",
    "synth_rewire",
]
