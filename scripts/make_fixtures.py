#!/usr/bin/env python3
"""Regenerate the bundled fixture datasets.

    python3 scripts/make_fixtures.py [OUT_DIR]

OUT_DIR defaults to the repository's datasets/. Deterministic: fixed seeds,
so a rerun reproduces the committed files byte for byte, and
`diff -r OUT_DIR datasets` checks that it does.
"""

import sys
from pathlib import Path

from hopprompt import graphstore as gs

DATASETS = Path(__file__).resolve().parent.parent / "datasets"


def main(root=DATASETS):
    root = Path(root)
    base = gs.random_labeled_graph(
        num_nodes=600, num_edges=3000, num_classes=5, feature_dim=64,
        seed=20240601, class_sep=1.0, noise=1.0,
    )
    for target, name in [(0.10, "syn-h10"), (0.90, "syn-h90")]:
        rewired = gs.synth_rewire(base, target, seed=7)
        gs.save_dataset(rewired, root / name, name=name)
        print(f"{name}: h={gs.homophily_ratio(rewired):.4f} "
              f"({rewired.num_nodes} nodes, {rewired.num_edges} edges)")

    tiny = gs.random_labeled_graph(
        num_nodes=40, num_edges=90, num_classes=3, feature_dim=16,
        seed=20240602, class_sep=1.2, noise=1.0,
    )
    gs.save_dataset(tiny, root / "web-tiny", name="web-tiny")
    print(f"web-tiny: h={gs.homophily_ratio(tiny):.4f}")

    ego_base = gs.random_labeled_graph(
        num_nodes=60, num_edges=150, num_classes=3, feature_dim=16,
        seed=20240603, class_sep=1.2, noise=1.0,
    )
    task = gs.build_graph_task(ego_base, hops=1)
    gs.save_dataset(task, root / "ego-tiny", name="ego-tiny")
    sizes = [g.num_nodes for g in task.graphs]
    print(f"ego-tiny: {len(task)} graphs, avg {sum(sizes) / len(sizes):.1f} nodes")


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    main(*sys.argv[1:])
