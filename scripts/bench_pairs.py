"""Paired benchmark runs of a parent commit against the checkout.

    python3 scripts/bench_pairs.py --parent REF --workload W --pairs N \
        --seconds S [--seed FIRST]

Extracts `git archive REF` into a temporary directory and runs
`bench/run.py --trace 0` there and in the checkout, N pairs of S-second runs,
pair i with seed FIRST + i, alternating which tree runs first. Prints each
pair's end-to-end metrics, then for each metric the median and quartiles of
both trees and in how many pairs the checkout's value was lower. The
end-to-end metrics are those the checkout's BENCHMARK.json names; nothing
under bench/ is changed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True,
                    choices=["pretrain", "tune-node", "tune-graph"])
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    return args


def extract(ref: str, dest: Path) -> None:
    """The files of revision `ref` of this repository, written under `dest`."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                         capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in `tree`: its result line, checked to be correct."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"bench in {tree}, seed {seed}: run not correct "
                           f"({result['failed']} of {result['attempted']} calls failed)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(pairs: list[tuple[dict, dict]], names: list[str]) -> list[str]:
    """One line per metric: each tree's median and quartiles over the pairs,
    and in how many pairs the checkout's value was below the parent's."""
    lines = []
    for name in names:
        parent = [p[name] for p, _c in pairs]
        change = [c[name] for _p, c in pairs]
        lower = sum(c < p for p, c in zip(parent, change))
        (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
        lines.append(f"{name}: parent {median(parent):.6g} [{p1:.6g}, {p3:.6g}]  "
                     f"change {median(change):.6g} [{c1:.6g}, {c3:.6g}]  "
                     f"lower in {lower} of {len(pairs)}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        extract(args.parent, parent_tree)
        for i in range(args.pairs):
            seed = args.seed + i
            trees = [("parent", parent_tree), ("change", ROOT)]
            if i % 2:
                trees.reverse()
            got = {label: bench(tree, args.workload, seed, args.seconds)
                   for label, tree in trees}
            pairs.append((got["parent"], got["change"]))
            values = "  ".join(f"{n} {got['parent'][n]:.6g}/{got['change'][n]:.6g}"
                               for n in names)
            print(f"pair {i + 1} seed {seed} ({trees[0][0]} first): {values}",
                  flush=True)
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s, parent "
          f"{args.parent} / checkout: median [quartiles]")
    for line in summary(pairs, names):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
