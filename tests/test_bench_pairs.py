"""`scripts/bench_pairs.py`'s summary: each tree's median and quartiles of
every metric over the pairs, and in how many pairs the checkout was lower."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_reads_medians_quartiles_and_lower_pairs(bench_pairs):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 3.0, 4.0]
    pairs = [({"round_s": p}, {"round_s": c}) for p, c in zip(parent, change)]
    assert bench_pairs.summary(pairs, ["round_s"]) == [
        "round_s: parent 3 [2, 4]  change 2.5 [2, 3]  lower in 4 of 5"]


def test_one_pair_has_its_value_for_quartiles(bench_pairs):
    pairs = [({"setup_s": 0.25}, {"setup_s": 0.25})]
    assert bench_pairs.summary(pairs, ["setup_s"]) == [
        "setup_s: parent 0.25 [0.25, 0.25]  change 0.25 [0.25, 0.25]  lower in 0 of 1"]


def test_pairs_must_be_positive(bench_pairs):
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--parent", "HEAD", "--workload", "pretrain",
                                "--pairs", "0", "--seconds", "1"])
