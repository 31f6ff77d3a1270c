import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopprompt import graphstore as gs
from hopprompt.errors import DatasetError
from hopprompt.numcore import Tensor


@pytest.fixture
def small_graph():
    return gs.Graph(
        num_nodes=3,
        edges=gs.canonical_edges([(0, 1), (1, 2)], 3),
        features=Tensor([[1.0, 0.5], [0.25, -1.0], [0.125, 2.0]]),
        labels=np.array([0, 1, -1]),
        num_classes=2,
    )


def test_node_roundtrip(tmp_path, small_graph):
    gs.save_dataset(small_graph, tmp_path / "ds", name="sample")
    loaded = gs.load_dataset(tmp_path / "ds")
    assert isinstance(loaded, gs.Graph)
    assert loaded.num_nodes == 3
    np.testing.assert_array_equal(loaded.edges, small_graph.edges)
    np.testing.assert_array_equal(loaded.features.data, small_graph.features.data)
    np.testing.assert_array_equal(loaded.labels, small_graph.labels)


def test_graph_task_roundtrip(tmp_path):
    base = gs.random_labeled_graph(12, 20, 2, 3, seed=0)
    task = gs.build_graph_task(base, hops=1)
    gs.save_dataset(task, tmp_path / "ds", name="egos")
    loaded = gs.load_dataset(tmp_path / "ds")
    assert isinstance(loaded, gs.GraphSet)
    assert len(loaded) == len(task)
    for a, b in zip(loaded.graphs, task.graphs):
        assert a.graph_label == b.graph_label
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(a.features.data, b.features.data)


_FEATURE = st.floats(allow_nan=False, allow_infinity=False)


def _draw_graph(draw, n, width, num_classes, labelled):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    feats = draw(st.lists(st.lists(_FEATURE, min_size=width, max_size=width),
                          min_size=n, max_size=n))
    labels = (np.array(draw(st.lists(st.integers(-1, num_classes - 1),
                                     min_size=n, max_size=n)))
              if labelled else None)
    return gs.Graph(num_nodes=n, edges=gs.canonical_edges(edges, n),
                    features=Tensor(feats), labels=labels, num_classes=num_classes,
                    graph_label=None if labelled
                    else draw(st.integers(0, num_classes - 1)))


@st.composite
def node_graphs(draw):
    """Up to 8 nodes: any edge subset (none, or leaving nodes isolated) and
    labels that may be -1."""
    return _draw_graph(draw, draw(st.integers(1, 8)), draw(st.integers(1, 3)),
                       draw(st.integers(1, 3)), labelled=True)


@st.composite
def graph_sets(draw):
    """1-4 members of 1-4 nodes each, single-node and edgeless ones among
    them."""
    width, num_classes = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    members = [_draw_graph(draw, draw(st.integers(1, 4)), width, num_classes,
                           labelled=False)
               for _ in range(draw(st.integers(1, 4)))]
    return gs.GraphSet(graphs=members, num_classes=num_classes)


def _roundtrip(data):
    with tempfile.TemporaryDirectory() as tmp:
        gs.save_dataset(data, Path(tmp) / "ds", name="prop")
        return gs.load_dataset(Path(tmp) / "ds")


def _assert_same_graph(a, b):
    assert (a.num_nodes, a.num_classes, a.graph_label) == (b.num_nodes, b.num_classes,
                                                           b.graph_label)
    assert a.edges.shape == b.edges.shape and np.array_equal(a.edges, b.edges)
    assert a.features.data.tobytes() == b.features.data.tobytes()
    assert (a.labels is None) == (b.labels is None)
    if a.labels is not None:
        assert np.array_equal(a.labels, b.labels)


@given(graph=node_graphs())
@example(graph=gs.Graph(num_nodes=3, edges=np.zeros((0, 2), dtype=np.int64),
                        features=Tensor([[0.0], [-0.0], [5e-324]]),
                        labels=np.array([-1, -1, 0]), num_classes=1))
@settings(max_examples=60, deadline=None)
def test_node_roundtrip_property(graph):
    loaded = _roundtrip(graph)
    assert isinstance(loaded, gs.Graph)
    _assert_same_graph(loaded, graph)


@given(items=graph_sets())
@example(items=gs.GraphSet(graphs=[
    gs.Graph(num_nodes=1, edges=np.zeros((0, 2), dtype=np.int64),
             features=Tensor([[1.5, -2.0]]), labels=None, num_classes=2, graph_label=1),
    gs.Graph(num_nodes=3, edges=np.zeros((0, 2), dtype=np.int64),
             features=Tensor(np.ones((3, 2))), labels=None, num_classes=2, graph_label=0),
], num_classes=2))
@settings(max_examples=60, deadline=None)
def test_graph_task_roundtrip_property(items):
    loaded = _roundtrip(items)
    assert isinstance(loaded, gs.GraphSet)
    assert loaded.num_classes == items.num_classes
    assert len(loaded.graphs) == len(items.graphs)
    for a, b in zip(loaded.graphs, items.graphs):
        _assert_same_graph(a, b)


def _write_valid(tmp_path):
    g = gs.Graph(
        num_nodes=3,
        edges=gs.canonical_edges([(0, 1)], 3),
        features=Tensor(np.ones((3, 2))),
        labels=np.array([0, 1, 0]),
        num_classes=2,
    )
    gs.save_dataset(g, tmp_path / "ds", name="sample")
    return tmp_path / "ds"


def test_feature_row_count_mismatch(tmp_path):
    d = _write_valid(tmp_path)
    (d / "features.csv").write_text("1.0,2.0\n3.0,4.0\n")  # only 2 rows for N=3
    with pytest.raises(DatasetError, match="num_nodes"):
        gs.load_dataset(d)


@pytest.mark.filterwarnings("error::UserWarning")  # np.loadtxt's "no data"
@pytest.mark.parametrize("text", ["", "\n \n", "# a comment\n"],
                         ids=["empty", "blank", "comment"])
def test_feature_file_without_rows(tmp_path, text):
    d = _write_valid(tmp_path)
    (d / "features.csv").write_text(text)
    with pytest.raises(DatasetError, match="features.csv: 0 rows but meta num_nodes=3"):
        gs.load_dataset(d)


@pytest.mark.filterwarnings("error::UserWarning")
@pytest.mark.parametrize("features", ["", "1.0,2.0\n"], ids=["no-rows", "one-row"])
def test_node_task_needs_a_node(tmp_path, features):
    d = _write_valid(tmp_path)
    meta = json.loads((d / "meta.json").read_text())
    meta["num_nodes"] = 0
    (d / "meta.json").write_text(json.dumps(meta))
    for name, text in (("edges.tsv", ""), ("labels.csv", ""), ("features.csv", features)):
        (d / name).write_text(text)
    with pytest.raises(DatasetError, match="meta.json: a node task needs num_nodes >= 1"):
        gs.load_dataset(d)


@pytest.mark.parametrize("text, where", [
    ("1.0,2.0\n3.0,x\n5.0,6.0\n", r"features.csv:2: non-numeric feature value 'x'"),
    ("1.0,2.0\n\n3.0,4.0\n5.0\n", r"features.csv:4: 1 values, line 1 has 2"),
], ids=["bad-token", "short-row"])
def test_feature_parse_failure_names_the_line(tmp_path, text, where):
    d = _write_valid(tmp_path)
    (d / "features.csv").write_text(text)
    with pytest.raises(DatasetError, match=where):
        gs.load_dataset(d)


def test_missing_file(tmp_path):
    d = _write_valid(tmp_path)
    (d / "labels.csv").unlink()
    with pytest.raises(DatasetError, match="missing"):
        gs.load_dataset(d)


def test_label_out_of_range(tmp_path):
    d = _write_valid(tmp_path)
    (d / "labels.csv").write_text("0\n1\n7\n")
    with pytest.raises(DatasetError, match="labels.csv:3"):
        gs.load_dataset(d)


def test_unsorted_edges_rejected(tmp_path):
    d = _write_valid(tmp_path)
    (d / "edges.tsv").write_text("1\t2\n0\t1\n")
    with pytest.raises(DatasetError, match="sorted"):
        gs.load_dataset(d)


def test_self_loop_rejected(tmp_path):
    d = _write_valid(tmp_path)
    (d / "edges.tsv").write_text("1\t1\n")
    with pytest.raises(DatasetError, match="u < v"):
        gs.load_dataset(d)


def test_bad_meta_task(tmp_path):
    d = _write_valid(tmp_path)
    meta = json.loads((d / "meta.json").read_text())
    meta["task"] = "edge"
    (d / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match="task"):
        gs.load_dataset(d)


@pytest.mark.parametrize("value", ["x", None, 1.5, True, -1],
                         ids=["string", "null", "float", "bool", "negative"])
def test_meta_count_must_be_a_json_integer(tmp_path, value):
    d = _write_valid(tmp_path)
    meta = json.loads((d / "meta.json").read_text())
    meta["num_features"] = value
    (d / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DatasetError,
                       match="num_features must be a non-negative integer"):
        gs.load_dataset(d)


@pytest.mark.parametrize("task", ["node", "graph"])
def test_meta_zero_features_refused_before_any_data_file(tmp_path, task):
    # three nodes, each a features line without values, which is skipped as
    # blank: the width is named, not the row count
    d = tmp_path / "ds"
    d.mkdir()
    (d / "meta.json").write_text(json.dumps({
        "name": "zero", "num_nodes": 3, "num_features": 0, "num_classes": 2,
        "task": task}))
    with pytest.raises(DatasetError, match="num_features must be >= 1, got 0"):
        gs.load_dataset(d)  # no data file exists yet
    (d / "edges.tsv").write_text("0\t1\n1\t2\n")
    (d / "features.csv").write_text("\n\n\n")
    (d / "labels.csv").write_text("0\n1\n0\n")
    (d / "graphs.jsonl").write_text(json.dumps(
        {"edges": [[0, 1], [1, 2]], "features": [[], [], []], "label": 0}) + "\n")
    with pytest.raises(DatasetError, match="num_features must be >= 1, got 0"):
        gs.load_dataset(d)


@pytest.mark.parametrize("value", [[1, 2], "x", 7, None],
                         ids=["list", "string", "number", "null"])
def test_meta_must_be_a_json_object(tmp_path, value):
    d = _write_valid(tmp_path)
    (d / "meta.json").write_text(json.dumps(value))
    with pytest.raises(DatasetError, match="meta.json: expected a JSON object"):
        gs.load_dataset(d)


def test_graph_task_total_nodes_validated(tmp_path):
    base = gs.random_labeled_graph(6, 8, 2, 3, seed=1)
    task = gs.build_graph_task(base, hops=0)
    gs.save_dataset(task, tmp_path / "ds", name="egos")
    meta = json.loads((tmp_path / "ds" / "meta.json").read_text())
    meta["num_nodes"] = 999
    (tmp_path / "ds" / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match="total nodes"):
        gs.load_dataset(tmp_path / "ds")


_GOOD_ITEM = {"edges": [[0, 1]], "features": [[1.0, 2.0], [3.0, 4.0]], "label": 0}


@pytest.mark.parametrize("line, message", [
    (json.dumps({**_GOOD_ITEM, "edges": [["a", 1]]}), "integer edge endpoints"),
    (json.dumps({**_GOOD_ITEM, "edges": [[0.5, 1]]}), "integer edge endpoints"),
    (json.dumps({**_GOOD_ITEM, "edges": [0, 1, 1]}), r"\[u, v\] pairs"),
    (json.dumps({**_GOOD_ITEM, "edges": [[1, 1]]}), "self-loop"),
    (json.dumps({**_GOOD_ITEM, "edges": [[0, 1], [1, 0]]}), "duplicate edges"),
    (json.dumps({**_GOOD_ITEM, "edges": [[0, 2]]}), r"outside \[0, 2\)"),
    (json.dumps({**_GOOD_ITEM, "features": [["a", 1.0], [3.0, 4.0]]}), "numeric features"),
    (json.dumps({**_GOOD_ITEM, "features": [[1.0, 2.0], [3.0]]}), "numeric features"),
    (json.dumps({**_GOOD_ITEM, "features": [[float("nan"), 2.0], [3.0, 4.0]]}),
     "non-finite feature"),
    (json.dumps({**_GOOD_ITEM, "label": "x"}), "label 'x' is not an integer"),
    (json.dumps({**_GOOD_ITEM, "label": None}), "label None is not an integer"),
    (json.dumps([1, 2]), "expected a JSON object"),
], ids=["string-endpoint", "fractional-endpoint", "odd-length-edges", "self-loop",
        "duplicate", "endpoint-range", "string-feature", "ragged-features",
        "nan-feature", "string-label", "null-label", "not-an-object"])
def test_graph_task_malformed_item_names_the_line(tmp_path, line, message):
    d = tmp_path / "ds"
    d.mkdir()
    (d / "meta.json").write_text(json.dumps({
        "name": "items", "num_nodes": 4, "num_features": 2, "num_classes": 2,
        "task": "graph"}))
    (d / "graphs.jsonl").write_text(json.dumps(_GOOD_ITEM) + "\n" + line + "\n")
    with pytest.raises(DatasetError, match=rf"graphs.jsonl:2: .*{message}"):
        gs.load_dataset(d)
