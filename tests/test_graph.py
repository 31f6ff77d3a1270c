import numpy as np
import pytest

from hopprompt import graphstore as gs
from hopprompt.errors import ParameterError, SplitError, StructuralError
from hopprompt.numcore import Tensor

from tests._oracles import densify


def make_graph(num_nodes, edges, labels=None, num_classes=2, feature_dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return gs.Graph(
        num_nodes=num_nodes,
        edges=gs.canonical_edges(edges, num_nodes),
        features=Tensor(rng.standard_normal((num_nodes, feature_dim))),
        labels=None if labels is None else np.asarray(labels, dtype=np.int64),
        num_classes=num_classes,
    )


def star_graph(leaves=4):
    # center 0 labeled 0, leaves labeled 1
    edges = [(0, i) for i in range(1, leaves + 1)]
    return make_graph(leaves + 1, edges, labels=[0] + [1] * leaves)


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(StructuralError):
            gs.canonical_edges([(1, 1)], 3)

    def test_rejects_out_of_range_label(self):
        with pytest.raises(StructuralError):
            make_graph(2, [(0, 1)], labels=[0, 5])

    def test_rejects_unsorted_edges(self):
        with pytest.raises(StructuralError):
            gs.Graph(num_nodes=3, edges=np.array([[1, 2], [0, 1]]),
                     features=Tensor(np.zeros((3, 1))), labels=None, num_classes=2)

    def test_neighbor_lists(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        offsets, targets = g.neighbors()
        np.testing.assert_array_equal(np.sort(targets[offsets[1]:offsets[2]]), [0, 2])
        np.testing.assert_array_equal(np.diff(offsets), [1, 2, 1])


class TestNormalizeAdjacency:
    def test_single_node(self):
        g = make_graph(1, [])
        adj = gs.normalize_adjacency(g)
        np.testing.assert_array_equal(densify(adj), [[1.0]])

    def test_two_nodes_one_edge(self):
        g = make_graph(2, [(0, 1)])
        adj = gs.normalize_adjacency(g)
        np.testing.assert_allclose(densify(adj), np.full((2, 2), 0.5), atol=1e-15)

    def test_symmetric(self):
        g = gs.random_labeled_graph(30, 80, 3, 4, seed=1)
        dense = densify(gs.normalize_adjacency(g))
        assert np.abs(dense - dense.T).max() < 1e-12

    def test_isolated_node_gets_self_loop(self):
        g = make_graph(3, [(0, 1)])
        dense = densify(gs.normalize_adjacency(g))
        assert dense[2, 2] == 1.0


class TestHomophily:
    def test_all_same_label(self):
        g = make_graph(3, [(0, 1), (1, 2)], labels=[0, 0, 0])
        assert gs.homophily_ratio(g) == 1.0

    def test_half(self):
        g = make_graph(3, [(0, 1), (1, 2)], labels=[0, 0, 1])
        assert gs.homophily_ratio(g) == 0.5

    def test_no_edges_is_undefined(self):
        g = make_graph(2, [], labels=[0, 1])
        with pytest.raises(StructuralError):
            gs.homophily_ratio(g)

    def test_unlabeled_endpoints_excluded(self):
        g = make_graph(3, [(0, 1), (1, 2)], labels=[0, 0, -1])
        assert gs.homophily_ratio(g) == 1.0


class TestLocalHopHomophily:
    def test_star_k1_center(self):
        vals, defined = gs.local_hop_homophily(star_graph(), 1)
        assert defined[0]
        assert vals[0] == 0.0

    def test_star_k2_leaves(self):
        vals, defined = gs.local_hop_homophily(star_graph(), 2)
        # each leaf's 2-ring is the other leaves, all label 1
        assert defined[1:].all()
        np.testing.assert_array_equal(vals[1:], 1.0)
        assert not defined[0]  # center has an empty 2-ring

    def test_triangle_same_label(self):
        g = make_graph(3, [(0, 1), (0, 2), (1, 2)], labels=[0, 0, 0])
        vals, defined = gs.local_hop_homophily(g, 1)
        assert defined.all()
        np.testing.assert_array_equal(vals, 1.0)

    def test_k_below_one_rejected(self):
        with pytest.raises(ParameterError):
            gs.local_hop_homophily(star_graph(), 0)

    def test_k1_aggregate_matches_global_ratio(self):
        # edge-wise aggregation of the 1-hop measure reproduces the global ratio
        g = gs.random_labeled_graph(120, 500, 4, 4, seed=3)
        vals, defined = gs.local_hop_homophily(g, 1)
        deg = np.diff(g.neighbors()[0])
        assert defined.all()
        aggregated = float((vals * deg).sum() / deg.sum())
        assert abs(aggregated - gs.homophily_ratio(g)) < 0.05


class TestKshotSplit:
    def test_counts(self):
        g = make_graph(10, [(0, 1)], labels=[0, 1] * 5)
        split = gs.kshot_split(g, 1, seed=7)
        assert len(split.train_ids) == 2
        assert len(split.test_ids) == 8
        assert np.intersect1d(split.train_ids, split.test_ids).size == 0

    def test_deterministic(self):
        g = make_graph(10, [(0, 1)], labels=[0, 1] * 5)
        a = gs.kshot_split(g, 3, seed=42)
        b = gs.kshot_split(g, 3, seed=42)
        np.testing.assert_array_equal(a.train_ids, b.train_ids)
        np.testing.assert_array_equal(a.test_ids, b.test_ids)

    def test_empty_class_rejected(self):
        g = make_graph(4, [(0, 1)], labels=[0, 0, 0, 0], num_classes=2)
        with pytest.raises(SplitError):
            gs.kshot_split(g, 1, seed=0)

    def test_short_class_takes_all_with_warning(self):
        g = make_graph(5, [(0, 1)], labels=[0, 0, 0, 0, 1])
        with pytest.warns(UserWarning):
            split = gs.kshot_split(g, 2, seed=0)
        assert len(split.train_ids) == 3  # 2 from class 0, all 1 from class 1

    def test_unlabeled_never_sampled(self):
        g = make_graph(6, [(0, 1)], labels=[0, 1, -1, -1, 0, 1])
        split = gs.kshot_split(g, 1, seed=0)
        assert set(split.train_ids) | set(split.test_ids) == {0, 1, 4, 5}

    def test_no_test_items_rejected(self):
        # k items of each class are all its labeled items
        g = make_graph(6, [(0, 1)], labels=[0, 1, -1, -1, 0, 1])
        with pytest.raises(SplitError, match="no test items"):
            gs.kshot_split(g, 2, seed=0)

    def test_bundled_fixture_with_all_items_in_train_rejected(self):
        web = gs.load_dataset("datasets/web-tiny")
        with pytest.warns(UserWarning), pytest.raises(SplitError, match="no test items"):
            gs.kshot_split(web, 20, seed=0)


class TestFractionSplit:
    def test_half_split(self):
        g = make_graph(20, [(0, 1)], labels=[0, 1] * 10)
        split = gs.fraction_split(g, 0.5, seed=0)
        assert len(split.train_ids) == 10
        assert len(split.test_ids) == 10


class TestEgoNetwork:
    def test_zero_hops(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        sub, center = gs.ego_network(g, 2, 0)
        assert sub.num_nodes == 1
        assert center == 0
        assert sub.num_edges == 0

    def test_path_one_hop(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        sub, center = gs.ego_network(g, 0, 1)
        assert sub.num_nodes == 2
        assert sub.num_edges == 1
        assert center == 0

    def test_full_component_when_hops_exceed_diameter(self):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3)])  # node 4 isolated
        sub, _ = gs.ego_network(g, 0, 10)
        assert sub.num_nodes == 4
        assert sub.num_edges == 3

    def test_never_contains_far_nodes(self):
        # brute-force BFS oracle over a random graph
        g = gs.random_labeled_graph(40, 70, 3, 4, seed=9)
        for v in [0, 7, 23]:
            for hops in [1, 2]:
                dist = _bfs_oracle(g, v)
                sub, center = gs.ego_network(g, v, hops)
                want = sorted(u for u in range(g.num_nodes)
                              if dist[u] is not None and dist[u] <= hops)
                got = sorted(_original_ids(g, sub))
                assert got == want
                assert got[center] == v


def _bfs_oracle(g, source):
    offsets, targets = g.neighbors()
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in targets[offsets[u]:offsets[u + 1]]:
                if int(w) not in dist:
                    dist[int(w)] = dist[u] + 1
                    nxt.append(int(w))
        frontier = nxt
    return [dist.get(u) for u in range(g.num_nodes)]


def _original_ids(g, sub):
    # recover original ids by matching feature rows (features are unique noise)
    ids = []
    for row in sub.features.data:
        matches = np.flatnonzero((np.abs(g.features.data - row) < 1e-12).all(axis=1))
        assert matches.size == 1
        ids.append(int(matches[0]))
    return ids


class TestBuildGraphTask:
    def test_zero_hop_gives_singletons(self):
        g = make_graph(6, [(0, 1), (2, 3)], labels=[0, 1, 0, 1, 0, 1])
        task = gs.build_graph_task(g, hops=0)
        assert len(task) == 6
        assert all(item.num_nodes == 1 for item in task.graphs)

    def test_labels_in_range(self):
        g = gs.random_labeled_graph(25, 60, 3, 4, seed=5)
        task = gs.build_graph_task(g, hops=2)
        assert len(task) == 25
        assert all(0 <= item.graph_label < 3 for item in task.graphs)


class TestDisjointUnion:
    @pytest.mark.parametrize("order,first", [("aawa", 2), ("awwa", 1), ("aw", 1)])
    def test_feature_widths_must_agree(self, order, first):
        # named as GraphSet names it, not numpy's bare ValueError
        a = make_graph(3, [(0, 1)], labels=[0, 1, 0])
        w = make_graph(2, [(0, 1)], labels=[1, 1], feature_dim=a.num_features + 1)
        graphs = [{"a": a, "w": w}[c] for c in order]
        want = rf"graph {first} feature width {a.num_features + 1} != {a.num_features}"
        with pytest.raises(StructuralError, match=want):
            gs.disjoint_union(graphs)
        with pytest.raises(StructuralError, match=want):
            gs.graph_batch(graphs)

    def test_counts_and_offsets(self):
        a = make_graph(3, [(0, 1)], labels=[0, 1, 0])
        b = make_graph(2, [(0, 1)], labels=[1, 1])
        u = gs.disjoint_union([a, b])
        assert u.num_nodes == 5
        assert u.num_edges == 2
        assert (u.edges[1] == [3, 4]).all()
        np.testing.assert_array_equal(u.labels, [0, 1, 0, 1, 1])
