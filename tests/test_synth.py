import numpy as np
import pytest

from hopprompt import graphstore as gs
from hopprompt.errors import ParameterError, RewireInfeasibleError
from hopprompt.numcore import Tensor


@pytest.fixture(scope="module")
def base_graph():
    return gs.random_labeled_graph(300, 1500, 5, 8, seed=11)


class TestRandomLabeledGraph:
    def test_counts_and_balance(self, base_graph):
        assert base_graph.num_nodes == 300
        assert base_graph.num_edges == 1500
        counts = np.bincount(base_graph.labels, minlength=5)
        assert counts.min() == counts.max() == 60

    def test_deterministic(self):
        a = gs.random_labeled_graph(50, 120, 3, 4, seed=2)
        b = gs.random_labeled_graph(50, 120, 3, 4, seed=2)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(a.features.data, b.features.data)


class TestSynthRewire:
    def test_reaches_strong_homophily(self, base_graph):
        out = gs.synth_rewire(base_graph, 0.9, seed=0)
        assert abs(gs.homophily_ratio(out) - 0.9) <= gs.REWIRE_TOLERANCE

    def test_reaches_strong_heterophily(self, base_graph):
        out = gs.synth_rewire(base_graph, 0.1, seed=0)
        assert abs(gs.homophily_ratio(out) - 0.1) <= gs.REWIRE_TOLERANCE

    def test_target_equal_to_current(self, base_graph):
        h = gs.homophily_ratio(base_graph)
        out = gs.synth_rewire(base_graph, h, seed=3)
        assert abs(gs.homophily_ratio(out) - h) <= gs.REWIRE_TOLERANCE

    def test_preserves_structure_statistics(self, base_graph):
        out = gs.synth_rewire(base_graph, 0.7, seed=1)
        assert out.num_edges == base_graph.num_edges
        np.testing.assert_array_equal(np.diff(out.neighbors()[0]),
                                      np.diff(base_graph.neighbors()[0]))
        np.testing.assert_array_equal(out.labels, base_graph.labels)
        assert out.features is base_graph.features

    def test_deterministic_per_seed(self, base_graph):
        a = gs.synth_rewire(base_graph, 0.5, seed=4)
        b = gs.synth_rewire(base_graph, 0.5, seed=4)
        np.testing.assert_array_equal(a.edges, b.edges)

    def test_infeasible_target_reports_range(self):
        # every node has a distinct label: no intra-class edge can ever exist
        g = gs.Graph(
            num_nodes=4,
            edges=gs.canonical_edges([(0, 1), (1, 2), (2, 3), (0, 3)], 4),
            features=Tensor(np.eye(4)),
            labels=np.array([0, 1, 2, 3]),
            num_classes=4,
        )
        with pytest.raises(RewireInfeasibleError) as exc:
            gs.synth_rewire(g, 0.9, seed=0)
        assert exc.value.achieved_range[1] < 0.1

    def test_rejects_bad_target(self, base_graph):
        with pytest.raises(ParameterError):
            gs.synth_rewire(base_graph, 0.0, seed=0)
        with pytest.raises(ParameterError):
            gs.synth_rewire(base_graph, 1.0, seed=0)

    @pytest.mark.parametrize("target", [0.2, 0.5, 0.8])
    def test_tolerance_band_on_larger_graph(self, target):
        g = gs.random_labeled_graph(200, 900, 4, 4, seed=6)
        out = gs.synth_rewire(g, target, seed=7)
        assert abs(gs.homophily_ratio(out) - target) <= gs.REWIRE_TOLERANCE
