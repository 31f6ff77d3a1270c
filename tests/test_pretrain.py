import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopprompt.encoder as enc
import hopprompt.pretrain as pt
from hopprompt import graphstore as gs
from hopprompt import numcore as nc
from hopprompt.errors import (
    DegenerateRowError,
    DivergenceError,
    ParameterError,
    PretrainInfeasibleError,
)

from tests._oracles import assert_grads_close, finite_diff, reference_triplets

DATASETS = Path(__file__).resolve().parents[1] / "datasets"


def path_graph():
    return gs.Graph(
        num_nodes=3,
        edges=gs.canonical_edges([(0, 1), (1, 2)], 3),
        features=nc.Tensor(np.eye(3)),
        labels=np.array([0, 1, 0]),
        num_classes=2,
    )


class TestBuildTriplets:
    def test_complete_graph_infeasible(self):
        k3 = gs.Graph(
            num_nodes=3,
            edges=gs.canonical_edges([(0, 1), (0, 2), (1, 2)], 3),
            features=nc.Tensor(np.eye(3)),
            labels=None,
            num_classes=2,
        )
        with pytest.warns(UserWarning):
            with pytest.raises(PretrainInfeasibleError):
                pt.build_triplets(k3, 1, seed=0)

    def test_no_edges_infeasible(self):
        g = gs.Graph(num_nodes=3, edges=np.zeros((0, 2), dtype=np.int64),
                     features=nc.Tensor(np.eye(3)), labels=None, num_classes=2)
        with pytest.raises(PretrainInfeasibleError):
            pt.build_triplets(g, 1, seed=0)

    def test_path_endpoint_forced_choice(self):
        trips = pt.build_triplets(path_graph(), 1, seed=5)
        for v, a, b in zip(trips.v, trips.a, trips.b):
            if v == 0:
                assert a == 1 and b == 2
            if v == 2:
                assert a == 1 and b == 0

    def test_middle_node_skipped_on_path(self):
        # node 1 neighbors everyone, so it has no negative
        with pytest.warns(UserWarning, match="skipped"):
            trips = pt.build_triplets(path_graph(), 1, seed=0)
        assert set(trips.v.tolist()) == {0, 2}

    def test_deterministic(self):
        g = gs.random_labeled_graph(30, 60, 3, 4, seed=1)
        first, second = pt.build_triplets(g, 2, seed=9), pt.build_triplets(g, 2, seed=9)
        for col in "vab":
            assert np.array_equal(getattr(first, col), getattr(second, col))

    def test_invariants(self):
        g = gs.random_labeled_graph(30, 60, 3, 4, seed=2)
        edge_set = {(int(u), int(v)) for u, v in g.edges}
        trips = pt.build_triplets(g, 2, seed=3)
        for v, a, b in zip(trips.v.tolist(), trips.a.tolist(), trips.b.tolist()):
            assert (min(v, a), max(v, a)) in edge_set
            assert (min(v, b), max(v, b)) not in edge_set
            assert v != b


def _sample(sampler, g, k, seed):
    """(triplets as arrays, or None if infeasible; warning messages) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = sampler(g, k, seed)
        except PretrainInfeasibleError:
            result = None
    return result, [str(w.message) for w in caught]


def _assert_same_draws(g, k, seed):
    ref, ref_warnings = _sample(reference_triplets, g, k, seed)
    got, got_warnings = _sample(pt.build_triplets, g, k, seed)
    assert got_warnings == ref_warnings
    if ref is None:
        assert got is None
        return
    for col in "vab":
        assert getattr(got, col).dtype == np.int64
        assert np.array_equal(getattr(got, col), getattr(ref, col)), col


@st.composite
def sampler_graphs(draw):
    """Small graphs mixing isolated nodes, a hub adjacent to every other
    node (skipped: no negative) and star graphs."""
    n = draw(st.integers(2, 24))
    kind = draw(st.sampled_from(["random", "hub", "star"]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "star":
        centre = draw(st.integers(0, n - 1))
        edges = [(min(centre, v), max(centre, v)) for v in range(n) if v != centre]
    else:
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [p for p, k in zip(pairs, keep) if k]
        isolated = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
        edges = [(u, v) for u, v in edges if u not in isolated and v not in isolated]
        if kind == "hub":
            hub = draw(st.integers(0, n - 1))
            edges += [(min(hub, v), max(hub, v)) for v in range(n) if v != hub]
    return gs.Graph(num_nodes=n, edges=gs.canonical_edges(edges, n),
                    features=nc.Tensor(np.ones((n, 1))), labels=None, num_classes=2)


class TestSamplerMatchesReferenceLoop:
    """The array sampler must consume the generator exactly as the per-node
    loop does; every seeded loss curve and checkpoint depends on it."""

    @pytest.mark.parametrize("name", ["syn-h10", "syn-h90", "web-tiny", "ego-tiny"])
    def test_bundled_fixtures(self, name):
        data = gs.load_dataset(DATASETS / name)
        g = gs.disjoint_union(data.graphs) if isinstance(data, gs.GraphSet) else data
        for k in (1, 2, 3):
            for seed in (0, 1, 17, 2024):
                _assert_same_draws(g, k, seed)

    @given(g=sampler_graphs(), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_generated_graphs(self, g, k, seed):
        _assert_same_draws(g, k, seed)


class TestTriplets:
    def test_row_selection(self):
        g = gs.random_labeled_graph(12, 24, 2, 4, seed=4)
        trips = pt.build_triplets(g, 2, seed=1)
        rows = np.array([3, 0, 3, 5])
        picked = trips[rows]
        assert len(picked) == 4
        assert np.array_equal(picked.b, trips.b[rows])


class TestPretrainLoss:
    def _loss_for_sims(self, sim_pos, sim_neg, tau):
        # direct scalar evaluation of the two-way contrastive objective
        return -math.log(
            math.exp(sim_pos / tau)
            / (math.exp(sim_pos / tau) + math.exp(sim_neg / tau))
        )

    def test_symmetric_similarities_give_ln2(self):
        assert self._loss_for_sims(0.4, 0.4, 1.0) == pytest.approx(math.log(2))
        # engineered embeddings: positive and negative equally similar
        stack, adj, trips = self._engineered(pos_equal=True)
        loss = pt.pretrain_loss(stack, adj, trips, tau=1.0)
        assert loss.item() == pytest.approx(math.log(2), abs=1e-9)

    def test_unit_vs_orthogonal(self):
        assert self._loss_for_sims(1.0, 0.0, 1.0) == pytest.approx(
            math.log(1 + math.exp(-1)))
        stack, adj, trips = self._engineered(pos_equal=False)
        loss = pt.pretrain_loss(stack, adj, trips, tau=1.0)
        assert loss.item() == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-9)

    def test_small_tau_sharpens(self):
        sharp = self._loss_for_sims(1.0, 0.0, 0.1)
        assert sharp == pytest.approx(math.log(1 + math.exp(-10)), abs=1e-12)
        assert sharp < self._loss_for_sims(1.0, 0.0, 1.0)
        stack, adj, trips = self._engineered(pos_equal=False)
        loss = pt.pretrain_loss(stack, adj, trips, tau=0.1)
        assert loss.item() == pytest.approx(math.log(1 + math.exp(-10)), abs=1e-9)

    def _engineered(self, pos_equal: bool):
        # identity adjacency so s = H(L); rows: v=[1,0], a=[1,0] or [0,1]...
        n = 3
        adj = nc.SparseMatrix((n, n), np.arange(n + 1), np.arange(n), np.ones(n))
        if pos_equal:
            rows = [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]  # sim(v,a) == sim(v,b)
        else:
            rows = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]  # sim 1 vs sim 0
        h = nc.Tensor(rows)
        one = pt.Triplets(v=np.array([0]), a=np.array([1]), b=np.array([2]))
        return [h], adj, one

    def test_scale_invariance(self):
        g = gs.random_labeled_graph(12, 24, 2, 4, seed=4)
        adj = gs.normalize_adjacency(g)
        rng = np.random.default_rng(0)
        h = rng.standard_normal((12, 6))
        trips = pt.build_triplets(g, 1, seed=1)
        base = pt.pretrain_loss([nc.Tensor(h)], adj, trips, 0.5)
        scaled = pt.pretrain_loss([nc.Tensor(3.7 * h)], adj, trips, 0.5)
        assert abs(base.item() - scaled.item()) < 1e-9

    def test_nonnegative_and_ln2_floor_property(self):
        # per-triplet loss >= 0, equals ln 2 iff similarities tie
        g = gs.random_labeled_graph(10, 20, 2, 4, seed=5)
        adj = gs.normalize_adjacency(g)
        rng = np.random.default_rng(1)
        for _ in range(10):
            h = nc.Tensor(rng.standard_normal((10, 5)))
            trips = pt.build_triplets(g, 1, seed=int(rng.integers(1000)))
            loss = pt.pretrain_loss([h], adj, trips, 1.0)
            assert loss.item() >= 0.0

    def test_gradient_wrt_w0(self):
        g = gs.random_labeled_graph(6, 9, 2, 4, seed=6)
        adj = gs.normalize_adjacency(g)
        cfg = enc.EncoderConfig(layers=2, dims=[4, 5, 5])
        rng = np.random.default_rng(2)
        params = enc.init_encoder(cfg, rng)
        trips = pt.build_triplets(g, 1, seed=7)

        def forward():
            stack = enc.encoder_forward(adj, g.features, cfg, params)
            return pt.pretrain_loss(stack, adj, trips, tau=0.5)

        grads = nc.backward(forward())
        for i, w in enumerate([params.layers[0].w0, params.layers[1].w0,
                               params.w_in]):
            fd = finite_diff(lambda: forward().item(), [w])[0]
            assert_grads_close(grads.get(w), fd, label=f"pretrain dW{i}")


class TestRunPretrain:
    def test_loss_decreases(self):
        g = gs.random_labeled_graph(40, 120, 3, 6, seed=7, class_sep=1.5)
        cfg = enc.EncoderConfig(layers=2, dims=[6, 16, 16])
        pcfg = pt.PretrainConfig(epochs=25, batch_size=64, lr=1e-2, seed=0)
        _params, losses = pt.run_pretrain(g, cfg, pcfg)
        assert losses[-1][1] < losses[0][1]

    def test_bitwise_deterministic_checkpoints(self, tmp_path):
        g = gs.random_labeled_graph(20, 50, 2, 5, seed=8)
        cfg = enc.EncoderConfig(layers=1, dims=[5, 8])
        pcfg = pt.PretrainConfig(epochs=5, batch_size=32, lr=1e-3, seed=3)
        pt.run_pretrain(g, cfg, pcfg, out_path=tmp_path / "a.dagp")
        pt.run_pretrain(g, cfg, pcfg, out_path=tmp_path / "b.dagp")
        assert (tmp_path / "a.dagp").read_bytes() == (tmp_path / "b.dagp").read_bytes()
        assert (tmp_path / "a.dagp.losses.csv").exists()

    def test_connected_pairs_end_up_closer(self):
        g0 = gs.random_labeled_graph(60, 240, 3, 8, seed=9, class_sep=1.5)
        g = gs.synth_rewire(g0, 0.85, seed=0)
        cfg = enc.EncoderConfig(layers=2, dims=[8, 16, 16])
        pcfg = pt.PretrainConfig(epochs=40, batch_size=256, lr=1e-2, seed=1)
        params, _losses = pt.run_pretrain(g, cfg, pcfg)
        adj = gs.normalize_adjacency(g)
        stack = enc.encoder_forward(adj, g.features, cfg, params)
        s = nc.spmm(adj, stack[-1]).data
        s = s / np.linalg.norm(s, axis=1, keepdims=True)
        rng = np.random.default_rng(2)
        connected = np.mean([s[u] @ s[v] for u, v in g.edges])
        edge_set = {(int(u), int(v)) for u, v in g.edges}
        rand_sims = []
        while len(rand_sims) < g.num_edges:
            u, v = rng.integers(0, g.num_nodes, 2)
            if u != v and (min(u, v), max(u, v)) not in edge_set:
                rand_sims.append(s[u] @ s[v])
        assert connected > np.mean(rand_sims)

    def test_reference_sampler_gives_identical_run(self, monkeypatch):
        data = gs.load_dataset(DATASETS / "syn-h10")
        cfg = enc.EncoderConfig(layers=2, dims=[data.num_features, 32, 32])
        pcfg = pt.PretrainConfig(epochs=3, batch_size=1024, tau=0.5, lr=1e-3,
                                 negatives=2, seed=11)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params, losses = pt.run_pretrain(data, cfg, pcfg)
            monkeypatch.setattr(pt, "build_triplets", reference_triplets)
            ref_params, ref_losses = pt.run_pretrain(data, cfg, pcfg)
        assert np.array_equal(np.array(losses), np.array(ref_losses))
        pairs = [(params.w_in, ref_params.w_in)] + [
            (lp.w0, ref.w0) for lp, ref in zip(params.layers, ref_params.layers)]
        for mine, theirs in pairs:
            assert np.array_equal(mine.data, theirs.data)

    def test_feature_width_mismatch(self):
        g = gs.random_labeled_graph(10, 20, 2, 4, seed=10)
        cfg = enc.EncoderConfig(layers=1, dims=[7, 8])
        with pytest.raises(ParameterError):
            pt.run_pretrain(g, cfg, pt.PretrainConfig(epochs=1))

    def test_zero_feature_component_is_a_divergence(self):
        # two triangles, the second with all-zero features: its embeddings
        # are zero rows, which no cosine can score
        rng = np.random.default_rng(12)
        features = np.vstack([rng.standard_normal((3, 4)), np.zeros((3, 4))])
        g = gs.Graph(num_nodes=6,
                     edges=gs.canonical_edges([(0, 1), (1, 2), (0, 2),
                                               (3, 4), (4, 5), (3, 5)], 6),
                     features=nc.Tensor(features), labels=None, num_classes=2)
        cfg = enc.EncoderConfig(layers=2, dims=[4, 8, 8])
        pcfg = pt.PretrainConfig(epochs=3, batch_size=4, lr=2e-3, seed=0)
        with pytest.raises(DivergenceError, match="pre-training diverged") as info:
            pt.run_pretrain(g, cfg, pcfg)
        assert (info.value.epoch, info.value.lr) == (0, 2e-3)
        assert isinstance(info.value.__cause__, DegenerateRowError)
