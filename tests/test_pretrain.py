import math
import re
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
    DimensionError,
    DivergenceError,
    NumericError,
    ParameterError,
    PretrainInfeasibleError,
)

from tests._oracles import (
    assert_grads_close,
    dense_triplet_grad,
    finite_diff,
    reference_pretrain,
    reference_triplets,
    scale,
    unfused_triplet_nll,
)

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
            stack = enc.encoder_forward(enc.forward_start(adj, g.features, params))
            return pt.pretrain_loss(stack, adj, trips, tau=0.5)

        grads = nc.backward(forward())
        for i, w in enumerate([params.layers[0].w0, params.layers[1].w0,
                               params.w_in]):
            fd = finite_diff(lambda: forward().item(), [w])[0]
            assert_grads_close(grads.get(w), fd, label=f"pretrain dW{i}")


def _loss_and_grad(loss_of, s_data, v, a, b, tau, upstream=1.0):
    """(loss bytes, d/ds) of `loss_of` on a fresh leaf holding s_data;
    `upstream` scales the loss before the sweep."""
    s = nc.Tensor(s_data, requires_grad=True)
    loss = loss_of(s, v, a, b, tau)
    grads = nc.backward(scale(loss, upstream))
    return loss.data.tobytes(), grads.get(s)


# d/ds of the fused op is one sparse product, the chain's a sum of scatters:
# they agree to rounding, bounded relative to the gradient's largest entry
# (an elementwise rtol would fail where the chain cancels to exactly 0)
GRAD_BOUND = 1e-13


def _assert_grad_close(got, want, scale=None):
    scale = np.abs(want).max() if scale is None else scale
    err = np.abs(got - want).max()
    assert err <= GRAD_BOUND * scale, f"max gap {err:.3e}, scale {scale:.3e}"


def _embeddings(name):
    """(graph, s) for a bundled dataset: s = adj @ H(L) of a fresh encoder."""
    data = gs.load_dataset(DATASETS / name)
    g = gs.disjoint_union(data.graphs) if isinstance(data, gs.GraphSet) else data
    cfg = enc.EncoderConfig(layers=2, dims=[g.num_features, 16, 16])
    params = enc.init_encoder(cfg, np.random.default_rng(3))
    adj = gs.normalize_adjacency(g)
    stack = enc.encoder_forward(enc.forward_start(adj, g.features, params))
    return g, nc.spmm(adj, stack[-1]).data


@st.composite
def triplet_instances(draw):
    """Random graphs, their sampled triplets cut to a batch, and random
    embeddings s, narrow or wide enough that `triplet_nll` splits the batch
    into several row blocks."""
    n = draw(st.integers(3, 30))
    m = draw(st.integers(1, n * (n - 1) // 2 - 1))
    g = gs.random_labeled_graph(n, m, 2, 3, seed=draw(st.integers(0, 2**16)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trips = pt.build_triplets(g, draw(st.integers(1, 3)),
                                  seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    batch = trips[rng.permutation(len(trips))[:draw(st.integers(1, 64))]]
    width = draw(st.one_of(st.integers(1, 8), st.integers(150, 700)))
    s = rng.standard_normal((n, width)) * draw(st.sampled_from([1e-3, 1.0, 40.0]))
    return s, batch


def _bundled_batch(name, batch_size, negatives):
    """(s, batch) of one bundled cell: a seeded batch of a dataset's triplets
    over a fresh encoder's embeddings."""
    g, s = _embeddings(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trips = pt.build_triplets(g, negatives, seed=5)
    batch = trips[np.random.default_rng(6).permutation(len(trips))[:batch_size]]
    if len(batch) > g.num_nodes:  # a batch wider than the graph repeats rows
        for idx in (batch.a, batch.b):
            assert np.unique(idx).size < idx.size
    return s, batch


BUNDLED_CELLS = pytest.mark.parametrize("name, batch_size, negatives", [
    (name, batch_size, negatives) for name in ["syn-h10", "ego-tiny", "web-tiny"]
    for batch_size in [16, 64, 1024] for negatives in [1, 2, 3]],
    ids=str)


class TestTripletNll:
    """`numcore.triplet_nll` is stage one's loss as one tape node. Its loss
    must be bit for bit the unfused chain's; its d/ds, one sparse product,
    must agree with the chain's backward and with a per-triplet dense loop
    within 1e-13 of the gradient's largest entry, and be the same bytes on
    every run."""

    @BUNDLED_CELLS
    def test_equals_unfused_chain_bitwise(self, name, batch_size, negatives):
        s, batch = _bundled_batch(name, batch_size, negatives)
        args = (s, batch.v, batch.a, batch.b, 0.5)
        assert _loss_and_grad(nc.triplet_nll, *args)[0] == \
            _loss_and_grad(unfused_triplet_nll, *args)[0]

    @BUNDLED_CELLS
    def test_grad_matches_unfused_chain_and_dense_loop(self, name, batch_size,
                                                       negatives):
        s, batch = _bundled_batch(name, batch_size, negatives)
        args = (s, batch.v, batch.a, batch.b, 0.5)
        _, grad = _loss_and_grad(nc.triplet_nll, *args)
        _, chain = _loss_and_grad(unfused_triplet_nll, *args)
        _assert_grad_close(grad, chain)
        _assert_grad_close(grad, dense_triplet_grad(*args))

    @given(instance=triplet_instances(), tau=st.sampled_from([0.05, 0.5, 2.0]),
           upstream=st.sampled_from([1.0, -0.3, 7.0]))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs_equal_unfused_chain(self, instance, tau, upstream):
        s, batch = instance
        args = (s, batch.v, batch.a, batch.b, tau)
        loss, grad = _loss_and_grad(nc.triplet_nll, *args, upstream=upstream)
        chain_loss, chain = _loss_and_grad(unfused_triplet_nll, *args,
                                           upstream=upstream)
        assert loss == chain_loss
        # no term of d/ds exceeds |upstream| / (n tau min|s_r|); at width 1
        # every cosine is +-1, so d/ds is all rounding and needs that scale
        norms = np.linalg.norm(s[np.concatenate([batch.v, batch.a, batch.b])], axis=1)
        terms = abs(upstream) / (len(batch) * tau * norms.min())
        _assert_grad_close(grad, chain, max(np.abs(chain).max(), terms))

    def test_finite_differences_with_repeated_indices(self):
        s = nc.Tensor(np.random.default_rng(4).standard_normal((5, 3)),
                      requires_grad=True)
        v = np.array([0, 0, 1, 2, 2, 4, 0])
        a = np.array([1, 1, 0, 3, 3, 3, 1])
        b = np.array([4, 2, 4, 0, 1, 1, 4])
        for tau in (0.05, 0.5, 2.0):
            for upstream in (1.0, -2.5):
                def loss():
                    return scale(nc.triplet_nll(s, v, a, b, tau), upstream)

                grad = nc.backward(loss()).get(s)
                fd = finite_diff(lambda: loss().item(), [s])[0]
                assert_grads_close(
                    grad, fd, label=f"triplet_nll ds, tau {tau}, upstream {upstream}")

    def test_node_in_every_role(self):
        # node 0 is the anchor, the positive and the negative of different
        # triplets, and node 1 both a positive and a negative
        s = np.random.default_rng(8).standard_normal((4, 3))
        v, a, b = np.array([0, 1, 2, 3]), np.array([1, 0, 3, 0]), np.array([2, 3, 0, 1])
        args = (s, v, a, b, 0.5)
        loss, grad = _loss_and_grad(nc.triplet_nll, *args)
        chain_loss, chain = _loss_and_grad(unfused_triplet_nll, *args)
        assert loss == chain_loss
        _assert_grad_close(grad, chain)
        _assert_grad_close(grad, dense_triplet_grad(*args))
        leaf = nc.Tensor(s, requires_grad=True)
        fd = finite_diff(lambda: nc.triplet_nll(leaf, v, a, b, 0.5).item(), [leaf])[0]
        assert_grads_close(grad, fd, label="triplet_nll ds, node in every role")

    def test_vjp_is_the_same_bytes_every_time(self):
        s, batch = _bundled_batch("syn-h10", 1024, 3)
        loss = nc.triplet_nll(nc.Tensor(s, requires_grad=True), batch.v,
                              batch.a, batch.b, 0.5)
        g = np.array([[0.7]])
        (first,), (second,) = loss._vjp(g), loss._vjp(g)
        assert first.tobytes() == second.tobytes()
        args = (s, batch.v, batch.a, batch.b, 0.5)
        assert _loss_and_grad(nc.triplet_nll, *args)[1].tobytes() == \
            _loss_and_grad(nc.triplet_nll, *args)[1].tobytes()

    def test_one_tape_node_whose_only_parent_is_s(self):
        g, s_data = _embeddings("web-tiny")
        trips = pt.build_triplets(g, 2, seed=1)
        s = nc.Tensor(s_data, requires_grad=True)
        loss = nc.triplet_nll(s, trips.v, trips.a, trips.b, 0.5)
        assert loss.shape == (1, 1)
        assert len(loss._parents) == 1 and loss._parents[0] is s

    def test_vjp_holds_no_gathered_rows(self):
        g, s_data = _embeddings("syn-h10")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trips = pt.build_triplets(g, 3, seed=2)
        n, d = len(trips), s_data.shape[1]
        s = nc.Tensor(s_data, requires_grad=True)
        loss = nc.triplet_nll(s, trips.v, trips.a, trips.b, 0.5)
        held = [c.cell_contents for c in loss._vjp.__closure__]
        arrays = [x for x in held if isinstance(x, np.ndarray) and x is not s.data]
        assert arrays, "the VJP should keep its index and per-triplet arrays"
        for arr in arrays:
            # s's own rows are on the tape already; gathered (n, d) rows are not
            assert not (arr.ndim == 2 and arr.shape[1] == d), arr.shape
            assert arr.shape[0] == n

    def test_pretrain_loss_is_the_fused_node(self):
        g = gs.random_labeled_graph(12, 24, 2, 4, seed=4)
        adj = gs.normalize_adjacency(g)
        h = nc.Tensor(np.random.default_rng(0).standard_normal((12, 6)),
                      requires_grad=True)
        trips = pt.build_triplets(g, 2, seed=1)
        loss = pt.pretrain_loss([h], adj, trips, 0.5)
        (s,) = loss._parents
        assert s._parents == (h,)
        expected = nc.triplet_nll(nc.spmm(adj, h), trips.v, trips.a, trips.b, 0.5)
        assert loss.data.tobytes() == expected.data.tobytes()

    S = np.arange(1.0, 16.0).reshape(5, 3)
    V, A, B = np.array([0, 1, 2]), np.array([1, 2, 1]), np.array([4, 4, 0])

    @pytest.mark.parametrize("tau", [0.0, -0.5])
    def test_bad_tau(self, tau):
        with pytest.raises(ParameterError, match="triplet_nll: tau must be > 0"):
            nc.triplet_nll(nc.Tensor(self.S), self.V, self.A, self.B, tau)

    @pytest.mark.parametrize("v, a, b, match", [
        (np.array([[0, 1, 2]]), A, B, "anchor index must be 1-D"),
        (V, A, np.array(4), "negative index must be 1-D"),
        (V, A[:2], B, "equally many .* got 3, 2, 3"),
        (V, A, np.array([4, 4, 0, 1]), "equally many .* got 3, 3, 4"),
        (V[:0], A[:0], B[:0], "at least one, got 0"),
        (V, np.array([1, -1, 1]), B, "positive index out of range for 5 rows"),
        (V, A, np.array([4, 5, 0]), "negative index out of range for 5 rows"),
        (np.array([0, 9, 2]), A, B, "anchor index out of range"),
    ])
    def test_bad_indices(self, v, a, b, match):
        with pytest.raises(DimensionError, match=match):
            nc.triplet_nll(nc.Tensor(self.S), v, a, b, 0.5)

    @pytest.mark.parametrize("role", ["anchor", "positive", "negative"])
    def test_degenerate_row_names_node_and_role(self, role):
        s = self.S.copy()
        s[3] = 0.0
        idx = {"anchor": (np.array([0, 1, 3]), self.A, self.B),
               "positive": (self.V, np.array([1, 2, 3]), self.B),
               "negative": (self.V, self.A, np.array([4, 4, 3]))}[role]
        # node 3 sits in batch row 2, so the message must name the node
        with pytest.raises(DegenerateRowError,
                           match=f"triplet_nll: {role} node 3 has norm 0.000e"):
            nc.triplet_nll(nc.Tensor(s), *idx, 0.5)

    def test_non_finite_output_names_the_op(self):
        # scores / tau overflow, so the max-shifted logits are inf - inf
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match=r"triplet_nll: non-finite .*\(1, 1\)"):
            nc.triplet_nll(nc.Tensor(self.S), self.V, self.A, self.B, 1e-320)

    def test_zero_row_in_no_triplet_is_not_checked(self):
        # norms are taken of every row at once, but only the rows a triplet
        # reads must be non-degenerate; node 3 is in none
        s = self.S.copy()
        s[3] = 0.0
        args = (s, self.V, self.A, self.B, 0.5)
        assert _loss_and_grad(nc.triplet_nll, *args)[0] == \
            _loss_and_grad(unfused_triplet_nll, *args)[0]

    def test_column_major_rows_give_the_same_loss(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((5, 37))
        args = (self.V, self.A, self.B, 0.5)
        loss = nc.triplet_nll(nc.Tensor(s), *args).data
        fortran = nc.triplet_nll(nc.Tensor(np.asfortranarray(s)), *args).data
        assert loss.tobytes() == fortran.tobytes()


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
        stack = enc.encoder_forward(enc.forward_start(adj, g.features, params))
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
        cause = info.value.__cause__
        assert isinstance(cause, DegenerateRowError)
        # the message names the zero-featured node, not a row of the batch
        named = re.search(r"(anchor|positive|negative) node (\d+)", str(cause))
        assert named is not None, str(cause)
        assert int(named.group(2)) in {3, 4, 5}


class TestSharedTrainingLoop:
    """Stage one trains through the shared `numcore.fit` as the mini-batch
    loop it replaced did: the same batches and epochs exactly, and, since
    the fused d/ds differs from the unfused chain's by rounding, losses
    within 1e-13 relative and weights within 1e-12 of each matrix's largest
    entry."""

    @pytest.mark.parametrize("name, batch_size, full_batches, last", [
        ("syn-h10", 64, 9, 23),    # 599 triplets
        ("ego-tiny", 64, 5, 40),   # the disjoint union of its graphs
        ("web-tiny", 16, 2, 8),
    ])
    def test_equals_reference_loop(self, monkeypatch, name, batch_size,
                                   full_batches, last):
        data = gs.load_dataset(DATASETS / name)
        width = (data.graphs[0] if isinstance(data, gs.GraphSet) else data).num_features
        cfg = enc.EncoderConfig(layers=2, dims=[width, 16, 16])
        pcfg = pt.PretrainConfig(epochs=3, batch_size=batch_size, lr=5e-3,
                                 weight_decay=1e-4, seed=7)
        real_loss, batch_sizes = pt.pretrain_loss, []

        def pretrain_loss(stack, adj, triplets, tau):
            batch_sizes.append(len(triplets))
            return real_loss(stack, adj, triplets, tau)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref_params, ref_losses = reference_pretrain(data, cfg, pcfg)
            monkeypatch.setattr(pt, "pretrain_loss", pretrain_loss)
            params, losses = pt.run_pretrain(data, cfg, pcfg)
        assert batch_sizes == ([batch_size] * full_batches + [last]) * 3
        assert [e for e, _ in losses] == [e for e, _ in ref_losses] == [0, 1, 2]
        got, want = (np.array([v for _, v in run]) for run in (losses, ref_losses))
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        pairs = [(params.w_in, ref_params.w_in)] + [
            (lp.w0, ref.w0) for lp, ref in zip(params.layers, ref_params.layers)]
        for mine, theirs in pairs:
            gap = np.abs(mine.data - theirs.data).max()
            assert gap <= 1e-12 * np.abs(theirs.data).max(), gap

    def test_trains_through_fit_without_patience(self, monkeypatch):
        calls, real_fit = [], pt.fit

        def fit(steps, trainables, **kwargs):
            calls.append(kwargs)
            return real_fit(steps, trainables, **kwargs)

        monkeypatch.setattr(pt, "fit", fit)
        g = gs.random_labeled_graph(20, 50, 2, 5, seed=8)
        cfg = enc.EncoderConfig(layers=1, dims=[5, 8])
        pt.run_pretrain(g, cfg, pt.PretrainConfig(epochs=4, batch_size=8, seed=3))
        assert len(calls) == 1
        assert calls[0]["patience"] is None and calls[0]["epochs"] == 4
        assert calls[0]["what"] == "pre-training"

    @pytest.mark.parametrize("layers", [1, 3])
    def test_a_step_makes_l_sparse_products(self, monkeypatch, layers):
        """A X is built once per call, so a step of an L-layer encoder makes
        L sparse products (L - 1 layers plus the loss's), not L + 1."""
        calls, steps = [], []
        real_spmm, real_loss = nc.spmm, pt.pretrain_loss

        def spmm(s, d, *args, **kwargs):
            calls.append(d.requires_grad)
            return real_spmm(s, d, *args, **kwargs)

        def pretrain_loss(*args):
            steps.append(len(calls))
            return real_loss(*args)

        monkeypatch.setattr(enc, "spmm", spmm)
        monkeypatch.setattr(pt, "spmm", spmm)
        monkeypatch.setattr(pt, "pretrain_loss", pretrain_loss)
        g = gs.random_labeled_graph(20, 50, 2, 5, seed=8)
        cfg = enc.EncoderConfig(layers=layers, dims=[5] + [8] * layers)
        pt.run_pretrain(g, cfg, pt.PretrainConfig(epochs=2, batch_size=8, seed=3))
        assert len(steps) == 2 * math.ceil(20 / 8)
        # the one untracked product is A X, made before the first step
        assert calls.count(False) == 1 and not calls[0]
        assert len(calls) == 1 + len(steps) * layers
        # each step's encoder forward makes L - 1, its loss one more
        assert steps == [1 + i * layers + layers - 1 for i in range(len(steps))]
