import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopprompt.encoder as enc
from hopprompt import graphstore as gs
from hopprompt import numcore as nc
from hopprompt.errors import (
    CheckpointError,
    ContractError,
    DimensionError,
    ParameterError,
    StructuralError,
)

from tests._oracles import (
    add,
    assert_grads_close,
    densify,
    finite_diff,
    glora_param_count,
    h0_first_forward,
    lowrank_chain,
    override_spmm,
    reference_edge_subset_positions,
    resigned,
    unfactored_forward,
    version_one,
    vstack,
)

DATASETS = Path(__file__).resolve().parents[1] / "datasets"


def small_setup(seed=0, n=6, f=5, d=8, layers=2):
    rng = np.random.default_rng(seed)
    g = gs.random_labeled_graph(n, min(2 * n, n * (n - 1) // 2), 2, f, seed=seed)
    adj = gs.normalize_adjacency(g)
    cfg = enc.EncoderConfig(layers=layers, dims=[f] + [d] * layers)
    params = enc.init_encoder(cfg, rng)
    return g, adj, cfg, params, rng


def forward(adj, x, params, ids=None):
    """The encoder's one forward: planned and started by `forward_start`."""
    return enc.encoder_forward(enc.forward_start(adj, x, params, ids))


def dense_reference(adj, x, params, relu_interior=True):
    """Dense numpy re-implementation of the forward pass (oracle)."""
    a = densify(adj)
    h = x @ params.w_in.data
    out = [h]
    for l, lp in enumerate(params.layers):
        w = lp.w0.data.copy()
        if lp.p is not None:
            w = w + lp.p.data @ lp.q.data.T
        a_eff = a.copy()
        if lp.pa is not None:
            a_eff = a_eff + lp.pa.data @ lp.qa.data.T
        h = a_eff @ h @ w
        if relu_interior and l < len(params.layers) - 1:
            h = np.maximum(h, 0.0)
        out.append(h)
    return out


def scatter_edge_subset_forward(adj, x, params):
    """edge_subset forward over all nnz: stored values plus both mirrored
    halves of the edge weights scattered into place and the adjacency
    rebuilt from them, each layer then agg W0 + (agg P) Q^T (oracle)."""
    base = nc.Tensor(adj.values[:, None])
    slots = np.concatenate([params.edge_positions[:, 0], params.edge_positions[:, 1]])
    h = nc.matmul(x, params.w_in)
    out = [h]
    for l, lp in enumerate(params.layers):
        doubled = vstack([lp.edge_weights, lp.edge_weights])
        values = add(base, nc.scatter_rows(doubled, slots, adj.nnz))
        agg = override_spmm(adj, h, values, np.arange(adj.nnz))
        h = lowrank_chain(agg, lp.w0, lp.p, lp.q)
        if l < len(params.layers) - 1:
            h = nc.relu(h)
        out.append(h)
    return out


class TestEncoderConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            enc.EncoderConfig(layers=0, dims=[4])
        with pytest.raises(ParameterError):
            enc.EncoderConfig(layers=2, dims=[4, 8, 16])  # unequal hidden

    def test_json_roundtrip(self):
        cfg = enc.EncoderConfig(layers=2, dims=[10, 16, 16])
        again = enc.EncoderConfig.from_json(cfg.to_json())
        assert again == cfg


class TestForward:
    def test_matches_dense_oracle(self):
        g, adj, cfg, params, _ = small_setup(seed=1)
        params = enc.own_base(params, trainable=False)
        stack = forward(adj, g.features, params)
        ref = dense_reference(adj, g.features.data, params)
        assert len(stack) == cfg.layers + 1
        for ours, theirs in zip(stack, ref):
            assert np.abs(ours.data - theirs).max() < 1e-10

    def test_one_layer_identity_pieces(self):
        # identity adjacency and identity W0: final layer output equals H0
        f = 4
        cfg = enc.EncoderConfig(layers=1, dims=[f, f])
        rng = np.random.default_rng(2)
        params = enc.EncoderParams(
            w_in=nc.Tensor(np.eye(f)),
            layers=[enc.LayerParams(w0=nc.Tensor(np.eye(f)))],
        )
        adj = nc.SparseMatrix((f, f), np.arange(f + 1), np.arange(f), np.ones(f))
        x = nc.Tensor(rng.standard_normal((f, f)))
        stack = forward(adj, x, params)
        np.testing.assert_allclose(stack[1].data, stack[0].data, atol=1e-15)
        np.testing.assert_allclose(stack[0].data, x.data, atol=1e-15)

    def test_zero_init_glora_is_exact_identity(self):
        g, adj, _, params, rng = small_setup(seed=3)
        params = enc.own_base(params, trainable=False)
        frozen = forward(adj, g.features, params)
        adapted_params = enc.attach_glora(params, "full", 3, rng, num_nodes=g.num_nodes)
        adapted = forward(adj, g.features, adapted_params)
        for a, b in zip(frozen, adapted):
            assert np.abs(a.data - b.data).max() < 1e-12

    def test_edge_subset_zero_init_identity(self):
        g, adj, _, params, rng = small_setup(seed=4)
        params = enc.own_base(params, trainable=False)
        frozen = forward(adj, g.features, params)
        pos = enc.edge_subset_positions(adj, [0, 1])
        adapted_params = enc.attach_glora(params, "edge_subset", 3, rng, edge_positions=pos)
        adapted = forward(adj, g.features, adapted_params)
        for a, b in zip(frozen, adapted):
            assert np.abs(a.data - b.data).max() < 1e-12

    def test_edge_subset_only_touches_selected_edges(self):
        g, adj, _, params, rng = small_setup(seed=6, n=8)
        train_ids = [0, 1]
        pos = enc.edge_subset_positions(adj, train_ids)
        adapted = enc.attach_glora(params, "edge_subset", 2, rng, edge_positions=pos)
        for lp in adapted.layers:
            lp.edge_weights.data = (lp.edge_weights.data + 0.37
                                    + 0.1 * rng.standard_normal(lp.edge_weights.shape))
            lp.q.data = rng.standard_normal(lp.q.shape)
        # effective adjacency values must differ from base exactly on the
        # selected slots
        base = nc.Tensor(adj.values[:, None])
        doubled = vstack([adapted.layers[0].edge_weights] * 2)
        slots = np.concatenate([pos[:, 0], pos[:, 1]])
        eff = add(base, nc.scatter_rows(doubled, slots, adj.nnz)).data[:, 0]
        changed = np.flatnonzero(eff != adj.values)
        assert sorted(changed.tolist()) == sorted(set(slots.tolist()))
        train = set(train_ids)
        rows = adj.nnz_rows()
        for k in changed:
            u, v = int(rows[k]), int(adj.col_indices[k])
            assert u != v and (u in train or v in train)

        # that all-nnz scatter construction, the adjacency rebuilt, is the
        # oracle for the k-entry update of the frozen aggregation: its
        # outputs and gradients agree to rounding, within 1e-13 of each
        # array's largest entry
        def loss_of(stack):
            return nc.softmax_nll(stack[-1], g.labels, tau=0.5)

        def assert_close(a, b):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

        # the frozen base starts layer 0 from A H(0) W0 and adds the edges'
        # update to it
        params = enc.own_base(adapted, trainable=False)
        ours = forward(adj, g.features, params)
        oracle = scatter_edge_subset_forward(adj, g.features, params)
        for a, b in zip(ours, oracle):
            assert_close(a.data, b.data)
        got, want = nc.backward(loss_of(ours)), nc.backward(loss_of(oracle))
        for t in params.adapters():
            assert_close(got.get(t), want.get(t))
        assert np.any(got.get(params.layers[0].edge_weights) != 0)

    def test_rank_bound_of_projection_adaptation(self):
        g, adj, _, params, rng = small_setup(seed=7, d=10)
        adapted = enc.attach_glora(params, "full", 3, rng, num_nodes=g.num_nodes)
        lp = adapted.layers[0]
        lp.q.data = rng.standard_normal(lp.q.shape)  # pretend it trained
        delta = lp.p.data @ lp.q.data.T
        sv = np.linalg.svd(delta, compute_uv=False)
        assert (sv[3:] < 1e-10).all()


@st.composite
def graphs_with_train_sets(draw):
    """Small graphs with isolated nodes; the train set is any subset of the
    nodes, often all of them."""
    n = draw(st.integers(1, 20))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    isolated = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    edges = [(u, v) for (u, v), k in zip(pairs, keep)
             if k and u not in isolated and v not in isolated]
    g = gs.Graph(num_nodes=n, edges=gs.canonical_edges(edges, n),
                 features=nc.Tensor(np.ones((n, 1))), labels=None, num_classes=2)
    if draw(st.booleans()):
        return g, list(range(n))
    return g, sorted(draw(st.sets(st.integers(0, n - 1))))


class TestEdgeSubsetPositions:
    """The binary search over CSR keys must pair exactly the slots the dict
    loop paired, in the same order."""

    @staticmethod
    def _assert_same(adj, train_ids):
        ours = enc.edge_subset_positions(adj, train_ids)
        ref = reference_edge_subset_positions(adj, train_ids)
        assert ours.dtype == ref.dtype
        assert np.array_equal(ours, ref)

    @pytest.mark.parametrize("name", ["syn-h10", "syn-h90", "web-tiny", "ego-tiny"])
    def test_bundled_fixtures(self, name):
        data = gs.load_dataset(DATASETS / name)
        g = gs.disjoint_union(data.graphs) if isinstance(data, gs.GraphSet) else data
        adj = gs.normalize_adjacency(g)
        n = g.num_nodes
        rng = np.random.default_rng(0)
        train_sets = [[], [0], [n - 1], np.arange(n),
                      rng.choice(n, size=5, replace=False),
                      rng.choice(n, size=n // 3, replace=False)]
        if not isinstance(data, gs.GraphSet):
            train_sets += [gs.kshot_split(g, 5, seed=s).train_ids for s in (0, 1)]
        for ids in train_sets:
            self._assert_same(adj, ids)

    @given(case=graphs_with_train_sets())
    @settings(max_examples=150, deadline=None)
    def test_generated_graphs(self, case):
        g, train_ids = case
        self._assert_same(gs.normalize_adjacency(g), train_ids)

    def test_entry_without_mirror_rejected(self):
        # (0, 1) is stored but (1, 0) is not
        adj = nc.SparseMatrix((2, 2), [0, 2, 3], [0, 1, 1], [1.0, 1.0, 1.0])
        with pytest.raises(StructuralError, match=r"\(0, 1\) has no mirror"):
            enc.edge_subset_positions(adj, [0])


@st.composite
def planned_graphs(draw):
    """Small graphs with isolated nodes and a nonempty list of planned rows
    in any order: one node, every node, or any subset."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    isolated = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    edges = [(u, v) for (u, v), k in zip(pairs, keep)
             if k and u not in isolated and v not in isolated]
    seed = draw(st.integers(0, 2**16))
    g = gs.Graph(num_nodes=n, edges=gs.canonical_edges(edges, n),
                 features=nc.Tensor(np.random.default_rng(seed).standard_normal((n, 3))),
                 labels=None, num_classes=2)
    kind = draw(st.sampled_from(["single", "all", "subset"]))
    if kind == "single":
        ids = [draw(st.integers(0, n - 1))]
    elif kind == "all":
        ids = list(range(n))
    else:
        ids = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return g, ids, seed


class TestForwardPlan:
    """A planned forward computes only the rows its last layer reads: the
    rows it returns are the full forward's bit for bit, and its gradients
    are the full forward's up to summation order."""

    @staticmethod
    def _adapted(g, adj, ids, mode, seed):
        rng = np.random.default_rng(seed)
        cfg = enc.EncoderConfig(layers=2, dims=[3, 6, 6])
        params = enc.init_encoder(cfg, rng)
        if mode == "off":
            # the base trains, so that mode off has gradients to compare
            return cfg, params
        pos = enc.edge_subset_positions(adj, ids) if mode == "edge_subset" else None
        params = enc.attach_glora(enc.own_base(params, trainable=False), mode, 2, rng,
                                  num_nodes=g.num_nodes, edge_positions=pos)
        # every factor nonzero, as after some training
        for t in params.adapters():
            t.data = rng.standard_normal(t.shape)
        return cfg, params

    @staticmethod
    def _loss(layers, seed):
        """A loss over every layer the forward formed: from an A X start,
        H(0) is not formed."""
        layers = [h for h in layers if h is not None]
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, size=layers[0].rows)
        total = None
        for h in layers:
            term = nc.softmax_nll(nc.matmul(h, nc.Tensor(rng.standard_normal((h.cols, 3)))),
                                  y, tau=1.0)
            total = term if total is None else add(total, term)
        return total

    @given(case=planned_graphs(), mode=st.sampled_from(["off", "full", "edge_subset"]))
    @settings(max_examples=120, deadline=None)
    def test_planned_rows_and_gradients_match_full_forward(self, case, mode):
        g, ids, seed = case
        adj = gs.normalize_adjacency(g)
        cfg, params = self._adapted(g, adj, ids, mode, seed)
        trainables = params.adapters() + params.base()
        full = forward(adj, g.features, params)
        want = nc.backward(self._loss([None if h is None else nc.gather_rows(h, ids)
                                        for h in full], seed))
        start = enc.forward_start(adj, g.features, params, ids)
        plan = start.plan
        planned = enc.encoder_forward(start)
        got = nc.backward(self._loss(planned, seed))

        assert (planned[0] is None) == (full[0] is None) == (mode == "off")
        for l, h in enumerate(planned[1:], 1):
            assert np.array_equal(h.data, full[l].data[ids]), f"layer {l}"
        # a layer that needs every row runs unsliced
        assert all(r is None or r.size < g.num_nodes for r in plan.rows)
        for t in trainables:
            a, b = got.get(t), want.get(t)
            scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
            assert np.abs(a - b).max(initial=0.0) <= 1e-12 * scale
        # every trainable edge entry the loss depends on lies in the plan's
        # blocks, or its edge's gradient would miss that entry's share
        if mode == "edge_subset":
            for lp in params.layers:
                a, b = got.get(lp.edge_weights), want.get(lp.edge_weights)
                moved = b != 0.0
                assert np.all(np.abs(a - b)[moved] <= 1e-12 * np.abs(b)[moved])

    def test_syn_h10_receptive_fields(self):
        g = gs.load_dataset(DATASETS / "syn-h10")
        adj = gs.normalize_adjacency(g)
        rng = np.random.default_rng(3)
        base = enc.own_base(enc.init_encoder(
            enc.EncoderConfig(layers=2, dims=[g.num_features, 8, 8]), rng), trainable=False)
        full = enc.attach_glora(base, "full", 2, rng, num_nodes=g.num_nodes)
        for seed, sizes in [(3, [590, 239, 25]), (7, [594, 244, 25])]:
            ids = gs.kshot_split(g, 5, seed=seed).train_ids
            plan = enc.forward_plan(adj, ids, 2)
            assert [r.size for r in plan.rows] == sizes
            assert [a.shape for a in plan.adjs] == [(sizes[1], sizes[0]),
                                                   (sizes[2], sizes[1])]
            dense = enc.forward_plan(adj, ids, 2, dense=True)
            assert dense.rows[:2] == [None, None]
            assert dense.adjs[1].shape == (25, g.num_nodes)
            # forward_start plans as much from the parameters alone
            for params, want in [(base, plan), (full, dense)]:
                got = enc.forward_start(adj, g.features, params, ids).plan
                assert [None if r is None else r.tolist() for r in got.rows] == \
                    [None if r is None else r.tolist() for r in want.rows]
                assert [a.shape for a in got.adjs] == [a.shape for a in want.adjs]

    def test_edge_positions_checked_once_per_plan(self):
        # path 0-1-2-3: CSR slots (0,1)=0 (1,0)=1 (1,2)=2 (2,1)=3 (2,3)=4 (3,2)=5
        adj = nc.SparseMatrix.from_coo((4, 4), [0, 1, 1, 2, 2, 3], [1, 0, 2, 1, 3, 2],
                                       np.ones(6))
        assert np.array_equal(enc.edge_subset_positions(adj, [1]), [[0, 1], [2, 3]])
        for bad, error, text in [
                ([0, 1], DimensionError, r"must be \(E, 2\)"),
                ([[0, 1, 2]], DimensionError, r"must be \(E, 2\)"),
                ([[0, 6]], DimensionError, r"slots in \[0, 6\)"),
                ([[-1, 0]], DimensionError, r"slots in \[0, 6\)"),
                ([[0, 1], [1, 0]], ContractError, "slots must be distinct"),
                ([[2, 2]], ContractError, "slots must be distinct"),
                ([[0, 3]], ContractError, "mirror"),
                ([[0, 2]], ContractError, "mirror")]:
            for ids in (None, [0]):
                with pytest.raises(error, match=text):
                    enc.forward_plan(adj, ids, 2, edge_positions=np.array(bad))
        plan = enc.forward_plan(adj, [0], 2, edge_positions=np.array([[0, 1], [4, 5]]))
        # layer 1 aggregates rows {0, 1, 2} of columns {0, 1, 2, 3}: both
        # entries of edge 0 and (2,3) of edge 1; layer 2 rows {0, 1} of
        # columns {0, 1, 2}: both entries of edge 0 alone
        first, second = plan.edge_patterns
        assert first.shape == (3, 4) and second.shape == (2, 3)
        assert first.edges.tolist() == [0, 0, 1] and second.edges.tolist() == [0, 0]
        assert first.rows.tolist() == [0, 1, 2] and first.cols.tolist() == [1, 0, 3]
        assert second.rows.tolist() == [0, 1] and second.cols.tolist() == [1, 0]

    def test_start_plans_from_the_parameters(self):
        rng = np.random.default_rng(9)
        g = gs.Graph(num_nodes=8, edges=gs.canonical_edges([(i, i + 1) for i in range(7)], 8),
                     features=nc.Tensor(rng.standard_normal((8, 5))), labels=None,
                     num_classes=2)
        adj = gs.normalize_adjacency(g)
        cfg = enc.EncoderConfig(layers=2, dims=[5, 8, 8])
        base = enc.own_base(enc.init_encoder(cfg, rng), trainable=False)
        # full GLoRA's rank-one term reads every row below the top
        full = enc.attach_glora(base, "full", 2, rng, num_nodes=g.num_nodes)
        plan = enc.forward_start(adj, g.features, full, [0, 1]).plan
        assert plan.rows[:2] == [None, None] and plan.rows[2].tolist() == [0, 1]
        assert plan.edge_patterns is None
        # edge_subset's trainable entries are placed in each layer's block
        pos = enc.edge_subset_positions(adj, [0, 1])
        edges = enc.attach_glora(base, "edge_subset", 2, rng, edge_positions=pos)
        plan = enc.forward_start(adj, g.features, edges, [0, 1]).plan
        want = enc.forward_plan(adj, [0, 1], 2, edge_positions=pos)
        assert [r.tolist() for r in plan.rows] == [r.tolist() for r in want.rows]
        for got, ref in zip(plan.edge_patterns, want.edge_patterns):
            assert got.shape == ref.shape
            assert (got.rows.tolist(), got.cols.tolist(), got.edges.tolist()) == \
                (ref.rows.tolist(), ref.cols.tolist(), ref.edges.tolist())
        # the projection factors alone plan the receptive field
        projected = enc.attach_glora(base, "full", 2, rng, adjacency_adaptation=False)
        plan = enc.forward_start(adj, g.features, projected, [0, 1]).plan
        assert [r.tolist() for r in plan.rows] == [[0, 1, 2, 3], [0, 1, 2], [0, 1]]


class TestFactoredFullGlora:
    """A full-GLoRA layer runs as the frozen product (A h) W0 plus a
    rank-(r+1) update. It agrees with ((A + pa qa^T) h)(W0 + P Q^T) to
    rounding, equals the frozen forward bit for bit while the update is zero,
    and a start built before the adapters move changes no bit."""

    @staticmethod
    def _adapted(g, seed, mode="full", ids=None):
        rng = np.random.default_rng(seed)
        cfg = enc.EncoderConfig(layers=2, dims=[g.num_features, 6, 6])
        base = enc.own_base(enc.init_encoder(cfg, rng), trainable=False)
        if mode == "off":
            return cfg, base
        adj = gs.normalize_adjacency(g)
        pos = enc.edge_subset_positions(adj, ids) if mode == "edge_subset" else None
        params = enc.attach_glora(base, mode, 2, rng, num_nodes=g.num_nodes,
                                  edge_positions=pos)
        # every factor nonzero, as after some training
        for t in params.adapters():
            t.data = rng.standard_normal(t.shape)
        return cfg, params

    @given(case=planned_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_unfactored_oracle(self, case):
        g, ids, seed = case
        adj = gs.normalize_adjacency(g)
        cfg, params = self._adapted(g, seed)
        adapters = params.adapters()
        for rows in (None, ids):
            start = enc.forward_start(adj, g.features, params, rows)
            ours = enc.encoder_forward(start)
            oracle = unfactored_forward(adj, g.features, params, start.plan)
            for a, b in zip(ours, oracle):
                scale = np.abs(b.data).max(initial=1.0)
                assert np.abs(a.data - b.data).max(initial=0.0) <= 1e-12 * scale
            got = nc.backward(TestForwardPlan._loss(ours, seed))
            want = nc.backward(TestForwardPlan._loss(oracle, seed))
            for t in adapters:
                a, b = got.get(t), want.get(t)
                scale = np.abs(b).max(initial=1e-300)
                assert np.abs(a - b).max(initial=0.0) <= 1e-10 * scale

    @pytest.mark.parametrize("hoisted", [False, True], ids=["forward", "frozen_input"])
    @pytest.mark.parametrize("planned", [False, True], ids=["full", "planned"])
    def test_finite_differences_every_factor(self, planned, hoisted):
        g = gs.random_labeled_graph(9, 16, 2, 3, seed=13)
        adj = gs.normalize_adjacency(g)
        cfg, params = self._adapted(g, 13)
        ids = [1, 4, 6] if planned else None
        # hoisted, as stage two trains: one start for every perturbed forward,
        # since it holds the frozen base's products, which no factor moves
        start = enc.forward_start(adj, g.features, params, ids)

        def loss():
            fresh = start if hoisted else enc.forward_start(adj, g.features, params, ids)
            return TestForwardPlan._loss(enc.encoder_forward(fresh), 13)

        adapters = params.adapters()
        assert len(adapters) == 4 * cfg.layers  # P, Q, PA, QA of each layer
        grads = nc.backward(loss())
        fds = finite_diff(lambda: loss().item(), adapters)
        names = [f"layer{l}.{a}" for l in range(cfg.layers) for a in ("p", "q", "pa", "qa")]
        for t, fd, name in zip(adapters, fds, names):
            assert np.abs(fd).max() > 0, name
            assert_grads_close(grads.get(t), fd, label=name)

    @pytest.mark.parametrize("name", ["syn-h10", "web-tiny"])
    def test_fresh_adapter_is_the_frozen_forward_bitwise(self, name):
        g = gs.load_dataset(DATASETS / name)
        adj = gs.normalize_adjacency(g)
        rng = np.random.default_rng(14)
        cfg = enc.EncoderConfig(layers=2, dims=[g.num_features, 32, 32])
        base = enc.own_base(enc.init_encoder(cfg, rng), trainable=False)
        want = forward(adj, g.features, base)
        adapted = enc.attach_glora(base, "full", 8, rng, num_nodes=g.num_nodes)
        fresh = forward(adj, g.features, adapted)
        for l, (a, b) in enumerate(zip(want, fresh)):
            assert a.data.tobytes() == b.data.tobytes(), f"layer {l}"

    @pytest.mark.parametrize("mode", ["off", "full", "edge_subset"])
    def test_frozen_input_changes_no_bit(self, mode):
        """A start built before the adapters move, as stage two builds it
        once for every epoch, gives the forward a fresh start gives after
        they moved, bit for bit."""
        g = gs.load_dataset(DATASETS / "syn-h10")
        adj = gs.normalize_adjacency(g)
        ids = gs.kshot_split(g, 5, seed=3).train_ids
        cfg, params = self._adapted(g, 15, mode, ids)
        rng = np.random.default_rng(15)
        for rows in (None, ids):
            start = enc.forward_start(adj, g.features, params, rows)
            assert start.ax is None and start.h0 is not None
            for t in params.adapters():
                t.data = t.data + 0.1 * rng.standard_normal(t.shape)
            want = forward(adj, g.features, params, rows)
            got = enc.encoder_forward(start)
            for l, (a, b) in enumerate(zip(want, got)):
                assert a.data.tobytes() == b.data.tobytes(), f"layer {l}"

    def test_frozen_input_checks(self):
        rng = np.random.default_rng(16)
        g = gs.Graph(num_nodes=8, edges=gs.canonical_edges([(i, i + 1) for i in range(7)], 8),
                     features=nc.Tensor(rng.standard_normal((8, 5))), labels=None,
                     num_classes=2)
        adj = gs.normalize_adjacency(g)
        cfg = enc.EncoderConfig(layers=2, dims=[5, 8, 8])
        trainable = enc.init_encoder(cfg, rng)
        # a training base gets the A X start, so H(0) is never held constant
        ax = enc.forward_start(adj, g.features, trainable)
        assert ax.h0 is None and ax.first is None and ax.ax.shape == (8, 5)
        base = enc.own_base(trainable, trainable=False)
        whole = enc.forward_start(adj, g.features, base)
        assert whole.ax is None and whole.h0.shape == (8, 8)
        assert whole.params is base and whole.plan.rows == [None] * 3
        # one training W0 is enough for the A X start
        one = enc.EncoderParams(w_in=base.w_in, layers=[
            base.layers[0], enc.LayerParams(w0=trainable.layers[1].w0)])
        assert enc.forward_start(adj, g.features, one).h0 is None
        # a planned start holds the planned input rows alone
        assert enc.forward_start(adj, g.features, base, [0, 1]).h0.shape == (4, 8)
        # only trainable edges read H(0) W0
        assert whole.first[2] is None
        edges = enc.attach_glora(base, "edge_subset", 2, rng,
                                 edge_positions=enc.edge_subset_positions(adj, [0]))
        assert enc.forward_start(adj, g.features, edges).first[2].shape == (8, 8)
        # the features must match the adjacency and the input map
        for x in (nc.Tensor(np.ones((7, 5))), nc.Tensor(np.ones((8, 4)))):
            with pytest.raises(DimensionError, match=r"features must be \(8, 5\)"):
                enc.forward_start(adj, x, base)


class TestAggregatedInput:
    """A forward whose input map trains starts from A X, which
    `forward_start` builds once for a training base, and runs
    its first layer as (A X)(W_in W0). It reassociates the H(0)-first
    forward's products (`h0_first_forward`), so it agrees with it to
    rounding: H(L) within 1e-13 of its largest entry, the loss within 1e-13
    relative, and the gradients of W_in and every W0 within 1e-12 of each
    one's largest entry (measured at most 8.3e-16, 1.9e-16 and 1.1e-15)."""

    @staticmethod
    def _setup(layers, features, seed):
        rng = np.random.default_rng(seed)
        g = gs.random_labeled_graph(12, 24, 3, features, seed=seed)
        cfg = enc.EncoderConfig(layers=layers, dims=[features] + [6] * layers)
        return g, gs.normalize_adjacency(g), enc.init_encoder(cfg, rng)

    @staticmethod
    def _loss(stack, seed):
        return TestForwardPlan._loss([stack[-1]], seed)

    @pytest.mark.parametrize("features", [3, 20], ids=["F-below-rows", "F-above-rows"])
    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("planned", [False, True], ids=["full", "planned"])
    def test_matches_the_h0_first_forward(self, planned, layers, features):
        g, adj, params = self._setup(layers, features, seed=20 + layers)
        start = enc.forward_start(adj, g.features, params,
                                  [9, 1, 4, 6, 10] if planned else None)
        plan = start.plan
        block_rows = plan.adjs[0].shape[0]
        assert (features < block_rows) == (features == 3)
        base = [params.w_in] + [lp.w0 for lp in params.layers]
        assert start.ax.shape == (block_rows, features) and start.h0 is None
        ours = enc.encoder_forward(start)
        want = h0_first_forward(adj, g.features, params, plan)
        assert ours[0] is None and len(ours) == len(want) == layers + 1
        for a, b in zip(ours[1:], want[1:]):
            assert a.shape == b.shape
            assert np.abs(a.data - b.data).max() <= 1e-13 * np.abs(b.data).max()
        loss, ref = self._loss(ours, 21), self._loss(want, 21)
        assert abs(loss.item() - ref.item()) <= 1e-13 * abs(ref.item())
        got, grads = nc.backward(loss), nc.backward(ref)
        for t in base:
            a, b = got.get(t), grads.get(t)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("planned", [False, True], ids=["full", "planned"])
    def test_finite_differences_on_w_in_and_w0(self, planned, layers):
        g, adj, params = self._setup(layers, 4, seed=30)
        # A X holds no weight, so one start serves every perturbed forward
        start = enc.forward_start(adj, g.features, params, [2, 7] if planned else None)
        base = [params.w_in] + [lp.w0 for lp in params.layers]

        def loss():
            return self._loss(enc.encoder_forward(start), 31)

        grads = nc.backward(loss())
        fds = finite_diff(lambda: loss().item(), base)
        for l, (t, fd) in enumerate(zip(base, fds)):
            assert np.abs(fd).max() > 0, l
            assert_grads_close(grads.get(t), fd, label=f"weight {l}")

    def test_ax_is_the_aggregated_features(self):
        g, adj, params = self._setup(2, 5, seed=32)
        start = enc.forward_start(adj, g.features, params, [0, 3])
        rows = start.plan.rows[1]
        rows = np.arange(g.num_nodes) if rows is None else rows
        want = densify(adj)[rows] @ g.features.data
        np.testing.assert_allclose(start.ax.data, want, rtol=1e-13, atol=1e-15)
        assert not start.ax.requires_grad

    def test_contracts(self):
        g, adj, params = self._setup(2, 5, seed=33)
        # the A X start folds W_in into layer 0, which then carries no factors
        for mode in ("full", "edge_subset"):
            pos = enc.edge_subset_positions(adj, [0, 1]) if mode == "edge_subset" else None
            adapted = enc.attach_glora(params, mode, 2, np.random.default_rng(0),
                                       num_nodes=g.num_nodes, edge_positions=pos)
            for ids in (None, [0]):
                with pytest.raises(ContractError, match="layer 0 without GLoRA"):
                    enc.forward_start(adj, g.features, adapted, ids)


class TestPooledForward:
    """A start given a (B, N) pool reads every layer out pooled: pool H(0)
    once in the start, pool H(l) for the interior layers, and the top layer
    computed on the B pooled rows from its block pool A. That reassociates
    the pooled sums of the full forward, so the two agree to rounding."""

    @staticmethod
    def _setup(layers, seed, base="frozen"):
        graphs = [gs.random_labeled_graph(n, n - 1, 2, 4, seed=seed + n)
                  for n in (5, 3, 6)]
        graphs.append(gs.Graph(num_nodes=1, edges=np.zeros((0, 2), dtype=np.int64),
                               features=nc.Tensor([[0.5, -1.0, 0.25, 2.0]]),
                               labels=None, num_classes=2))
        batch = gs.graph_batch(graphs)
        rng = np.random.default_rng(seed)
        cfg = enc.EncoderConfig(layers=layers, dims=[4] + [6] * layers)
        params = enc.init_encoder(cfg, rng)
        if base == "frozen":
            params = enc.attach_glora(enc.own_base(params, trainable=False), "full",
                                      2, rng, adjacency_adaptation=False)
            for lp in params.layers:
                lp.q.data = 0.3 * rng.standard_normal(lp.q.shape)
        return batch, params

    @pytest.mark.parametrize("base", ["frozen", "training"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_equals_the_pooled_full_forward(self, layers, base):
        batch, params = self._setup(layers, seed=40 + layers, base=base)
        start = enc.forward_start(batch.adj, batch.features, params, pool=batch.pool)
        assert start.plan.adjs[-1].shape == (4, batch.adj.shape[1])
        pool = densify(batch.pool)
        want = forward(batch.adj, batch.features, params)
        ours = enc.encoder_forward(start)
        assert len(ours) == layers + 1
        for l, (a, b) in enumerate(zip(ours, want)):
            if b is None:
                assert a is None and base == "training"
                continue
            assert a.shape == (4, 6), l
            np.testing.assert_allclose(a.data, pool @ b.data, rtol=1e-13, atol=1e-14)

    def test_pool_a_is_one_sparse_product(self):
        batch, params = self._setup(2, seed=45)
        plan = enc.forward_start(batch.adj, batch.features, params,
                                 pool=batch.pool).plan
        assert plan.pool is batch.pool and plan.adjs[0] is batch.adj
        np.testing.assert_allclose(densify(plan.adjs[1]),
                                   densify(batch.pool) @ densify(batch.adj),
                                   rtol=1e-15, atol=0)

    def test_contracts(self):
        batch, params = self._setup(2, seed=46)
        adj, pool = batch.adj, batch.pool
        with pytest.raises(ContractError, match="pooled plan"):
            enc.forward_plan(adj, [0], 2, pool=pool)
        with pytest.raises(ContractError, match="pooled plan"):
            enc.forward_plan(adj, None, 2, dense=True, pool=pool)
        with pytest.raises(ContractError, match="pooled plan"):
            enc.forward_plan(adj, None, 2, edge_positions=enc.edge_subset_positions(
                adj, [0]), pool=pool)
        with pytest.raises(DimensionError, match="pool must have"):
            enc.forward_plan(adj, None, 2, pool=gs.graph_batch(
                [gs.random_labeled_graph(3, 2, 2, 4, seed=0)]).pool)


def size(tensors):
    return sum(t.data.size for t in tensors)


class TestPartitionAndCount:
    """`EncoderParams.base()` and `.adapters()` split the encoder's tensors
    into what pre-training trains and what stage two trains."""

    def test_pretrain_partition(self):
        _, _, cfg, params, _ = small_setup(seed=8, f=5, d=8, layers=2)
        assert params.base() == [params.w_in] + [lp.w0 for lp in params.layers]
        assert params.adapters() == []
        assert size(params.base()) == 5 * 8 + 8 * 8 + 8 * 8

    @pytest.mark.parametrize("mode", enc.GLORA_MODES)
    def test_order_in_every_mode(self, mode):
        g, adj, cfg, params, rng = small_setup(seed=13, n=8)
        for adjacency in (True, False):
            pos = enc.edge_subset_positions(adj, [0, 1]) if mode == "edge_subset" else None
            adapted = enc.attach_glora(params, mode, 2, rng, num_nodes=g.num_nodes,
                                       edge_positions=pos,
                                       adjacency_adaptation=adjacency)
            # checkpoint order, the same tensors the parameters were given
            assert adapted.base() == params.base()
            want = [t for lp in adapted.layers
                    for t in (lp.p, lp.q, lp.pa, lp.qa, lp.edge_weights)
                    if t is not None]
            assert adapted.adapters() == want
            per_layer = {"off": 0, "full": 2 + 2 * adjacency,
                         "edge_subset": 2 + adjacency}[mode]
            assert len(want) == per_layer * cfg.layers

    def test_prompt_partition_freezes_base(self):
        g, _, cfg, params, rng = small_setup(seed=9)
        adapted = enc.attach_glora(params, "full", 3, rng, num_nodes=g.num_nodes)
        trainable, frozen = adapted.adapters(), adapted.base()
        assert params.w_in in frozen
        assert all(lp.w0 in frozen for lp in adapted.layers)
        assert not set(map(id, trainable)) & set(map(id, frozen))
        assert len(trainable) == 4 * cfg.layers

    def test_off_attaches_nothing(self):
        _, _, _, params, rng = small_setup(seed=9)
        state = rng.bit_generator.state
        assert enc.attach_glora(params, "off", 0, rng) is params
        assert rng.bit_generator.state == state
        assert params.adapters() == []

    def test_glora_factors_at_pretrain_rejected(self, tmp_path):
        g, _, cfg, params, rng = small_setup(seed=10)
        adapted = enc.attach_glora(params, "full", 3, rng, num_nodes=g.num_nodes)
        # a checkpoint holds the base weights only
        with pytest.raises(ContractError, match="a checkpoint holds no GLoRA factors"):
            enc.checkpoint_save(adapted, cfg, tmp_path / "m.dagp")
        with pytest.raises(ContractError, match="a checkpoint holds no GLoRA factors"):
            enc.as_stored(adapted)
        assert not any(tmp_path.iterdir())

    def test_projection_only_counts(self):
        # r (d_in + d_out) per layer
        cfg = enc.EncoderConfig(layers=1, dims=[128, 128])
        rng = np.random.default_rng(0)
        params = enc.init_encoder(cfg, rng)
        adapted = enc.attach_glora(params, "full", 8, rng, adjacency_adaptation=False)
        assert size(adapted.adapters()) == 2048
        cfg2 = enc.EncoderConfig(layers=2, dims=[128, 128, 128])
        params2 = enc.init_encoder(cfg2, rng)
        adapted2 = enc.attach_glora(params2, "full", 8, rng, adjacency_adaptation=False)
        assert size(adapted2.adapters()) == 4096

    def test_closed_form_matches_enumeration(self):
        g, adj, _, _, rng = small_setup(seed=11, n=10)
        for mode, kwargs in [("full", dict(num_nodes=10)),
                             ("edge_subset", dict())]:
            cfg = enc.EncoderConfig(layers=2, dims=[5, 8, 8])
            params = enc.init_encoder(cfg, rng)
            if mode == "edge_subset":
                pos = enc.edge_subset_positions(adj, [0, 1, 2])
                adapted = enc.attach_glora(params, mode, 3, rng, edge_positions=pos)
                closed = glora_param_count(cfg, mode, 3, num_selected_edges=len(pos))
            else:
                adapted = enc.attach_glora(params, mode, 3, rng, **kwargs)
                closed = glora_param_count(cfg, mode, 3, **kwargs)
            assert size(adapted.adapters()) == closed


class TestCheckpoint:
    def test_save_load_save_bitwise(self, tmp_path):
        _, _, cfg, params, _ = small_setup(seed=12)
        p1 = tmp_path / "a.dagp"
        p2 = tmp_path / "b.dagp"
        enc.checkpoint_save(params, cfg, p1)
        loaded, cfg2 = enc.checkpoint_load(p1)
        enc.checkpoint_save(loaded, cfg2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_forward_close(self, tmp_path):
        g, adj, cfg, params, _ = small_setup(seed=14)
        before = forward(adj, g.features, enc.own_base(params, trainable=False))
        path = tmp_path / "m.dagp"
        enc.checkpoint_save(params, cfg, path)
        loaded, _ = enc.checkpoint_load(path)
        after = forward(adj, g.features, loaded)
        # 32-bit storage keeps the forward within 1e-6
        gap = max(np.abs(a.data - b.data).max()
                  for a, b in zip(before, after))
        assert gap < 1e-6

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "bad.dagp"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            enc.checkpoint_load(path)

    def test_non_finite_record_raises_checkpoint_error(self, tmp_path):
        _, _, cfg, params, _ = small_setup(seed=19)
        path = tmp_path / "m.dagp"
        enc.checkpoint_save(params, cfg, path)
        whole = path.read_bytes()
        # the last record, the last layer's weight, ends before the digest;
        # signed again, the file reaches the finiteness check
        path.write_bytes(resigned(whole[:-36] + np.float32(np.nan).tobytes()
                                  + whole[-32:]))
        last = rf"^layer{cfg.layers - 1}\.w0: non-finite"
        with pytest.raises(CheckpointError, match=last):
            enc.checkpoint_load(path)

    def test_version_mismatch(self, tmp_path):
        _, _, cfg, params, _ = small_setup(seed=15)
        path = tmp_path / "m.dagp"
        enc.checkpoint_save(params, cfg, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            enc.checkpoint_load(path)

    def test_every_truncation_raises_checkpoint_error(self, tmp_path):
        _, _, cfg, params, _ = small_setup(seed=18, f=3, d=2)
        path = tmp_path / "m.dagp"
        enc.checkpoint_save(params, cfg, path)
        whole = path.read_bytes()
        for cut in range(len(whole)):
            path.write_bytes(whole[:cut])
            with pytest.raises(CheckpointError):
                enc.checkpoint_load(path)

    def test_failed_save_leaves_previous_file_whole(self, tmp_path, monkeypatch):
        _, _, cfg, params, _ = small_setup(seed=17)
        path = tmp_path / "m.dagp"
        enc.checkpoint_save(params, cfg, path)
        before = path.read_bytes()

        real = enc._records

        def torn(p):
            # the first record reaches the file, then the write fails
            records = real(p)
            yield next(records)
            raise OSError("disk full")

        monkeypatch.setattr(enc, "_records", torn)
        with pytest.raises(OSError, match="disk full"):
            enc.checkpoint_save(params, cfg, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.dagp"]

    def test_truncated_payload(self, tmp_path):
        _, _, cfg, params, _ = small_setup(seed=16)
        path = tmp_path / "m.dagp"
        enc.checkpoint_save(params, cfg, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(CheckpointError, match="truncated"):
            enc.checkpoint_load(path)

    def test_every_single_byte_corruption_raises_checkpoint_error(self, tmp_path):
        # the cache quarantines CheckpointError only: any other exception
        # from a damaged file would escape it on every later run, and a
        # finite payload byte changed would load as other weights
        _, _, cfg, params, _ = small_setup(seed=20, f=3, d=2)
        path = tmp_path / "m.dagp"
        enc.checkpoint_save(params, cfg, path)
        whole = path.read_bytes()
        for offset, old in enumerate(whole):
            for new in sorted({0x00, 0x7F, 0xFF, old ^ 0x01, old ^ 0x80} - {old}):
                path.write_bytes(whole[:offset] + bytes([new]) + whole[offset + 1:])
                with pytest.raises(CheckpointError):
                    enc.checkpoint_load(path)

    def test_version_one_file_raises(self, tmp_path):
        # the format before the checksum has no read path: the cache sets
        # such an entry aside and trains it again, once
        _, _, cfg, params, _ = small_setup(seed=22)
        path = tmp_path / "m.dagp"
        enc.checkpoint_save(params, cfg, path)
        path.write_bytes(version_one(path.read_bytes()))
        with pytest.raises(CheckpointError, match=r"version 1 unsupported \(want 2\)"):
            enc.checkpoint_load(path)

    def test_checksum_covers_every_byte_before_it(self, tmp_path):
        _, _, cfg, params, _ = small_setup(seed=23)
        path = tmp_path / "m.dagp"
        enc.checkpoint_save(params, cfg, path)
        whole = path.read_bytes()
        assert whole[-32:] == hashlib.sha256(whole[:-32]).digest()
        # one payload bit flipped: finite, so only the checksum sees it
        flipped = whole[:-40] + bytes([whole[-40] ^ 0x01]) + whole[-39:]
        path.write_bytes(flipped)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            enc.checkpoint_load(path)
        path.write_bytes(resigned(flipped))
        enc.checkpoint_load(path)

    def test_config_blob_with_stage_two_fields_loads(self, tmp_path):
        # checkpoints written before the config held only the architecture
        # also carry a stage-two mode and rank, which the reader ignores
        _, _, cfg, params, _ = small_setup(seed=21)
        path = tmp_path / "m.dagp"
        enc.checkpoint_save(params, cfg, path)
        whole = path.read_bytes()
        (blob_len,) = struct.unpack("<I", whole[8:12])
        old_blob = json.dumps({"layers": cfg.layers, "dims": cfg.dims, "rank": 8,
                               "glora_mode": "off"}, sort_keys=True).encode()
        old = tmp_path / "old.dagp"
        old.write_bytes(resigned(whole[:8] + struct.pack("<I", len(old_blob))
                                 + old_blob + whole[12 + blob_len:]))
        want, want_cfg = enc.checkpoint_load(path)
        got, got_cfg = enc.checkpoint_load(old)
        assert got_cfg == want_cfg == cfg
        for a, b in zip([got.w_in] + [lp.w0 for lp in got.layers],
                        [want.w_in] + [lp.w0 for lp in want.layers]):
            assert a.data.tobytes() == b.data.tobytes()
