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

from tests._oracles import reference_edge_subset_positions

DATASETS = Path(__file__).resolve().parents[1] / "datasets"


def small_setup(seed=0, n=6, f=5, d=8, layers=2, mode="off", rank=3):
    rng = np.random.default_rng(seed)
    g = gs.random_labeled_graph(n, min(2 * n, n * (n - 1) // 2), 2, f, seed=seed)
    adj = gs.normalize_adjacency(g)
    cfg = enc.EncoderConfig(layers=layers, dims=[f] + [d] * layers,
                            rank=rank, glora_mode=mode)
    params = enc.init_encoder(cfg, rng)
    return g, adj, cfg, params, rng


def dense_reference(adj, x, params, relu_interior=True):
    """Dense numpy re-implementation of the forward pass (oracle)."""
    a = adj.densify()
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
    halves of the edge weights scattered into place (oracle)."""
    base = nc.Tensor(adj.values[:, None])
    slots = np.concatenate([params.edge_positions[:, 0], params.edge_positions[:, 1]])
    h = nc.matmul(x, params.w_in)
    out = [h]
    for l, lp in enumerate(params.layers):
        weight = nc.add(lp.w0, nc.matmul(lp.p, nc.transpose(lp.q)))
        doubled = nc.vstack([lp.edge_weights, lp.edge_weights])
        values = nc.add(base, nc.scatter_rows(doubled, slots, adj.nnz))
        h = nc.matmul(nc.spmm(adj, h, values=values), weight)
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
        with pytest.raises(ParameterError):
            enc.EncoderConfig(layers=1, dims=[4, 8], glora_mode="bogus")
        with pytest.raises(ParameterError):
            enc.EncoderConfig(layers=1, dims=[4, 8], rank=0, glora_mode="full")

    def test_json_roundtrip(self):
        cfg = enc.EncoderConfig(layers=2, dims=[10, 16, 16], rank=4, glora_mode="full")
        again = enc.EncoderConfig.from_json(cfg.to_json())
        assert again == cfg


class TestForward:
    def test_matches_dense_oracle(self):
        g, adj, cfg, params, _ = small_setup(seed=1)
        stack = enc.encoder_forward(adj, g.features, cfg, params)
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
            w_in=nc.Tensor(np.eye(f), requires_grad=True),
            layers=[enc.LayerParams(w0=nc.Tensor(np.eye(f), requires_grad=True))],
        )
        adj = nc.SparseMatrix((f, f), np.arange(f + 1), np.arange(f), np.ones(f))
        x = nc.Tensor(rng.standard_normal((f, f)))
        stack = enc.encoder_forward(adj, x, cfg, params)
        np.testing.assert_allclose(stack[1].data, stack[0].data, atol=1e-15)
        np.testing.assert_allclose(stack[0].data, x.data, atol=1e-15)

    def test_zero_init_glora_is_exact_identity(self):
        g, adj, cfg_off, params, rng = small_setup(seed=3)
        frozen = enc.encoder_forward(adj, g.features, cfg_off, params)
        cfg_full = enc.EncoderConfig(layers=cfg_off.layers, dims=cfg_off.dims,
                                     rank=3, glora_mode="full")
        adapted_params = enc.attach_glora(params, cfg_full, rng, num_nodes=g.num_nodes)
        adapted = enc.encoder_forward(adj, g.features, cfg_full, adapted_params)
        for a, b in zip(frozen, adapted):
            assert np.abs(a.data - b.data).max() < 1e-12

    def test_edge_subset_zero_init_identity(self):
        g, adj, cfg_off, params, rng = small_setup(seed=4)
        frozen = enc.encoder_forward(adj, g.features, cfg_off, params)
        cfg_es = enc.EncoderConfig(layers=cfg_off.layers, dims=cfg_off.dims,
                                   rank=3, glora_mode="edge_subset")
        pos = enc.edge_subset_positions(adj, [0, 1])
        adapted_params = enc.attach_glora(params, cfg_es, rng, edge_positions=pos)
        adapted = enc.encoder_forward(adj, g.features, cfg_es, adapted_params)
        for a, b in zip(frozen, adapted):
            assert np.abs(a.data - b.data).max() < 1e-12

    def test_glora_factors_with_mode_off_rejected(self):
        g, adj, cfg, params, rng = small_setup(seed=5)
        cfg_full = enc.EncoderConfig(layers=cfg.layers, dims=cfg.dims,
                                     rank=3, glora_mode="full")
        adapted = enc.attach_glora(params, cfg_full, rng, num_nodes=g.num_nodes)
        with pytest.raises(ContractError):
            enc.encoder_forward(adj, g.features, cfg, adapted)

    def test_edge_subset_only_touches_selected_edges(self):
        g, adj, cfg, params, rng = small_setup(seed=6, n=8)
        cfg_es = enc.EncoderConfig(layers=cfg.layers, dims=cfg.dims,
                                   rank=2, glora_mode="edge_subset")
        train_ids = [0, 1]
        pos = enc.edge_subset_positions(adj, train_ids)
        adapted = enc.attach_glora(params, cfg_es, rng, edge_positions=pos)
        for lp in adapted.layers:
            lp.edge_weights.data = (lp.edge_weights.data + 0.37
                                    + 0.1 * rng.standard_normal(lp.edge_weights.shape))
            lp.q.data = rng.standard_normal(lp.q.shape)
        # effective adjacency values must differ from base exactly on the
        # selected slots
        base = nc.Tensor(adj.values[:, None])
        doubled = nc.vstack([adapted.layers[0].edge_weights] * 2)
        slots = np.concatenate([pos[:, 0], pos[:, 1]])
        eff = nc.add(base, nc.scatter_rows(doubled, slots, adj.nnz)).data[:, 0]
        changed = np.flatnonzero(eff != adj.values)
        assert sorted(changed.tolist()) == sorted(set(slots.tolist()))
        train = set(train_ids)
        rows = adj.nnz_rows()
        for k in changed:
            u, v = int(rows[k]), int(adj.col_indices[k])
            assert u != v and (u in train or v in train)

        # that all-nnz scatter construction is the oracle for the slot-
        # restricted forward, its outputs and its gradients, bit for bit
        def loss_of(stack):
            return nc.softmax_nll(stack[-1], g.labels, tau=0.5)

        ours = enc.encoder_forward(adj, g.features, cfg_es, adapted)
        oracle = scatter_edge_subset_forward(adj, g.features, adapted)
        for a, b in zip(ours, oracle):
            assert np.array_equal(a.data, b.data)
        got, want = nc.backward(loss_of(ours)), nc.backward(loss_of(oracle))
        trainables, _frozen = enc.partition_params(adapted, "prompt")
        for t in trainables:
            assert np.array_equal(got.get(t), want.get(t))
        assert np.any(got.get(adapted.layers[0].edge_weights) != 0)

    def test_rank_bound_of_projection_adaptation(self):
        g, adj, cfg, params, rng = small_setup(seed=7, d=10, rank=3, mode="off")
        cfg_full = enc.EncoderConfig(layers=cfg.layers, dims=cfg.dims,
                                     rank=3, glora_mode="full")
        adapted = enc.attach_glora(params, cfg_full, rng, num_nodes=g.num_nodes)
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


class _SpmmValues:
    """Records the (matrix, values, slots) of every spmm call with a values
    override, so a test can read each CSR slot's gradient after backward."""

    def __init__(self, m):
        self.calls = []
        real = enc.spmm

        def spmm(s, d, values=None, slots=None):
            if values is not None:
                self.calls.append((s, values, slots))
            return real(s, d, values=values, slots=slots)

        m.setattr(enc, "spmm", spmm)


class TestForwardPlan:
    """A planned forward computes only the rows its last layer reads: the
    rows it returns are the full forward's bit for bit, and its gradients
    are the full forward's up to summation order."""

    @staticmethod
    def _adapted(g, adj, ids, mode, seed):
        rng = np.random.default_rng(seed)
        cfg = enc.EncoderConfig(layers=2, dims=[3, 6, 6], rank=2, glora_mode=mode)
        params = enc.init_encoder(cfg, rng)
        if mode != "off":
            pos = enc.edge_subset_positions(adj, ids) if mode == "edge_subset" else None
            params = enc.attach_glora(params, cfg, rng, num_nodes=g.num_nodes,
                                      edge_positions=pos)
        # every factor nonzero, as after some training; the base weights
        # take gradients too, so that mode off has some to compare
        for t in enc.partition_params(params, "prompt")[0]:
            t.data = rng.standard_normal(t.shape)
        for t in enc.partition_params(params, "prompt")[1]:
            t.requires_grad = True
        return cfg, params

    @staticmethod
    def _loss(layers, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, size=layers[0].rows)
        total = None
        for h in layers:
            term = nc.softmax_nll(nc.matmul(h, nc.Tensor(rng.standard_normal((h.cols, 3)))),
                                  y, tau=1.0)
            total = term if total is None else nc.add(total, term)
        return total

    @staticmethod
    def _slot_grads(calls, grads, plan=None):
        """{(row, col): gradient} of every overridden slot, per layer."""
        per_layer = []
        for l, (s, values, slots) in enumerate(calls):
            rows, cols = s.nnz_rows()[slots], s.col_indices[slots]
            if plan is not None:
                rows = rows if plan.rows[l + 1] is None else plan.rows[l + 1][rows]
                cols = cols if plan.rows[l] is None else plan.rows[l][cols]
            per_layer.append({(int(r), int(c)): float(v)
                              for r, c, v in zip(rows, cols, grads.get(values)[:, 0])})
        return per_layer

    @given(case=planned_graphs(), mode=st.sampled_from(["off", "full", "edge_subset"]))
    @settings(max_examples=120, deadline=None)
    def test_planned_rows_and_gradients_match_full_forward(self, case, mode):
        g, ids, seed = case
        adj = gs.normalize_adjacency(g)
        cfg, params = self._adapted(g, adj, ids, mode, seed)
        trainables = [t for group in enc.partition_params(params, "prompt") for t in group]
        plan = enc.forward_plan(adj, ids, cfg.layers, edge_positions=params.edge_positions,
                                dense=mode == "full")
        with pytest.MonkeyPatch.context() as m:
            full_calls = _SpmmValues(m)
            full = enc.encoder_forward(adj, g.features, cfg, params)
            want = nc.backward(self._loss([nc.gather_rows(h, ids) for h in full], seed))
        with pytest.MonkeyPatch.context() as m:
            planned_calls = _SpmmValues(m)
            planned = enc.encoder_forward(adj, g.features, cfg, params, plan=plan)
            got = nc.backward(self._loss(planned, seed))

        for l, h in enumerate(planned):
            assert np.array_equal(h.data, full[l].data[ids]), f"layer {l}"
        # a layer that needs every row runs unsliced
        assert all(r is None or r.size < g.num_nodes for r in plan.rows)
        for t in trainables:
            a, b = got.get(t), want.get(t)
            scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
            assert np.abs(a - b).max(initial=0.0) <= 1e-12 * scale
        # every trainable slot the loss depends on lies in the plan's slices,
        # with the same gradient there
        full_slots = self._slot_grads(full_calls.calls, want)
        planned_slots = self._slot_grads(planned_calls.calls, got, plan)
        for have, need in zip(planned_slots, full_slots):
            for key, grad in need.items():
                if grad != 0.0:
                    assert key in have
                    assert abs(have[key] - grad) <= 1e-12 * abs(grad)

    def test_syn_h10_receptive_fields(self):
        g = gs.load_dataset(DATASETS / "syn-h10")
        adj = gs.normalize_adjacency(g)
        for seed, sizes in [(3, [590, 239, 25]), (7, [594, 244, 25])]:
            ids = gs.kshot_split(g, 5, seed=seed).train_ids
            plan = enc.forward_plan(adj, ids, 2)
            assert [r.size for r in plan.rows] == sizes
            assert [a.shape for a in plan.adjs] == [(sizes[1], sizes[0]),
                                                   (sizes[2], sizes[1])]
            dense = enc.forward_plan(adj, ids, 2, dense=True)
            assert dense.rows[:2] == [None, None]
            assert dense.adjs[1].shape == (25, g.num_nodes)

    def test_full_glora_needs_a_dense_plan(self):
        rng = np.random.default_rng(9)
        g = gs.Graph(num_nodes=8, edges=gs.canonical_edges([(i, i + 1) for i in range(7)], 8),
                     features=nc.Tensor(rng.standard_normal((8, 5))), labels=None,
                     num_classes=2)
        adj = gs.normalize_adjacency(g)
        cfg = enc.EncoderConfig(layers=2, dims=[5, 8, 8])
        params = enc.init_encoder(cfg, rng)
        cfg_full = enc.EncoderConfig(layers=cfg.layers, dims=cfg.dims, rank=2,
                                     glora_mode="full")
        adapted = enc.attach_glora(params, cfg_full, rng, num_nodes=g.num_nodes)
        with pytest.raises(ContractError, match="dense=True"):
            enc.encoder_forward(adj, g.features, cfg_full, adapted,
                                plan=enc.forward_plan(adj, [0, 1], cfg.layers))
        with pytest.raises(DimensionError, match="plan has 1 layers"):
            enc.encoder_forward(adj, g.features, cfg_full, adapted,
                                plan=enc.forward_plan(adj, [0, 1], 1, dense=True))


class TestPartitionAndCount:
    def test_pretrain_partition(self):
        _, _, cfg, params, _ = small_setup(seed=8, f=5, d=8, layers=2)
        trainable, frozen = enc.partition_params(params, "pretrain")
        assert len(trainable) == 3 and not frozen
        assert enc.count_trainable(params, "pretrain") == 5 * 8 + 8 * 8 + 8 * 8

    def test_prompt_partition_freezes_base(self):
        g, _, cfg, params, rng = small_setup(seed=9)
        cfg_full = enc.EncoderConfig(layers=cfg.layers, dims=cfg.dims,
                                     rank=3, glora_mode="full")
        adapted = enc.attach_glora(params, cfg_full, rng, num_nodes=g.num_nodes)
        trainable, frozen = enc.partition_params(adapted, "prompt")
        assert params.w_in in frozen
        assert all(lp.w0 in frozen for lp in adapted.layers)
        assert not set(map(id, trainable)) & set(map(id, frozen))
        assert len(trainable) == 4 * cfg.layers

    def test_glora_factors_at_pretrain_rejected(self):
        g, _, cfg, params, rng = small_setup(seed=10)
        cfg_full = enc.EncoderConfig(layers=cfg.layers, dims=cfg.dims,
                                     rank=3, glora_mode="full")
        adapted = enc.attach_glora(params, cfg_full, rng, num_nodes=g.num_nodes)
        with pytest.raises(ContractError):
            enc.partition_params(adapted, "pretrain")

    def test_projection_only_counts(self):
        # r (d_in + d_out) per layer
        cfg = enc.EncoderConfig(layers=1, dims=[128, 128], rank=8, glora_mode="full")
        rng = np.random.default_rng(0)
        params = enc.init_encoder(cfg, rng)
        adapted = enc.attach_glora(params, cfg, rng, adjacency_adaptation=False)
        assert enc.count_trainable(adapted, "prompt") == 2048
        cfg2 = enc.EncoderConfig(layers=2, dims=[128, 128, 128], rank=8,
                                 glora_mode="full")
        params2 = enc.init_encoder(cfg2, rng)
        adapted2 = enc.attach_glora(params2, cfg2, rng, adjacency_adaptation=False)
        assert enc.count_trainable(adapted2, "prompt") == 4096

    def test_closed_form_matches_enumeration(self):
        g, adj, _, _, rng = small_setup(seed=11, n=10)
        for mode, kwargs in [("full", dict(num_nodes=10)),
                             ("edge_subset", dict())]:
            cfg = enc.EncoderConfig(layers=2, dims=[5, 8, 8], rank=3, glora_mode=mode)
            params = enc.init_encoder(cfg, rng)
            if mode == "edge_subset":
                pos = enc.edge_subset_positions(adj, [0, 1, 2])
                adapted = enc.attach_glora(params, cfg, rng, edge_positions=pos)
                closed = enc.glora_param_count(cfg, num_selected_edges=len(pos))
            else:
                adapted = enc.attach_glora(params, cfg, rng, **kwargs)
                closed = enc.glora_param_count(cfg, **kwargs)
            assert enc.count_trainable(adapted, "prompt") == closed


class TestCheckpoint:
    def test_save_load_save_bitwise(self, tmp_path):
        _, _, cfg, params, _ = small_setup(seed=12)
        p1 = tmp_path / "a.dagp"
        p2 = tmp_path / "b.dagp"
        enc.checkpoint_save(params, cfg, p1)
        loaded, cfg2 = enc.checkpoint_load(p1)
        enc.checkpoint_save(loaded, cfg2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_dims_named(self, tmp_path):
        _, _, cfg, params, _ = small_setup(seed=13, f=5, d=8)
        path = tmp_path / "m.dagp"
        enc.checkpoint_save(params, cfg, path)
        other = enc.EncoderConfig(layers=2, dims=[7, 8, 8])
        with pytest.raises(CheckpointError, match=r"\[5, 8, 8\].*\[7, 8, 8\]"):
            enc.checkpoint_load(path, expect_cfg=other)

    def test_roundtrip_forward_close(self, tmp_path):
        g, adj, cfg, params, _ = small_setup(seed=14)
        before = enc.encoder_forward(adj, g.features, cfg, params)
        path = tmp_path / "m.dagp"
        enc.checkpoint_save(params, cfg, path)
        loaded, _ = enc.checkpoint_load(path)
        after = enc.encoder_forward(adj, g.features, cfg, loaded)
        # 32-bit storage keeps the forward within 1e-6
        gap = max(np.abs(a.data - b.data).max()
                  for a, b in zip(before, after))
        assert gap < 1e-6

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "bad.dagp"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
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

        def torn(p):
            yield "w_in", p.w_in
            raise OSError("disk full")

        monkeypatch.setattr(enc, "_named_tensors", torn)
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
