import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopprompt.encoder as enc
import hopprompt.prompt as pr
from hopprompt import graphstore as gs
from hopprompt import numcore as nc
from hopprompt.errors import (
    DimensionError,
    NumericError,
    ParameterError,
    SplitError,
    StructuralError,
)
from hopprompt.numcore import sparse as sparse_ops
from hopprompt.numcore import tensor as tensor_ops

from tests._oracles import (
    ClassPromptSet,
    anchor_arrays,
    assert_grads_close,
    densify,
    finite_diff,
    full_rows_plan,
    guarded_scores,
    matrix_loss,
    reference_graph_tokens,
    reference_graph_tune,
    reference_predict,
    unfused_prompt_nll,
)
from tests.conftest import encoder_config


def small_node_setup(seed=0, n=14, h=None):
    """A graph and a random frozen encoder, as stage two runs it."""
    g = gs.random_labeled_graph(n, 2 * n, 2, 5, seed=seed)
    cfg = enc.EncoderConfig(layers=2, dims=[5, 6, 6])
    params = enc.own_base(enc.init_encoder(cfg, np.random.default_rng(seed)),
                          trainable=False)
    return g, cfg, params


def forward(adj, x, params, ids=None):
    return enc.encoder_forward(enc.forward_start(adj, x, params, ids))


def tokens_of(graphs, params):
    """`graph_tokens` of the batch of `graphs`, started as stage two starts it."""
    batch = gs.graph_batch(graphs)
    return pr.graph_tokens(enc.forward_start(batch.adj, batch.features, params,
                                             pool=batch.pool))


class TestInitGamma:
    def test_formula_example(self):
        hop = pr.init_gamma(0.1, 2)
        np.testing.assert_allclose(hop.data, [[0.1, 0.09, 0.81]], atol=1e-15)

    def test_single_layer(self):
        hop = pr.init_gamma(0.5, 1)
        np.testing.assert_allclose(hop.data, [[0.5, 0.5]], atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    @pytest.mark.parametrize("layers", [1, 2, 3, 4, 5, 6])
    def test_sums_to_one(self, alpha, layers):
        hop = pr.init_gamma(alpha, layers)
        assert abs(hop.data.sum() - 1.0) < 1e-12

    def test_range_checks(self):
        with pytest.raises(ParameterError):
            pr.init_gamma(-0.1, 2)
        with pytest.raises(ParameterError):
            pr.init_gamma(1.1, 2)
        with pytest.raises(ParameterError):
            pr.init_gamma(0.5, 0)


class TestPromptTuneConfig:
    def test_negative_patience_rejected(self):
        with pytest.raises(ParameterError, match="patience"):
            pr.PromptTuneConfig(patience=-3)
        assert pr.PromptTuneConfig(patience=0).patience == 0
        assert pr.PromptTuneConfig(patience=None).patience is None

    def test_glora_mode_and_rank_checked_when_built(self):
        with pytest.raises(ParameterError, match="glora_mode must be one of"):
            pr.PromptTuneConfig(glora_mode="bogus")
        with pytest.raises(ParameterError, match="rank must be >= 1 with GLoRA on"):
            pr.PromptTuneConfig(rank=0, glora_mode="full")
        # with nothing attached the rank is never read
        assert pr.PromptTuneConfig(rank=0, glora_mode="off").rank == 0


class TestTokens:
    def test_node_tokens_match_full_graph_rows(self):
        g, cfg, params = small_node_setup(seed=1)
        adj = gs.normalize_adjacency(g)
        stack = forward(adj, g.features, params)
        for v in [0, 3, 9]:
            tok = forward(adj, g.features, params, [v])
            assert len(tok) == cfg.layers + 1
            for l, t in enumerate(tok):
                np.testing.assert_allclose(t.data[0], stack[l].data[v], atol=1e-10)

    def test_isolated_node_tokens_use_own_features_only(self):
        g = gs.Graph(
            num_nodes=3,
            edges=gs.canonical_edges([(0, 1)], 3),
            features=nc.Tensor(np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.25]])),
            labels=np.array([0, 1, 0]),
            num_classes=2,
        )
        cfg = enc.EncoderConfig(layers=1, dims=[2, 4])
        params = enc.own_base(enc.init_encoder(cfg, np.random.default_rng(2)),
                              trainable=False)
        adj = gs.normalize_adjacency(g)
        tok = forward(adj, g.features, params, [2])
        # the isolated node's normalized adjacency row is its self-loop, 1.0
        h0 = g.features.data[2:3] @ params.w_in.data
        np.testing.assert_allclose(tok[0].data, h0, atol=1e-12)
        np.testing.assert_allclose(tok[1].data,
                                   h0 @ params.layers[0].w0.data, atol=1e-12)

    def test_graph_tokens_mean_pool(self):
        g, cfg, params = small_node_setup(seed=3)
        item, _ = gs.ego_network(g, 0, 2)
        adj = gs.normalize_adjacency(item)
        stack = forward(adj, item.features, params)
        tokens = tokens_of([item], params)
        for l, t in enumerate(tokens):
            assert t.shape == (1, stack[l].cols)
            np.testing.assert_allclose(t.data[0], stack[l].data.mean(axis=0), atol=1e-12)

    def test_graph_tokens_single_node(self):
        g = gs.Graph(num_nodes=1, edges=np.zeros((0, 2), dtype=np.int64),
                     features=nc.Tensor([[0.3, -0.7]]), labels=None,
                     num_classes=2, graph_label=1)
        cfg = enc.EncoderConfig(layers=1, dims=[2, 3])
        params = enc.own_base(enc.init_encoder(cfg, np.random.default_rng(4)),
                              trainable=False)
        tokens = tokens_of([g], params)
        adj = gs.normalize_adjacency(g)
        stack = forward(adj, g.features, params)
        for l, t in enumerate(tokens):
            np.testing.assert_allclose(t.data, stack[l].data, atol=1e-15)

    def test_isomorphic_graphs_same_tokens(self):
        feats = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
        mk = lambda: gs.Graph(
            num_nodes=3, edges=gs.canonical_edges([(0, 1), (1, 2)], 3),
            features=nc.Tensor(feats), labels=None, num_classes=2, graph_label=0)
        cfg = enc.EncoderConfig(layers=1, dims=[2, 3])
        params = enc.own_base(enc.init_encoder(cfg, np.random.default_rng(5)),
                              trainable=False)
        a = tokens_of([mk()], params)
        b = tokens_of([mk(), mk()], params)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.data[0], tb.data[0])
            np.testing.assert_array_equal(tb.data[0], tb.data[1])


@st.composite
def graph_lists(draw):
    """1-5 small graphs; single-node and edgeless ones come up often."""
    width = draw(st.integers(1, 3))
    graphs = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [pair for pair, k in zip(pairs, keep) if k]
        feats = draw(st.lists(st.floats(-2, 2), min_size=n * width,
                              max_size=n * width))
        graphs.append(gs.Graph(num_nodes=n, edges=gs.canonical_edges(edges, n),
                               features=nc.Tensor(np.reshape(feats, (n, width))),
                               labels=None, num_classes=2, graph_label=0))
    return graphs


def _fixture_items(name):
    """A fixture's graph items; a node fixture's are its 1-hop ego networks."""
    data = gs.load_dataset(f"datasets/{name}")
    if isinstance(data, gs.GraphSet):
        return data.graphs
    return gs.build_graph_task(data, hops=1).graphs


def _adapted_encoder(feature_dim, seed, layers=2):
    """A random frozen encoder with nonzero projection adapters attached."""
    rng = np.random.default_rng(seed)
    cfg = enc.EncoderConfig(layers=layers, dims=[feature_dim] + [6] * layers)
    base = enc.own_base(enc.init_encoder(cfg, rng), trainable=False)
    params = enc.attach_glora(base, "full", 2, rng, adjacency_adaptation=False)
    for lp in params.layers:
        lp.q.data = 0.3 * rng.standard_normal(lp.q.shape)
    return params, cfg


class TestGraphBatch:
    """One forward over the block-diagonal union, pooled through spmm, must
    give each item's own forward and mean."""

    @staticmethod
    def _assert_union_is_per_item(graphs):
        batch = gs.graph_batch(graphs)
        own = [gs.normalize_adjacency(g) for g in graphs]
        assert batch.adj.values.tobytes() == np.concatenate(
            [a.values for a in own]).tobytes()
        offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
        np.testing.assert_array_equal(
            batch.adj.col_indices,
            np.concatenate([a.col_indices + o for a, o in zip(own, offsets)]))
        np.testing.assert_array_equal(
            batch.features.data, np.concatenate([g.features.data for g in graphs]))
        pool = densify(batch.pool)
        assert pool.shape == (len(graphs), offsets[-1])
        for b, g in enumerate(graphs):
            want = np.zeros(offsets[-1])
            want[offsets[b]:offsets[b + 1]] = 1.0 / g.num_nodes
            assert pool[b].tobytes() == want.tobytes()

    @staticmethod
    def _assert_tokens_match_oracle(graphs, params, cfg):
        tokens = tokens_of(graphs, params)
        assert len(tokens) == cfg.layers + 1
        for b, g in enumerate(graphs):
            for l, ref in enumerate(reference_graph_tokens(g, params)):
                np.testing.assert_allclose(tokens[l].data[b:b + 1], ref.data,
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["syn-h10", "syn-h90", "web-tiny", "ego-tiny"])
    def test_bundled_fixtures(self, name):
        graphs = _fixture_items(name)
        self._assert_union_is_per_item(graphs)
        params, cfg = _adapted_encoder(graphs[0].num_features, seed=0)
        self._assert_tokens_match_oracle(graphs, params, cfg)

    @given(graphs=graph_lists(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_generated_graph_lists(self, graphs, seed):
        self._assert_union_is_per_item(graphs)
        params, cfg = _adapted_encoder(graphs[0].num_features, seed)
        self._assert_tokens_match_oracle(graphs, params, cfg)

    def test_empty_list_rejected(self):
        with pytest.raises(StructuralError):
            gs.graph_batch([])

    def test_pooled_forward_gradients(self):
        # P and Q reach the loss through the pooled top layer; in a 1-layer
        # encoder that top is layer 0, built from the start's constants
        rng = np.random.default_rng(14)
        graphs = _fixture_items("web-tiny")[:4]
        batch = gs.graph_batch(graphs)
        for layers in (1, 2):
            params, cfg = _adapted_encoder(graphs[0].num_features, seed=1, layers=layers)
            offsets = [nc.Tensor(rng.standard_normal((3, cfg.hidden_dim)))
                       for _ in range(cfg.layers + 1)]
            # the base is frozen: stage two trains the adapters alone
            wrt = [t for lp in params.layers for t in (lp.p, lp.q)]
            start = enc.forward_start(batch.adj, batch.features, params, pool=batch.pool)

            def loss():
                tokens = pr.graph_tokens(start)
                return nc.prompt_nll(tokens, np.array([0, 1, 2, 1]), offsets, tau=0.5)

            grads = nc.backward(loss())
            for t, fd in zip(wrt, finite_diff(lambda: loss().item(), wrt)):
                assert_grads_close(grads.get(t), fd, label=f"{layers} layers, {t.shape}")

    @pytest.mark.parametrize("layers", [1, 2])
    def test_epoch_tape_keeps_the_top_layer_pooled(self, monkeypatch, layers):
        # of a tune's epoch, only the interior layers' products and ReLUs
        # hold more rows than the batch has items: the top layer, its
        # aggregation and every read-out run on the B pooled rows
        items = gs.build_graph_task(
            gs.random_labeled_graph(30, 90, 3, 6, seed=21, class_sep=1.5), hops=1)
        split = gs.kshot_split(items, 2, seed=0)
        cfg = enc.EncoderConfig(layers=layers, dims=[6] + [8] * layers)
        params = enc.init_encoder(cfg, np.random.default_rng(0))
        epoch_ops, in_fit, real_fit = [], [False], pr.fit
        for module in (tensor_ops, sparse_ops):
            def spy(op, data, *args, _real=module._record):
                if in_fit[0]:
                    epoch_ops.append((op, data.shape[0]))
                return _real(op, data, *args)

            monkeypatch.setattr(module, "_record", spy)

        def fit(*args, **kwargs):
            in_fit[0] = True
            try:
                return real_fit(*args, **kwargs)
            finally:
                in_fit[0] = False

        monkeypatch.setattr(pr, "fit", fit)
        tcfg = pr.PromptTuneConfig(epochs=1, patience=None, seed=0, glora_mode="full")
        pr.run_prompt_tune(params, items, split, tcfg)
        b = len(split.train_ids)
        assert epoch_ops[-1] == ("prompt_nll", 1)
        assert [op for op, rows in epoch_ops if rows > b] == \
            ["lowrank_layer", "relu"] * (layers - 1)
        assert [op for op, rows in epoch_ops if rows == b].count("lowrank_layer") == 1


def zero_offsets(anchors):
    """The class prompts stage two starts from: the anchors, zero offsets."""
    return ClassPromptSet(anchors=anchors,
                          theta=[nc.Tensor(np.zeros(a.shape)) for a in anchors])


def layer_rows(*rows):
    """One (items, d) matrix per layer from per-layer row lists."""
    return [np.array(r, dtype=float) for r in rows]


class TestClassPrompts:
    def test_single_item_anchor_equals_token(self):
        mats = [np.array([[1.0, 2.0], [5.0, 6.0]]), np.array([[3.0, 4.0], [7.0, 8.0]])]
        anchors = pr.anchors_from_matrices(mats, np.array([0, 1]), 2)
        np.testing.assert_array_equal(anchors[0], [[1, 2], [5, 6]])
        np.testing.assert_array_equal(anchors[1], [[3, 4], [7, 8]])
        # zero offsets leave the effective prompts at the anchors
        prompts = zero_offsets([nc.Tensor(a) for a in anchors])
        for l in range(2):
            assert prompts.effective(l).data.tobytes() == anchors[l].tobytes()

    def test_opposite_tokens_cancel(self):
        mats = [np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])]
        anchors = pr.anchors_from_matrices(mats, np.array([0, 0, 1]), 2)
        np.testing.assert_array_equal(anchors[0][0], [0.0, 0.0])

    def test_empty_class_named(self):
        with pytest.raises(SplitError, match="class 1"):
            pr.anchors_from_matrices([np.array([[1.0, 0.0]])], np.array([0]), 2)

    def test_evaluation_anchors_equal_mask_loop(self):
        rng = np.random.default_rng(16)
        layer_data = [rng.standard_normal((12, 5)) for _ in range(3)]
        train_ids = np.array([0, 2, 3, 5, 7, 8, 11])
        y = np.array([2, 0, 1, 0, 2, 1, 0])
        ours = pr.anchors_from_matrices([h[train_ids] for h in layer_data], y, 3)
        for a, b in zip(ours, anchor_arrays(layer_data, train_ids, y, 3)):
            assert a.tobytes() == b.tobytes()

    def test_anchors_track_embedding_changes(self):
        # after the encoder moves, recomputed anchors move with it
        g, cfg, params = small_node_setup(seed=6)
        adj = gs.normalize_adjacency(g)
        ids = np.array([0, 1, 2, 3])
        y = np.array([0, 0, 1, 1])
        stack = forward(adj, g.features, params)
        mats = [h.data[ids] for h in stack]
        before = pr.anchors_from_matrices(mats, y, 2)[1].copy()
        params.layers[0].w0.data = params.layers[0].w0.data * 1.5
        stack = forward(adj, g.features, params)
        mats = [h.data[ids] for h in stack]
        after = pr.anchors_from_matrices(mats, y, 2)[1]
        assert np.abs(before - after).max() > 1e-6


class TestHopScores:
    """Per-layer scores: cosine of each item's row with the effective prompts."""

    def test_matching_prompt_scores_one(self):
        prompts = zero_offsets([nc.Tensor([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])])
        scores = nc.row_cosine_sim(nc.Tensor([[1.0, 0.0, 0.0]]), prompts.effective(0))
        np.testing.assert_allclose(scores.data, [[1.0, 0.0]], atol=1e-15)

    def test_scores_bounded(self):
        rng = np.random.default_rng(7)
        prompts = zero_offsets([nc.Tensor(rng.standard_normal((5, 4))) for _ in range(3)])
        for l in range(3):
            rows = nc.Tensor(rng.standard_normal((6, 4)))
            s = nc.row_cosine_sim(rows, prompts.effective(l))
            assert (np.abs(s.data) <= 1.0 + 1e-12).all()

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(8)
        rows = [rng.standard_normal((3, 4)) for _ in range(2)]
        anchors = [rng.standard_normal((3, 4)) for _ in range(2)]
        offs = [rng.standard_normal((3, 4)) for _ in range(2)]
        prompts = ClassPromptSet(anchors=[nc.Tensor(a) for a in anchors],
                                 theta=[nc.Tensor(o) for o in offs])
        for l in range(2):
            scores = nc.row_cosine_sim(nc.Tensor(rows[l]), prompts.effective(l))
            for i in range(3):
                for cls in range(3):
                    u = rows[l][i]
                    v = anchors[l][cls] + offs[l][cls]
                    want = (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
                    assert abs(scores.data[i, cls] - want) < 1e-12


def predict(layer_data, weights, anchors=None, ids=None):
    """`_predict_rows` with unit-vector class prompts and zero offsets, checked
    against the per-layer loop."""
    width = layer_data[0].shape[1]
    anchors = anchors if anchors is not None else [np.eye(width)] * len(layer_data)
    ids = np.arange(layer_data[0].shape[0]) if ids is None else ids
    weights = np.asarray(weights, dtype=float)
    preds = pr._predict_rows(np.stack([h[ids] for h in layer_data]),
                             np.stack(anchors), weights)
    want = reference_predict(layer_data, anchors, [np.zeros(a.shape) for a in anchors],
                             weights, ids)
    np.testing.assert_array_equal(preds, want)
    return preds


class TestAggregateAndPredict:
    """Prediction: argmax over classes of the gamma-weighted layer scores."""

    def test_one_hot_gamma(self):
        # per-layer argmax 0, 1, 1; a one-hot gamma reads one layer only
        data = layer_rows([[0.9, 0.1]], [[0.2, 0.8]], [[0.3, 0.4]])
        assert predict(data, [0.0, 1.0, 0.0]).tolist() == [1]
        assert predict(data, [1.0, 0.0, 0.0]).tolist() == [0]

    def test_identical_layers_scale_invariant_argmax(self):
        row = [[0.2, 0.7, 0.1], [0.6, 0.3, 0.1]]
        for weights in ([1, 1, 1], [0.1, 0.09, 0.81]):
            assert predict(layer_rows(row, row, row), weights).tolist() == [1, 0]

    def test_hand_example(self):
        # layer scores [1, 0], [0, 1] and [1, 1]/sqrt(2): class 0 wins by
        # 0.1 - 0.09
        data = layer_rows([[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]])
        assert predict(data, [0.1, 0.09, 0.81]).tolist() == [0]
        assert predict(data, [0.09, 0.1, 0.81]).tolist() == [1]

    def test_tie_breaks_to_lowest_index(self):
        assert predict(layer_rows([[1.0, 1.0]]), [1.0]).tolist() == [0]
        same = [np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])]
        assert predict(layer_rows([[0.3, -0.4]]), [1.0], anchors=same).tolist() == [0]


def _random_stacks(rng):
    """An (L, n, d) stack and (L, C, d) prompts with some rows and prompts
    zeroed and some shrunk below NORM_EPS without reaching zero."""
    layers, n, c = (int(k) for k in rng.integers(1, [5, 20, 6]))
    d = int(rng.choice([1, 2, 3, 17, 64, 128]))
    h = rng.standard_normal((layers, n, d))
    prompts = rng.standard_normal((layers, c, d))
    for arr in (h, prompts):
        arr[rng.random(arr.shape[:2]) < 0.1] = 0.0
        arr[rng.random(arr.shape[:2]) < 0.1] *= 1e-14
    return h, prompts


class TestOneScoringPath:
    """Training and evaluation score through `numcore.prompt_cosines`, which
    equals the per-layer guarded cosine bit for bit, degenerate rows and
    prompts included."""

    @pytest.mark.parametrize("seed", range(4))
    def test_cosines_equal_per_layer_guarded_scores(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            h, prompts = _random_stacks(rng)
            s = nc.prompt_cosines(h, prompts)[0]
            for l in range(h.shape[0]):
                assert s[l].tobytes() == guarded_scores(h[l], prompts[l]).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_predictions_equal_per_layer_loop(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(50):
            h, prompts = _random_stacks(rng)
            weights = rng.random(h.shape[0])
            ids = np.arange(h.shape[1])
            want = reference_predict(h, prompts, np.zeros(prompts.shape), weights, ids)
            assert np.array_equal(pr._predict_rows(h, prompts, weights), want)

    def test_training_and_evaluation_call_it(self, monkeypatch, synth_h90, ckpt_h90):
        calls = []
        real = nc.prompt_cosines

        def counted(h, prompts):
            calls.append(h.shape[1])
            return real(h, prompts)

        monkeypatch.setattr(tensor_ops, "prompt_cosines", counted)
        monkeypatch.setattr(pr, "prompt_cosines", counted)
        anchor_calls = _counting(monkeypatch, "anchors_from_matrices")
        split = gs.kshot_split(synth_h90, 5, seed=0)
        tcfg = pr.PromptTuneConfig(epochs=4, patience=None, seed=0, glora_mode="off")
        pr.run_prompt_tune(ckpt_h90, synth_h90, split, tcfg)
        # every epoch's loss on the training rows, then the test rows once
        assert calls == [split.train_ids.size] * 4 + [split.test_ids.size]
        assert len(anchor_calls) == 1


class TestDownstreamLoss:
    """The training loss as the unfused chain `nc.prompt_nll` must equal:
    softmax NLL of the scores, summed over items and layers."""

    def test_equal_scores_give_ln2_per_item_per_layer(self):
        prompts = zero_offsets([nc.Tensor([[1.0, 1.0], [1.0, 1.0]])])
        one = matrix_loss([nc.Tensor([[1.0, 0.0]])], prompts, np.array([0]), tau=1.0)
        assert one.item() == pytest.approx(math.log(2), abs=1e-12)
        # the loss sums per-item terms
        two = matrix_loss([nc.Tensor([[1.0, 0.0], [0.0, 1.0]])], prompts,
                          np.array([0, 1]), tau=1.0)
        assert two.item() == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_layer_sum_scaling(self):
        rng = np.random.default_rng(9)
        rows = nc.Tensor([rng.standard_normal(3)])
        anchor = nc.Tensor(rng.standard_normal((2, 3)))
        for layers in (1, 3):
            prompts = zero_offsets([anchor] * layers)
            loss = matrix_loss([rows] * layers, prompts, np.array([0]), tau=0.5)
            if layers == 1:
                single = loss.item()
        assert loss.item() == pytest.approx(3 * single, abs=1e-12)

    def test_gradient_wrt_theta(self):
        rng = np.random.default_rng(10)
        mats = [nc.Tensor(rng.standard_normal((4, 4))) for _ in range(2)]
        y = np.array([0, 1, 0, 1])
        anchors = [nc.Tensor(rng.standard_normal((2, 4))) for _ in range(2)]
        theta = [nc.Tensor(rng.standard_normal((2, 4)) * 0.1, requires_grad=True)
                 for _ in range(2)]

        def forward():
            prompts = ClassPromptSet(anchors=anchors, theta=theta)
            return matrix_loss(mats, prompts, y, tau=0.5)

        grads = nc.backward(forward())
        for l in range(2):
            fd = finite_diff(lambda: forward().item(), [theta[l]])[0]
            assert_grads_close(grads.get(theta[l]), fd, label=f"dTheta{l}")


def _adapted_layers(seed, n=9):
    """Every layer of a 3-class node encoder with moved adapter factors,
    and those factors."""
    g = gs.random_labeled_graph(n, 2 * n, 3, 4, seed=seed)
    cfg = enc.EncoderConfig(layers=2, dims=[4, 5, 5])
    rng = np.random.default_rng(seed)
    base = enc.init_encoder(cfg, rng)
    base.w_in.requires_grad = False
    for lp in base.layers:
        lp.w0.requires_grad = False
    params = enc.attach_glora(base, "full", 2, rng, num_nodes=n)
    factors = []
    for lp in params.layers:
        lp.q.data = 0.3 * rng.standard_normal(lp.q.shape)
        lp.qa.data = 0.3 * rng.standard_normal(lp.qa.shape)
        factors += [lp.p, lp.q, lp.pa, lp.qa]
    adj = gs.normalize_adjacency(g)
    return (lambda: forward(adj, g.features, params)), factors


def _offsets(rng, layers, width=5, classes=3):
    return [nc.Tensor(0.3 * rng.standard_normal((classes, width)), requires_grad=True)
            for _ in range(layers)]


class TestPromptNll:
    """The stage-two loss as one tape node: its VJP against finite
    differences, and loss and gradients bit for bit against the unfused chain
    of tape ops."""

    Y = np.array([0, 1, 2, 1, 0, 2, 2, 1, 0])
    ONE_ITEM = np.array([1, 1, 2, 1, 0, 2, 2, 1, 2])  # class 0 has one item

    @pytest.mark.parametrize("y", [Y, ONE_ITEM], ids=["layers", "one_item_class"])
    def test_finite_differences_through_the_encoder(self, y):
        layers, factors = _adapted_layers(seed=4)
        thetas = _offsets(np.random.default_rng(5), 3)

        def loss():
            return nc.prompt_nll(layers(), y, thetas, tau=0.5)

        grads = nc.backward(loss())
        wrt = factors + thetas
        for t, fd in zip(wrt, finite_diff(lambda: loss().item(), wrt)):
            assert_grads_close(grads.get(t), fd, label=str(t.shape))

    def test_finite_differences_last_layer_only(self):
        layers, factors = _adapted_layers(seed=6)
        thetas = _offsets(np.random.default_rng(7), 3)

        def loss():
            return nc.prompt_nll(layers()[-1:], self.Y, thetas[-1:], tau=0.5)

        grads = nc.backward(loss())
        wrt = factors + thetas[-1:]
        for t, fd in zip(wrt, finite_diff(lambda: loss().item(), wrt)):
            assert_grads_close(grads.get(t), fd, label=str(t.shape))
        # offsets of unscored layers are not on the tape
        assert all(t not in grads for t in thetas[:-1])

    def test_untracked_matrix_gets_no_gradient(self):
        rng = np.random.default_rng(8)
        frozen = nc.Tensor(rng.standard_normal((9, 5)))
        tracked = nc.Tensor(rng.standard_normal((9, 5)), requires_grad=True)
        thetas = _offsets(rng, 2)
        out = nc.prompt_nll([frozen, tracked], self.Y, thetas, tau=0.5)
        products = out._vjp(np.ones((1, 1)))
        assert products[0] is None
        assert products[1].shape == tracked.shape
        grads = nc.backward(out)
        assert frozen not in grads
        wrt = [tracked] + thetas
        fds = finite_diff(lambda: nc.prompt_nll([frozen, tracked], self.Y, thetas,
                                                tau=0.5).item(), wrt)
        for t, fd in zip(wrt, fds):
            assert_grads_close(grads.get(t), fd, label=str(t.shape))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scored", ["all", "last"])
    @pytest.mark.parametrize("y", [Y, ONE_ITEM], ids=["layers", "one_item_class"])
    def test_equals_unfused_chain_bitwise(self, seed, scored, y):
        layers, factors = _adapted_layers(seed=seed)
        thetas = _offsets(np.random.default_rng(seed + 10), 3)
        keep = slice(None) if scored == "all" else slice(-1, None)
        results = []
        for loss_of in (nc.prompt_nll, unfused_prompt_nll):
            mats = layers()
            loss = loss_of(mats[keep], y, thetas[keep], 0.5)
            grads = nc.backward(loss)
            results.append([loss.data] + [grads.get(t) for t in factors + thetas])
        for ours, chain in zip(*results):
            assert np.array_equal(ours, chain)
            assert ours.tobytes() == chain.tobytes()

    def test_empty_class_named(self):
        thetas = _offsets(np.random.default_rng(9), 1, width=2)
        with pytest.raises(SplitError, match="class 2"):
            nc.prompt_nll([nc.Tensor(np.ones((2, 2)))], np.array([0, 1]), thetas, 0.5)

    def _guarded_loss(self, mat, theta, tau=0.5):
        """The summed NLL of `mat`'s rows, scored as the evaluation scores
        them (`guarded_scores`), against class means plus `theta`."""
        prompts = pr.anchors_from_matrices([mat], self.Y, 3)[0] + theta
        z = guarded_scores(mat, prompts) / tau
        z = z - z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return -logp[np.arange(self.Y.size), self.Y].sum()

    def test_zero_norm_row_scores_zero(self):
        mat = np.random.default_rng(10).standard_normal((9, 5))
        mat[4] = 0.0
        thetas = _offsets(np.random.default_rng(11), 1)
        rows = nc.Tensor(mat, requires_grad=True)
        loss = nc.prompt_nll([rows], self.Y, thetas, 0.5)
        # the row scores 0 against every prompt, as in the evaluation
        want = self._guarded_loss(mat, thetas[0].data)
        assert abs(loss.item() - want) <= 1e-13 * want
        grads = nc.backward(loss)
        # nothing flows through its cosines: its gradient is its share of its
        # class's mean, the prompt's gradient over the class's item count
        share = grads.get(thetas[0])[self.Y[4]] / np.sum(self.Y == self.Y[4])
        assert grads.get(rows)[4].tobytes() == share.tobytes()
        # elsewhere the loss is smooth, and the tape's gradient its slope
        def perturbed():
            return nc.prompt_nll([nc.Tensor(mat)], self.Y, thetas, 0.5).item()

        fd = finite_diff(perturbed, thetas)[0]
        assert_grads_close(grads.get(thetas[0]), fd, label="offsets")
        live = np.ones(mat.shape, dtype=bool)
        live[4] = False
        step = 1e-5
        for i, j in zip(*np.nonzero(live)):
            bumped = [mat.copy(), mat.copy()]
            bumped[0][i, j] += step
            bumped[1][i, j] -= step
            up, down = (nc.prompt_nll([nc.Tensor(m)], self.Y, thetas, 0.5).item()
                        for m in bumped)
            assert_grads_close(grads.get(rows)[i, j], (up - down) / (2 * step),
                               label=f"row {i}")

    def test_zero_norm_prompt_scores_zero(self):
        mat = np.random.default_rng(12).standard_normal((9, 5))
        anchors = pr.anchors_from_matrices([mat], self.Y, 3)[0]
        thetas = _offsets(np.random.default_rng(13), 1)
        thetas[0].data[0] = -anchors[0]  # class 0's prompt is zero
        loss = nc.prompt_nll([nc.Tensor(mat, requires_grad=True)], self.Y, thetas, 0.5)
        want = self._guarded_loss(mat, thetas[0].data)
        assert abs(loss.item() - want) <= 1e-13 * want
        grads = nc.backward(loss).get(thetas[0])
        assert not np.any(grads[0]) and np.all(np.abs(grads[1:]) > 0)

    def test_non_finite_output_names_the_op(self):
        mat = nc.Tensor(np.random.default_rng(13).standard_normal((9, 5)))
        thetas = _offsets(np.random.default_rng(14), 1)
        # scores / tau overflow, so the max-shifted logits are inf - inf
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match=r"prompt_nll: non-finite .*\(1, 1\)"):
            nc.prompt_nll([mat], self.Y, thetas, 1e-320)

    def test_bad_arguments_rejected(self):
        mat = nc.Tensor(np.ones((9, 5)))
        thetas = _offsets(np.random.default_rng(15), 2)
        with pytest.raises(ParameterError, match="tau"):
            nc.prompt_nll([mat], self.Y, thetas[:1], 0.0)
        with pytest.raises(ParameterError, match="targets"):
            nc.prompt_nll([mat], self.Y + 1, thetas[:1], 0.5)
        with pytest.raises(DimensionError, match="one offset matrix per layer"):
            nc.prompt_nll([mat], self.Y, thetas, 0.5)
        with pytest.raises(DimensionError, match="layer 0"):
            nc.prompt_nll([nc.Tensor(np.ones((8, 5)))], self.Y, thetas[:1], 0.5)

    def test_layers_of_unequal_width_rejected(self):
        rng = np.random.default_rng(16)
        mats = [nc.Tensor(rng.standard_normal((9, w))) for w in (5, 5, 4)]
        thetas = [nc.Tensor(np.zeros((3, w))) for w in (5, 5, 4)]
        with pytest.raises(DimensionError,
                           match=r"prompt_nll: layer 2 is \(9, 4\) .* and width 5"):
            nc.prompt_nll(mats, self.Y, thetas, 0.5)


class TestRunPromptTune:
    def test_zero_lr_equals_prototype_classifier(self, synth_h90, ckpt_h90):
        split = gs.kshot_split(synth_h90, 5, seed=0)
        tcfg = pr.PromptTuneConfig(lr=0.0, epochs=8, seed=0, alpha=0.5,
                                   glora_mode="full")
        _params, result = pr.run_prompt_tune(ckpt_h90, synth_h90, split, tcfg)
        oracle = _prototype_oracle(ckpt_h90, synth_h90, split, alpha=0.5)
        assert result.test_accuracy == pytest.approx(oracle)

    def test_zero_init_matches_prototype_before_training(self, synth_h90, ckpt_h90):
        split = gs.kshot_split(synth_h90, 5, seed=1)
        tcfg = pr.PromptTuneConfig(epochs=0, seed=0, alpha=0.3, glora_mode="full")
        _params, result = pr.run_prompt_tune(ckpt_h90, synth_h90, split, tcfg)
        oracle = _prototype_oracle(ckpt_h90, synth_h90, split, alpha=0.3)
        assert result.test_accuracy == pytest.approx(oracle)

    def test_deterministic(self, synth_h90, ckpt_h90):
        split = gs.kshot_split(synth_h90, 5, seed=2)
        tcfg = pr.PromptTuneConfig(epochs=15, seed=7, lr=5e-4)
        _p1, r1 = pr.run_prompt_tune(ckpt_h90, synth_h90, split, tcfg)
        _p2, r2 = pr.run_prompt_tune(ckpt_h90, synth_h90, split, tcfg)
        assert r1.test_accuracy == r2.test_accuracy
        assert r1.train_losses == r2.train_losses

    def test_beats_random_on_homophilous_graph(self, synth_h90, ckpt_h90):
        split = gs.kshot_split(synth_h90, 5, seed=3)
        tcfg = pr.PromptTuneConfig(epochs=60, seed=0, lr=5e-4, alpha=0.5)
        _params, result = pr.run_prompt_tune(ckpt_h90, synth_h90, split, tcfg)
        random_baseline = 1.0 / synth_h90.num_classes
        assert result.test_accuracy >= random_baseline + 0.30

    def test_loss_decreases_early(self, synth_h10, ckpt_h10):
        split = gs.kshot_split(synth_h10, 5, seed=4)
        tcfg = pr.PromptTuneConfig(epochs=10, seed=0, lr=1e-3, alpha=0.9)
        _params, result = pr.run_prompt_tune(ckpt_h10, synth_h10, split, tcfg)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_frozen_base_never_moves(self, synth_h90, ckpt_h90):
        split = gs.kshot_split(synth_h90, 5, seed=5)
        tcfg = pr.PromptTuneConfig(epochs=10, seed=0, lr=1e-3)
        params, _result = pr.run_prompt_tune(ckpt_h90, synth_h90, split, tcfg)
        reloaded, _cfg = enc.checkpoint_load(ckpt_h90)
        assert params.w_in.data.tobytes() == reloaded.w_in.data.tobytes()
        for a, b in zip(params.layers, reloaded.layers):
            assert a.w0.data.tobytes() == b.w0.data.tobytes()

    def test_prediction_scale_invariance(self):
        rng = np.random.default_rng(12)
        data = [rng.standard_normal((6, 5)) for _ in range(3)]
        anchors = [rng.standard_normal((4, 5)) for _ in range(3)]
        gamma = pr.init_gamma(0.3, 2).data[0]
        base = predict(data, gamma, anchors=anchors)
        for c in (0.5, 2.0, 10.0):
            scaled = [c * h for h in data]
            np.testing.assert_array_equal(predict(scaled, gamma, anchors=anchors), base)

    def test_graph_task_tuning(self, tmp_path):
        base = gs.random_labeled_graph(60, 240, 3, 8, seed=13, class_sep=1.5)
        items = gs.build_graph_task(base, hops=1)
        cfg = enc.EncoderConfig(layers=2, dims=[8, 16, 16])
        import hopprompt.pretrain as pt
        pt.run_pretrain(items, cfg, pt.PretrainConfig(epochs=20, lr=5e-3, seed=0),
                        out_path=tmp_path / "g.dagp")
        split = gs.kshot_split(items, 3, seed=0)
        tcfg = pr.PromptTuneConfig(epochs=25, seed=0, lr=1e-3, glora_mode="full")
        _params, result = pr.run_prompt_tune(tmp_path / "g.dagp", items, split, tcfg)
        assert result.test_accuracy >= 1.0 / 3

    def test_edge_subset_mode_runs(self, synth_h90, ckpt_h90):
        split = gs.kshot_split(synth_h90, 5, seed=6)
        tcfg = pr.PromptTuneConfig(epochs=10, seed=0, lr=1e-3,
                                   glora_mode="edge_subset")
        _params, result = pr.run_prompt_tune(ckpt_h90, synth_h90, split, tcfg)
        assert 0.0 <= result.test_accuracy <= 1.0
        assert result.trainable_encoder > 0


def _counting(monkeypatch, name):
    calls = []
    real = getattr(pr, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(pr, name, counted)
    return calls


@pytest.fixture(scope="module")
def tiny_graph_task(tmp_path_factory):
    base = gs.random_labeled_graph(30, 90, 3, 6, seed=21, class_sep=1.5)
    items = gs.build_graph_task(base, hops=1)
    path = tmp_path_factory.mktemp("graph") / "g.dagp"
    import hopprompt.pretrain as pt
    pt.run_pretrain(items, enc.EncoderConfig(layers=2, dims=[6, 8, 8]),
                    pt.PretrainConfig(epochs=5, lr=5e-3, seed=0), out_path=path)
    return items, gs.kshot_split(items, 2, seed=0), path


class TestFrozenForwardHoist:
    """With glora_mode=off nothing in the encoder trains, so stage two runs
    the encoder once for all epochs, and the run is bit for bit the run that
    recomputes it every epoch. In every mode the input map is frozen, so a
    graph task maps its training batch's features once, bitwise too."""

    @pytest.mark.parametrize("mode", ["off", "full"])
    @pytest.mark.parametrize("epochs", [1, 4, 9])
    def test_node_loop_runs_the_frozen_encoder_once(self, monkeypatch, synth_h90,
                                                    ckpt_h90, mode, epochs):
        calls = _counting(monkeypatch, "encoder_forward")
        split = gs.kshot_split(synth_h90, 3, seed=0)
        tcfg = pr.PromptTuneConfig(epochs=epochs, patience=None, seed=0, lr=1e-3,
                                   glora_mode=mode)
        _params, result = pr.run_prompt_tune(ckpt_h90, synth_h90, split, tcfg)
        assert len(result.train_losses) == epochs
        # one per epoch the loop computes (the frozen encoder's once, on the
        # training rows' receptive field), plus one full forward to evaluate
        assert len(calls) == (2 if mode == "off" else epochs + 1)

    @pytest.mark.parametrize("epochs", [2, 6])
    def test_graph_loop_runs_the_frozen_encoder_once(self, monkeypatch,
                                                     tiny_graph_task, epochs):
        items, split, path = tiny_graph_task
        calls = _counting(monkeypatch, "graph_tokens")
        tcfg = pr.PromptTuneConfig(epochs=epochs, patience=None, seed=0, lr=1e-3,
                                   glora_mode="off")
        pr.run_prompt_tune(path, items, split, tcfg)
        # one batched forward of the training items, one of every item to
        # evaluate
        assert len(calls) == 2

    @pytest.mark.parametrize("epochs", [2, 6])
    def test_graph_loop_maps_the_input_once(self, monkeypatch, tiny_graph_task,
                                            epochs):
        items, split, path = tiny_graph_task
        rows = []
        real = pr.forward_start

        def counted(adj, x, params, ids=None, pool=None):
            rows.append(x.rows)
            return real(adj, x, params, ids, pool)

        monkeypatch.setattr(pr, "forward_start", counted)
        tcfg = pr.PromptTuneConfig(epochs=epochs, patience=None, seed=0, lr=1e-3,
                                   glora_mode="full")
        pr.run_prompt_tune(path, items, split, tcfg)
        # X W_in of the training batch once for every epoch, then of every
        # item once to evaluate
        train_nodes = sum(items.graphs[int(i)].num_nodes for i in split.train_ids)
        assert rows == [train_nodes, sum(g.num_nodes for g in items.graphs)]

    @pytest.mark.parametrize("ablation", ["plain", "last_layer_only"])
    def test_graph_run_from_frozen_input_equals_per_epoch_map(
            self, monkeypatch, tiny_graph_task, ablation):
        items, split, path = tiny_graph_task
        tcfg = pr.PromptTuneConfig(epochs=12, patience=3, seed=1, lr=1e-2,
                                   glora_mode="full", weight_decay=5e-6,
                                   last_layer_only=ablation == "last_layer_only")
        ours_params, ours = pr.run_prompt_tune(path, items, split, tcfg)
        real_tokens, real_start, made = pr.graph_tokens, pr.forward_start, {}

        def recorded_start(*args, **kwargs):
            start = real_start(*args, **kwargs)
            made[id(start)] = (args, kwargs)
            return start

        def fresh_tokens(start):
            args, kwargs = made[id(start)]
            return real_tokens(real_start(*args, **kwargs))

        # every call starts its forward afresh
        monkeypatch.setattr(pr, "forward_start", recorded_start)
        monkeypatch.setattr(pr, "graph_tokens", fresh_tokens)
        per_epoch_params, per_epoch = pr.run_prompt_tune(path, items, split, tcfg)
        assert ours.train_losses == per_epoch.train_losses
        assert ours.best_epoch == per_epoch.best_epoch
        assert ours.predictions.tobytes() == per_epoch.predictions.tobytes()
        adapters = [p.adapters()
                    for p in (ours_params, per_epoch_params)]
        for a, b in zip(*adapters):
            assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("ablation", ["plain", "last_layer_only", "fixed_gamma"])
    def test_hoisted_run_equals_per_epoch_run(self, monkeypatch, synth_h10,
                                              ckpt_h10, tiny_graph_task, ablation):
        tcfg = pr.PromptTuneConfig(epochs=12, patience=3, seed=1, lr=1e-2,
                                   glora_mode="off",
                                   last_layer_only=ablation == "last_layer_only",
                                   fixed_gamma=ablation == "fixed_gamma")
        items, graph_split, graph_ckpt = tiny_graph_task
        cases = [(ckpt_h10, synth_h10, gs.kshot_split(synth_h10, 5, seed=2)),
                 (graph_ckpt, items, graph_split)]
        for ckpt, data, split in cases:
            _p, hoisted = pr.run_prompt_tune(ckpt, data, split, tcfg)
            with monkeypatch.context() as m:
                m.setattr(pr, "_once_if_frozen", lambda forward, _trainables: forward)
                _p, per_epoch = pr.run_prompt_tune(ckpt, data, split, tcfg)
            assert hoisted.train_losses == per_epoch.train_losses
            assert hoisted.best_epoch == per_epoch.best_epoch
            assert np.array_equal(hoisted.predictions, per_epoch.predictions)


class TestGraphTaskLoop:
    """The batched graph task matches the per-item loop: pooling is a sum of
    h/n rather than a mean and the weight gradient one product over all
    nodes, so losses agree to rounding and every decision is the same."""

    @pytest.mark.parametrize("mode", ["off", "full"])
    @pytest.mark.parametrize("ablation", ["plain", "last_layer_only", "fixed_gamma"])
    def test_equals_per_item_oracle(self, tiny_graph_task, mode, ablation):
        items, split, path = tiny_graph_task
        tcfg = pr.PromptTuneConfig(epochs=40, patience=3, seed=3, lr=0.2,
                                   glora_mode=mode,
                                   last_layer_only=ablation == "last_layer_only",
                                   fixed_gamma=ablation == "fixed_gamma")
        _params, result = pr.run_prompt_tune(path, items, split, tcfg)
        preds, losses, best_epoch = reference_graph_tune(path, items, split, tcfg)
        np.testing.assert_array_equal(result.predictions, preds)
        assert result.best_epoch == best_epoch
        assert len(result.train_losses) == len(losses)
        np.testing.assert_allclose(result.train_losses, losses, rtol=1e-12, atol=0)


class TestReceptiveFieldTraining:
    """Node-task training on the training rows' receptive field takes every
    decision the full-forward training path takes; the weight gradients are
    summed over fewer rows, so losses agree to rounding."""

    @pytest.mark.parametrize("mode", ["full", "edge_subset"])
    @pytest.mark.parametrize("ablation", ["plain", "last_layer_only", "fixed_gamma"])
    def test_equals_full_forward_oracle(self, monkeypatch, synth_h10, ckpt_h10,
                                        mode, ablation):
        split = gs.kshot_split(synth_h10, 5, seed=2)
        tcfg = pr.PromptTuneConfig(epochs=40, patience=5, seed=1, lr=1e-2,
                                   glora_mode=mode,
                                   last_layer_only=ablation == "last_layer_only",
                                   fixed_gamma=ablation == "fixed_gamma")
        ours_params, ours = pr.run_prompt_tune(ckpt_h10, synth_h10, split, tcfg)
        monkeypatch.setattr(enc, "forward_plan", full_rows_plan)
        oracle_params, oracle = pr.run_prompt_tune(ckpt_h10, synth_h10, split, tcfg)
        np.testing.assert_array_equal(ours.predictions, oracle.predictions)
        assert ours.test_accuracy == oracle.test_accuracy
        assert ours.best_epoch == oracle.best_epoch
        assert len(ours.train_losses) == len(oracle.train_losses)
        np.testing.assert_allclose(ours.train_losses, oracle.train_losses,
                                   rtol=1e-12, atol=0)
        adapters = [p.adapters()
                    for p in (ours_params, oracle_params)]
        for a, b in zip(*adapters):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-9, atol=1e-12)


class TestNodeStageTwoTrainsEveryAdapter:
    """Node-task stage two trains every adapter factor: the zero-initialised
    ones (Q, QA, edge weights) all move off zero, which also needs a
    gradient to reach each of them through the encoder's layers."""

    @pytest.mark.parametrize("mode", ["full", "edge_subset"])
    def test_zero_initialised_factors_move(self, synth_h10, ckpt_h10, mode):
        split = gs.kshot_split(synth_h10, 5, seed=2)
        tcfg = pr.PromptTuneConfig(epochs=3, patience=None, seed=0, lr=1e-3,
                                   glora_mode=mode)
        params, _result = pr.run_prompt_tune(ckpt_h10, synth_h10, split, tcfg)
        attrs = ("q", "qa") if mode == "full" else ("q", "edge_weights")
        for l, lp in enumerate(params.layers):
            for attr in attrs:
                assert np.any(getattr(lp, attr).data != 0.0), f"layer {l} {attr}"


class TestFullGloraEpochProducts:
    """During a full-mode node tune's epochs no product multiplies an
    (N, d) operand by a (d, d) one: the frozen first layer's is computed
    once per call, and every adapter enters through a rank-(r+1) update.
    A layer's own products run inside `numcore.lowrank_layer`, which forms
    agg W0 only when it is not handed that base, so each call that
    aggregates N rows must be handed it."""

    def test_no_node_by_weight_product_per_epoch(self, monkeypatch, synth_h10,
                                                  ckpt_h10):
        shapes, layers, in_epochs = [], [], [False]
        real_matmul, real_layer, real_fit = enc.matmul, enc.lowrank_layer, pr.fit

        def matmul(a, b):
            if in_epochs[0]:
                shapes.append((a.shape, b.shape))
            return real_matmul(a, b)

        def lowrank_layer(agg, w0, p, q, base=None, **adjacency):
            if in_epochs[0]:
                layers.append((agg.shape, w0.shape, base is not None))
            return real_layer(agg, w0, p, q, base, **adjacency)

        def fit(*args, **kwargs):
            in_epochs[0] = True
            try:
                return real_fit(*args, **kwargs)
            finally:
                in_epochs[0] = False

        monkeypatch.setattr(enc, "matmul", matmul)
        monkeypatch.setattr(enc, "lowrank_layer", lowrank_layer)
        monkeypatch.setattr(pr, "fit", fit)
        split = gs.kshot_split(synth_h10, 5, seed=2)
        tcfg = pr.PromptTuneConfig(epochs=4, patience=None, seed=0, lr=1e-3,
                                   glora_mode="full")
        pr.run_prompt_tune(ckpt_h10, synth_h10, split, tcfg)
        n, d = synth_h10.num_nodes, encoder_config().hidden_dim
        assert len(layers) == 4 * 2, "one adapted-layer op per layer and epoch"
        dense = [s for s in shapes if s == ((n, d), (d, d))]
        dense += [(a, w) for a, w, given in layers if a == (n, d) and w == (d, d)
                  and not given]
        assert not dense, f"{len(dense)} (N, d) x (d, d) products in 4 epochs"
        # the N-row layer is there, and it is handed its base
        assert ((n, d), (d, d), True) in layers


class TestCollapsedTrainingRow:
    def test_scores_zero_in_training_and_evaluation(self):
        # node 0 is isolated with zero features, so every layer's row of it
        # is zero: training scores it 0 against every prompt, as the
        # evaluation does, and the tune runs to its end
        feats = np.random.default_rng(0).standard_normal((6, 3))
        feats[0] = 0.0
        g = gs.Graph(num_nodes=6, edges=gs.canonical_edges([(1, 2), (2, 3), (3, 4), (4, 5)], 6),
                     features=nc.Tensor(feats), labels=np.array([0, 1, 0, 1, 0, 1]),
                     num_classes=2)
        split = gs.SplitSpec(train_ids=np.array([0, 1, 2, 3]), test_ids=np.array([4, 5]),
                             shots=2, seed=0)
        cfg = enc.EncoderConfig(layers=2, dims=[3, 4, 4])
        params = enc.init_encoder(cfg, np.random.default_rng(1))
        tcfg = pr.PromptTuneConfig(epochs=5, seed=0, lr=2e-3, glora_mode="full",
                                   patience=None)
        _params, result = pr.run_prompt_tune(params, g, split, tcfg)
        assert len(result.train_losses) == 5
        # the first epoch's loss is the guarded scores' (the fresh adapters
        # leave the frozen forward as it is)
        adj = gs.normalize_adjacency(g)
        stack = forward(adj, g.features, enc.own_base(params, trainable=False))
        y = g.labels[split.train_ids]
        want = 0.0
        for h in stack:
            rows = h.data[split.train_ids]
            assert not np.any(rows[0])
            scores = guarded_scores(rows, anchor_arrays([rows], np.arange(4), y, 2)[0])
            assert not np.any(scores[0])
            z = scores / tcfg.tau
            z = z - z.max(axis=1, keepdims=True)
            want -= (z - np.log(np.exp(z).sum(axis=1, keepdims=True)))[np.arange(4), y].sum()
        assert abs(result.train_losses[0] - want) <= 1e-12 * want


class TestZeroNormTestRow:
    """Evaluation scores a zero-norm row 0 against every class, as training
    does (TestCollapsedTrainingRow): a collapsed test item still gets a
    prediction."""

    @pytest.mark.parametrize("mode", ["off", "edge_subset", "full"])
    def test_isolated_zero_feature_test_item_is_predicted(self, mode):
        # node 0 is isolated with zero features and is a test item
        feats = np.random.default_rng(3).standard_normal((7, 3))
        feats[0] = 0.0
        g = gs.Graph(num_nodes=7,
                     edges=gs.canonical_edges([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)], 7),
                     features=nc.Tensor(feats), labels=np.array([1, 0, 1, 0, 1, 0, 1]),
                     num_classes=2)
        split = gs.SplitSpec(train_ids=np.array([1, 2, 3, 4]),
                             test_ids=np.array([0, 5, 6]), shots=2, seed=0)
        cfg = enc.EncoderConfig(layers=2, dims=[3, 4, 4])
        params = enc.init_encoder(cfg, np.random.default_rng(1))
        tcfg = pr.PromptTuneConfig(epochs=5, seed=0, lr=2e-3, glora_mode=mode)
        _params, result = pr.run_prompt_tune(params, g, split, tcfg)
        assert len(result.train_losses) == 5
        assert result.predictions.shape == (3,)
        assert set(result.predictions.tolist()) <= {0, 1}
        if mode != "full":
            # no adapter reaches the isolated row, so every layer's row is
            # zero, every score 0 and the argmax the first class
            assert result.predictions[0] == 0


@pytest.mark.parametrize("name,shots", [("web-tiny", 2), ("syn-h10", 5),
                                        ("syn-h90", 5), ("ego-tiny", 2)])
def test_loss_strictly_decreases_on_bundled_fixtures(name, shots, tmp_path):
    # trainability: at least one grid learning rate drives the loss strictly
    # down over the first 10 epochs
    data = gs.load_dataset(f"datasets/{name}")
    feature_dim = (data.graphs[0] if isinstance(data, gs.GraphSet)
                   else data).num_features
    cfg = enc.EncoderConfig(layers=2, dims=[feature_dim, 32, 32])
    import hopprompt.pretrain as pt
    pt.run_pretrain(data, cfg, pt.PretrainConfig(epochs=30, lr=5e-3, seed=0,
                                                 batch_size=512),
                    out_path=tmp_path / "m.dagp")
    split = gs.kshot_split(data, shots, seed=0)
    for lr in (1e-3, 5e-4, 1e-4):
        tcfg = pr.PromptTuneConfig(lr=lr, epochs=10, seed=0, alpha=0.5,
                                   patience=None)
        _p, res = pr.run_prompt_tune(tmp_path / "m.dagp", data, split, tcfg)
        if all(b < a for a, b in zip(res.train_losses, res.train_losses[1:])):
            return
    pytest.fail(f"no grid lr drove the loss strictly down on {name}")


def _prototype_oracle(ckpt, g, split, alpha):
    """Frozen-encoder prototype classifier computed with plain numpy."""
    params, cfg = enc.checkpoint_load(ckpt)
    adj = gs.normalize_adjacency(g)
    stack = forward(adj, g.features, params)
    gamma = pr.init_gamma(alpha, cfg.layers).data[0]
    y_train = g.labels[split.train_ids]
    correct = 0
    for idx, node in enumerate(split.test_ids):
        combined = np.zeros(g.num_classes)
        for l, h in enumerate(stack):
            hd = h.data
            anchors = np.stack([hd[split.train_ids][y_train == c].mean(axis=0)
                                for c in range(g.num_classes)])
            u = hd[node]
            sims = anchors @ u / (np.linalg.norm(anchors, axis=1) * np.linalg.norm(u))
            combined += gamma[l] * sims
        correct += int(np.argmax(combined) == g.labels[node])
    return correct / len(split.test_ids)
