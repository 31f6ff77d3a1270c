"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 7-9 share a session-scoped checkpoint cache, so the ten pre-training
runs per graph happen once. Real Texas/Cora copies are used for criterion 6
when datasets/texas and datasets/cora exist (see scripts/fetch_webkb.py);
otherwise the synthetic-generator fallback branch runs.
"""

import importlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hopprompt.encoder as enc
import hopprompt.pretrain as pt
import hopprompt.prompt as pr
from hopprompt import graphstore as gs
from hopprompt import harness as hn
from hopprompt import numcore as nc

from tests._oracles import (
    add,
    finite_diff,
    glora_param_count,
    hstack,
    mean_rows,
    prompt_param_count,
    random_csr,
    rank_one_update_spmm,
    recorded_op_names,
    scale,
    sub,
    sum_all,
    transpose,
    unfused_prompt_nll,
    vstack,
)

BUNDLED = ["datasets/syn-h10", "datasets/syn-h90", "datasets/web-tiny",
           "datasets/ego-tiny"]


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def rel_err(analytic, numeric):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float((np.abs(analytic - numeric) / denom).max())


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return hn.CheckpointCache(tmp_path_factory.mktemp("acceptance-ckpts"))


@pytest.fixture(scope="module")
def syn_h10():
    return gs.load_dataset("datasets/syn-h10")


@pytest.fixture(scope="module")
def syn_h20(syn_h10):
    return gs.synth_rewire(syn_h10, 0.2, seed=11)


def ordering_config(mode, *, shots=None, train_fraction=None, seeds, epochs=150):
    return hn.ExperimentConfig(
        dataset="datasets/syn-h10", mode=mode, shots=shots,
        train_fraction=train_fraction, seeds=seeds,
        grid=hn.GridSpec(lr=[1e-3], weight_decay=[0.0], hidden=[128], rank=[8],
                         alpha=[0.9]),
        epochs=epochs, pretrain_epochs=100, batch_size=1024,
    )


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness, < 10 s
# ---------------------------------------------------------------------------

def gradient_checks() -> float:
    """Criterion 01's finite-difference checks; returns the largest relative
    error between a tape gradient and central differences."""
    rng = np.random.default_rng(0)
    worst = 0.0

    def fd_check(build_loss, params):
        nonlocal worst
        grads = nc.backward(build_loss())
        fds = finite_diff(lambda: build_loss().item(), params)
        for p, fd in zip(params, fds):
            worst = max(worst, rel_err(grads.get(p), fd))

    # dense primitives
    a = nc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = nc.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    fd_check(lambda: sum_all(nc.matmul(a, b)), [a, b])
    fd_check(lambda: sum_all(nc.relu(nc.matmul(a, b))), [a, b])
    fd_check(lambda: sum_all(transpose(a)), [a])
    c = nc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    fd_check(lambda: sum_all(add(a, c)), [a, c])
    fd_check(lambda: sum_all(sub(a, c)), [a, c])
    fd_check(lambda: sum_all(scale(a, -1.7)), [a])
    fd_check(lambda: sum_all(mean_rows(a)), [a])
    fd_check(lambda: sum_all(nc.gather_rows(a, [0, 0, 2])), [a])
    fd_check(lambda: sum_all(nc.scatter_rows(a, [1, 4, 1], 6)), [a])
    fd_check(lambda: sum_all(vstack([a, c])), [a, c])
    fd_check(lambda: sum_all(hstack([a, c])), [a, c])
    h = nc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    p = nc.Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    fd_check(lambda: sum_all(nc.row_cosine_sim(h, p)), [h, p])
    fd_check(lambda: sum_all(nc.rowwise_cosine_sim(a, c)), [a, c])
    fd_check(lambda: nc.softmax_nll(nc.matmul(a, b), [0, 1, 0], 0.7), [a, b])

    # sparse primitives
    offs, cidx, vals, _ = random_csr(rng, 5, 5, density=0.4)
    s = nc.SparseMatrix((5, 5), offs, cidx, vals)
    d = nc.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    v = nc.Tensor(rng.standard_normal((s.nnz, 1)), requires_grad=True)
    # the frozen product plus an update of every entry, one weight each
    every = nc.EdgePattern(s, np.arange(s.nnz), np.arange(s.nnz), s.nnz)
    fd_check(lambda: sum_all(nc.edge_update(nc.spmm(s, d), every, v, d)), [d, v])
    pv = nc.Tensor(rng.standard_normal((5, 1)), requires_grad=True)
    qv = nc.Tensor(rng.standard_normal((5, 1)), requires_grad=True)
    fd_check(lambda: sum_all(rank_one_update_spmm(s, pv, qv, d)), [pv, qv, d])

    # composite contrastive pre-training loss on a 6-node instance
    g6 = gs.random_labeled_graph(6, 9, 2, 4, seed=1)
    adj6 = gs.normalize_adjacency(g6)
    cfg6 = enc.EncoderConfig(layers=2, dims=[4, 5, 5])
    params6 = enc.init_encoder(cfg6, rng)
    trips = pt.build_triplets(g6, 1, seed=2)

    def contrastive_composite():
        stack = enc.encoder_forward(enc.forward_start(adj6, g6.features, params6))
        return pt.pretrain_loss(stack, adj6, trips, tau=0.5)

    fd_check(contrastive_composite, [params6.w_in, params6.layers[0].w0, params6.layers[1].w0])

    # composite downstream loss on an 8-node instance, through anchors,
    # offsets, and every adapter factor
    g8 = gs.random_labeled_graph(8, 14, 2, 4, seed=3)
    adj8 = gs.normalize_adjacency(g8)
    base_cfg = enc.EncoderConfig(layers=2, dims=[4, 6, 6])
    base = enc.init_encoder(base_cfg, rng)
    base.w_in.requires_grad = False
    for lp in base.layers:
        lp.w0.requires_grad = False
    adapted = enc.attach_glora(base, "full", 2, rng, num_nodes=8)
    train_ids = np.array([0, 1, 2, 3])
    y_train = g8.labels[train_ids]
    theta = [nc.Tensor(0.1 * rng.standard_normal((2, 6)), requires_grad=True)
             for _ in range(3)]

    def prompt_composite(loss_of):
        def build():
            stack = enc.encoder_forward(enc.forward_start(adj8, g8.features, adapted))
            mats = [nc.gather_rows(hh, train_ids) for hh in stack]
            return loss_of(mats, y_train, theta, 0.5)
        return build

    prompt_params = theta + [adapted.layers[0].p, adapted.layers[0].q,
                          adapted.layers[0].pa, adapted.layers[0].qa,
                          adapted.layers[1].p, adapted.layers[1].q]
    # the chain of tape ops, and the one node stage two trains through
    fd_check(prompt_composite(unfused_prompt_nll), prompt_params)
    fd_check(prompt_composite(nc.prompt_nll), prompt_params)

    # one GLoRA-adapted layer, with its own draws so that the instances
    # above stay as they were: the projection update alone, and with the
    # adjacency factors of agg = A h under a non-uniform upstream
    lrng = np.random.default_rng(1)
    agg, w0, pl, ql, hl = (nc.Tensor(lrng.standard_normal(shape), requires_grad=True)
                           for shape in [(3, 4), (4, 5), (4, 2), (5, 2), (6, 4)])
    pal = nc.Tensor(lrng.standard_normal((3, 1)), requires_grad=True)
    qal = nc.Tensor(lrng.standard_normal((6, 1)), requires_grad=True)
    fd_check(lambda: sum_all(nc.lowrank_layer(agg, w0, pl, ql)), [agg, w0, pl, ql])
    fd_check(lambda: nc.softmax_nll(
        nc.lowrank_layer(agg, w0, pl, ql, h=hl, pa=pal, qa=qal), [0, 4, 2], 0.7),
        [agg, w0, pl, ql, hl, pal, qal])
    return worst


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    worst = gradient_checks()
    elapsed = time.perf_counter() - t0
    check(1, "gradient correctness",
          worst < 1e-4 and elapsed < 10.0,
          f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_01_checks_every_tape_op(monkeypatch):
    """Every op `numcore` records on the tape runs under criterion 01's
    finite-difference checks, so no op, fused or not, lands unchecked."""
    ops = recorded_op_names()
    assert {"matmul", "spmm", "edge_update", "lowrank_layer", "prompt_nll"} <= set(ops)
    seen = set()
    for module_name in set(ops.values()):
        module = importlib.import_module(module_name)

        def spy(op, *args, _real=module._record):
            seen.add(op)
            return _real(op, *args)

        monkeypatch.setattr(module, "_record", spy)
    gradient_checks()
    missing = sorted(set(ops) - seen)
    assert not missing, f"criterion 01 checks no instance of {missing}"


# ---------------------------------------------------------------------------
# criterion 2: zero-adaptation identity on 100 random inputs
# ---------------------------------------------------------------------------

def test_criterion_02_zero_adaptation_identity():
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(4, 12))
        f = int(rng.integers(3, 7))
        g = gs.random_labeled_graph(n, min(2 * n, n * (n - 1) // 2), 2, f,
                                    seed=trial)
        adj = gs.normalize_adjacency(g)
        cfg_off = enc.EncoderConfig(layers=2, dims=[f, 8, 8])
        params = enc.own_base(enc.init_encoder(cfg_off, rng), trainable=False)
        frozen = enc.encoder_forward(enc.forward_start(adj, g.features, params))
        mode = "full" if trial % 2 == 0 else "edge_subset"
        if mode == "full":
            adapted = enc.attach_glora(params, mode, 3, rng, num_nodes=n)
        else:
            pos = enc.edge_subset_positions(adj, [0, 1])
            adapted = enc.attach_glora(params, mode, 3, rng, edge_positions=pos)
        fresh = enc.encoder_forward(enc.forward_start(adj, g.features, adapted))
        gap = max(np.abs(x.data - y.data).max()
                  for x, y in zip(frozen, fresh))
        worst = max(worst, gap)
    check(2, "zero-adaptation identity", worst < 1e-12, f"max gap {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: gamma initialization
# ---------------------------------------------------------------------------

def test_criterion_03_gamma_initialization():
    worst = 0.0
    for alpha in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
        for layers in [1, 2, 3, 4]:
            total = pr.init_gamma(alpha, layers).data.sum()
            worst = max(worst, abs(total - 1.0))
    example = pr.init_gamma(0.1, 2).data[0]
    example_gap = np.abs(example - np.array([0.1, 0.09, 0.81])).max()
    check(3, "gamma initialization",
          worst < 1e-12 and example_gap < 1e-12,
          f"sum gap {worst:.2e}, example gap {example_gap:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: contrastive-loss anchor values
# ---------------------------------------------------------------------------

def test_criterion_04_contrastive_anchors():
    adj = nc.SparseMatrix((3, 3), np.arange(4), np.arange(3), np.ones(3))
    trip = pt.Triplets(v=np.array([0]), a=np.array([1]), b=np.array([2]))
    sym = [nc.Tensor([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])]
    loss_sym = pt.pretrain_loss(sym, adj, trip, tau=1.0).item()
    ortho = [nc.Tensor([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])]
    loss_ortho = pt.pretrain_loss(ortho, adj, trip, tau=1.0).item()
    gap_sym = abs(loss_sym - math.log(2.0))
    gap_ortho = abs(loss_ortho - math.log(1.0 + math.exp(-1.0)))
    check(4, "contrastive-loss anchors",
          gap_sym < 1e-9 and gap_ortho < 1e-9,
          f"ln2 gap {gap_sym:.2e}, ln(1+e^-1) gap {gap_ortho:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: sparse kernels vs densified oracle, 200 instances
# ---------------------------------------------------------------------------

def test_criterion_05_sparse_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(200):
        rows = int(rng.integers(1, 51))
        cols = int(rng.integers(1, 51))
        offs, cidx, vals, dense = random_csr(rng, rows, cols,
                                             density=float(rng.uniform(0.05, 0.4)))
        s = nc.SparseMatrix((rows, cols), offs, cidx, vals)
        d = nc.Tensor(rng.standard_normal((cols, int(rng.integers(1, 5)))))
        worst = max(worst, float(np.abs(nc.spmm(s, d).data - dense @ d.data).max()))
        if rows == cols:
            pv = rng.standard_normal((rows, 1))
            qv = rng.standard_normal((rows, 1))
            ours = rank_one_update_spmm(s, nc.Tensor(pv), nc.Tensor(qv), d).data
            worst = max(worst, float(np.abs(ours - (dense + pv @ qv.T) @ d.data).max()))
    check(5, "sparse vs densified oracle", worst < 1e-12, f"max gap {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 6: homophily reproduction (real data when present, else fallback)
# ---------------------------------------------------------------------------

def test_criterion_06_homophily_reproduction():
    texas = Path("datasets/texas")
    cora = Path("datasets/cora")
    if texas.is_dir() and cora.is_dir():
        h_texas = gs.homophily_ratio(gs.load_dataset(texas))
        h_cora = gs.homophily_ratio(gs.load_dataset(cora))
        check(6, "homophily reproduction (real data)",
              abs(h_texas - 0.11) <= 0.01 and abs(h_cora - 0.81) <= 0.01,
              f"texas h={h_texas:.3f}, cora h={h_cora:.3f}")
        return
    base = gs.random_labeled_graph(2000, 30000, 5, 16, seed=42)
    worst = 0.0
    for target in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
        achieved = gs.homophily_ratio(gs.synth_rewire(base, target, seed=1))
        worst = max(worst, abs(achieved - target))
    check(6, "homophily reproduction (synthetic fallback)",
          worst <= 0.02, f"max |achieved - target| = {worst:.4f}")


# ---------------------------------------------------------------------------
# criterion 7: heterophily ordering vs frozen prototype, 50% split, 10 seeds
# ---------------------------------------------------------------------------

def test_criterion_07_heterophily_ordering(shared_cache, syn_h10, syn_h20):
    t0 = time.perf_counter()
    seeds = list(range(10))
    gaps = []
    for graph, label in [(syn_h10, "h=0.1"), (syn_h20, "h=0.2")]:
        cfg = ordering_config("dagprompt", train_fraction=0.5, seeds=seeds)
        full = hn.run_experiment(cfg, cache=shared_cache, data=graph)
        proto = hn.run_experiment(replace(cfg, mode="prototype"),
                                  cache=shared_cache, data=graph)
        gaps.append((label, full.mean_accuracy - proto.mean_accuracy))
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{lbl}: gap {100 * gap:+.2f}pts" for lbl, gap in gaps)
    check(7, "heterophily ordering vs frozen prototype",
          all(gap >= 0.0 for _lbl, gap in gaps) and elapsed < 600,
          f"{detail}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 8: few-shot ordering vs scratch GCN, >= 10 points
# ---------------------------------------------------------------------------

def test_criterion_08_fewshot_beats_scratch(shared_cache, syn_h10):
    t0 = time.perf_counter()
    seeds = list(range(5))
    cfg = ordering_config("dagprompt", shots=5, seeds=seeds)
    ours = hn.run_experiment(cfg, cache=shared_cache, data=syn_h10)
    scratch = hn.run_experiment(replace(cfg, mode="scratch_gcn"),
                                cache=shared_cache, data=syn_h10)
    gap = ours.mean_accuracy - scratch.mean_accuracy
    elapsed = time.perf_counter() - t0
    check(8, "few-shot ordering vs scratch GCN",
          gap >= 0.10 and elapsed < 300,
          f"{100 * ours.mean_accuracy:.2f} vs {100 * scratch.mean_accuracy:.2f}, "
          f"gap {100 * gap:+.1f}pts, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 9: ablation direction at h=0.1, 10 seeds
# ---------------------------------------------------------------------------

def test_criterion_09_ablation_direction(shared_cache, syn_h10):
    seeds = list(range(10))
    cfg = ordering_config("dagprompt", train_fraction=0.5, seeds=seeds)
    full = hn.run_experiment(cfg, cache=shared_cache, data=syn_h10)
    gaps = {}
    for mode in hn.ABLATION_MODES:
        report = hn.run_experiment(replace(cfg, mode=mode), cache=shared_cache,
                                   data=syn_h10)
        gaps[mode] = full.mean_accuracy - report.mean_accuracy
    detail = ", ".join(f"{m.split(':')[1]}: {100 * g:+.2f}pts"
                       for m, g in gaps.items())
    check(9, "ablation direction", all(g >= 0.0 for g in gaps.values()), detail)


# ---------------------------------------------------------------------------
# criterion 10: parameter economy of the edge-subset variant
# ---------------------------------------------------------------------------

def test_criterion_10_parameter_economy(syn_h10):
    rng = np.random.default_rng(3)
    cfg = enc.EncoderConfig(layers=2, dims=[syn_h10.num_features, 128, 128])
    params = enc.init_encoder(cfg, rng)
    adj = gs.normalize_adjacency(syn_h10)
    split = gs.kshot_split(syn_h10, 5, seed=0)
    pos = enc.edge_subset_positions(adj, split.train_ids)
    adapted = enc.attach_glora(params, "edge_subset", 8, rng, edge_positions=pos)

    encoder_count = enc.count_trainable(adapted, "prompt")
    # the prompt count is the one an edge-subset tune on the same params and
    # split reports
    _params, tuned = pr.run_prompt_tune(
        (params, cfg), syn_h10, split,
        pr.PromptTuneConfig(glora_mode="edge_subset", rank=8, epochs=1))
    prompt_count = tuned.trainable_prompt
    closed_encoder = glora_param_count(cfg, "edge_subset", 8, num_selected_edges=len(pos))
    closed_prompt = prompt_param_count(cfg.layers + 1, syn_h10.num_classes, 128)
    total = encoder_count + prompt_count
    check(10, "parameter economy (edge-subset)",
          total < 10_000 and encoder_count == closed_encoder
          and tuned.trainable_encoder == encoder_count
          and prompt_count == closed_prompt,
          f"total {total} (encoder {encoder_count}, prompt {prompt_count})")


# ---------------------------------------------------------------------------
# criterion 11: pre-training convergence on every bundled fixture
# ---------------------------------------------------------------------------

def test_criterion_11_pretraining_convergence():
    results = []
    for path in BUNDLED:
        data = gs.load_dataset(path)
        feature_dim = (data.graphs[0] if isinstance(data, gs.GraphSet)
                       else data).num_features
        cfg = enc.EncoderConfig(layers=2, dims=[feature_dim, 64, 64])
        pcfg = pt.PretrainConfig(epochs=30, batch_size=1024, lr=1e-3, seed=0)
        _params, losses = pt.run_pretrain(data, cfg, pcfg)
        results.append((Path(path).name, losses[0][1], losses[-1][1]))
    ok = all(final < first for _name, first, final in results)
    detail = "; ".join(f"{name}: {first:.3f}->{final:.3f}"
                       for name, first, final in results)
    check(11, "pre-training convergence", ok, detail)
