import importlib
from pathlib import Path

import numpy as np
import pytest

from hopprompt import graphstore as gs
from hopprompt import numcore as nc
from hopprompt.encoder import GLORA_MODES, EncoderConfig
from hopprompt.errors import (
    DegenerateRowError,
    DimensionError,
    DivergenceError,
    NumericError,
    ParameterError,
)
from hopprompt.harness.baselines import train_finetune_lp, train_scratch_gcn
from hopprompt.numcore import optim
from hopprompt.numcore.optim import AdamState
from hopprompt.numcore.tensor import Gradients
from hopprompt.pretrain import PretrainConfig, run_pretrain
from hopprompt.prompt import PromptTuneConfig, run_prompt_tune
from tests._oracles import add, recorded_op_names, reference_adam_step, scalar, sum_all

DATASETS = Path(__file__).resolve().parents[1] / "datasets"


class _ZeroGrads:
    def get(self, t):
        return np.zeros(t.shape)


def test_zero_gradient_no_decay_leaves_params_unchanged():
    p = nc.Tensor([[1.0, -2.0]], requires_grad=True)
    before = p.data.copy()
    state = AdamState.for_params([p], lr=0.1, weight_decay=0.0)
    nc.adam_step([p], _ZeroGrads(), state)
    np.testing.assert_array_equal(p.data, before)


def test_first_step_matches_hand_formula():
    # m_hat = g, v_hat = g^2 at step 1, so the update is -lr * g/(|g| + eps)
    p = nc.Tensor([[0.5]], requires_grad=True)
    state = AdamState.for_params([p], lr=0.001)
    g = np.array([[1.0]])

    class G:
        def get(self, t):
            return g

    nc.adam_step([p], G(), state)
    delta = p.data[0, 0] - 0.5
    assert delta == pytest.approx(-0.001 / (1.0 + 1e-8), abs=1e-15)
    assert delta == pytest.approx(-0.001, abs=1e-9)


def test_quadratic_convergence():
    w = nc.Tensor([[1.0]], requires_grad=True)
    state = AdamState.for_params([w], lr=0.05)
    for _ in range(200):
        loss = nc.matmul(w, w)  # w^2 for a 1x1 tensor
        grads = nc.backward(loss)
        nc.adam_step([w], grads, state)
    assert abs(w.data[0, 0]) < 0.1


def test_decoupled_weight_decay_applied_before_moments():
    p = nc.Tensor([[2.0]], requires_grad=True)
    state = AdamState.for_params([p], lr=0.1, weight_decay=0.5)
    nc.adam_step([p], _ZeroGrads(), state)
    # zero gradient: moments stay zero, only the decay term acts
    assert p.data[0, 0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))


def test_shape_mismatch_rejected():
    p = nc.Tensor(np.ones((2, 2)), requires_grad=True)
    state = AdamState.for_params([p], lr=0.1)

    class BadGrads:
        def get(self, t):
            return np.ones((3, 3))

    with pytest.raises(DimensionError):
        nc.adam_step([p], BadGrads(), state)


def test_moments_mirror_param_shapes():
    ps = [nc.Tensor(np.ones((2, 3)), requires_grad=True),
          nc.Tensor(np.ones((1, 4)), requires_grad=True)]
    state = AdamState.for_params(ps, lr=0.01)
    assert [m.shape for m in state.m] == [(2, 3), (1, 4)]
    assert state.step_count == 0


class TestFlatAdam:
    """`adam_step` updates every parameter in one pass over their entries;
    the per-parameter loop it replaced is the oracle, matched by `tobytes`."""

    # gamma (1 x 3) gets no gradient, as in stage two; 26,203 entries in all,
    # so the pass walks several blocks and a block ends inside a parameter
    SHAPES = [(1, 3), (600, 1), (128, 8), (128, 128), (64, 128)]

    @staticmethod
    def _params(shapes, seed=0):
        rng = np.random.default_rng(seed)
        return [nc.Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-6])
    def test_equals_per_parameter_loop_bitwise(self, weight_decay):
        ours, oracle = self._params(self.SHAPES), self._params(self.SHAPES)
        ours_state = AdamState.for_params(ours, lr=1e-3, weight_decay=weight_decay)
        oracle_state = AdamState.for_params(oracle, lr=1e-3,
                                               weight_decay=weight_decay)
        rng = np.random.default_rng(1)
        for _step in range(30):
            draws = [rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-6, 1)
                     for p in ours[1:]]
            nc.adam_step(ours, Gradients(
                {id(p): g for p, g in zip(ours[1:], draws)}), ours_state)
            reference_adam_step(oracle, Gradients(
                {id(p): g for p, g in zip(oracle[1:], draws)}), oracle_state)
            for a, b in zip(ours, oracle):
                assert a.data.tobytes() == b.data.tobytes()
        assert ours_state.step_count == oracle_state.step_count == 30
        for mine, theirs in ((ours_state.m, oracle_state.m),
                             (ours_state.v, oracle_state.v)):
            for a, b in zip(mine, theirs):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_absent_gradient_reads_as_zero(self):
        present, absent = self._params([(4, 3), (1, 3)])
        before = absent.data
        state = AdamState.for_params([present, absent], lr=0.1)
        nc.adam_step([present, absent], Gradients({id(present): np.ones((4, 3))}),
                     state)
        # rebound to a new array of the same bytes; the old one is untouched
        assert absent.data is not before
        assert absent.data.tobytes() == before.tobytes()
        assert not state.m[1].any() and not state.v[1].any()
        assert state.m[0].all()

    def test_moments_view_one_flat_buffer(self):
        ps = self._params(self.SHAPES)
        state = AdamState.for_params(ps, lr=0.1)
        assert state.flat.shape == (2, sum(p.data.size for p in ps))
        for m, v, p in zip(state.m, state.v, ps):
            assert m.shape == v.shape == p.shape
            assert np.shares_memory(m, state.flat[0]) and np.shares_memory(v, state.flat[1])
        nc.adam_step(ps, Gradients({id(p): np.ones(p.shape) for p in ps}), state)
        # the step updated the buffer in place, so the views read the moments
        assert all(m.all() and v.all() for m, v in zip(state.m, state.v))

    def test_old_arrays_stay_valid(self):
        ps = self._params(self.SHAPES)
        old = [p.data for p in ps]
        copies = [a.copy() for a in old]
        state = AdamState.for_params(ps, lr=0.1, weight_decay=0.5)
        nc.adam_step(ps, Gradients({id(p): np.ones(p.shape) for p in ps}), state)
        for p, a, c in zip(ps, old, copies):
            assert p.data is not a and a.tobytes() == c.tobytes()

    def test_empty_parameter_list(self):
        state = AdamState.for_params([], lr=0.1)
        nc.adam_step([], Gradients({}), state)
        assert state.step_count == 1 and state.m == [] and state.v == []
        with pytest.raises(DimensionError, match="state tracks 0 params, got 1"):
            nc.adam_step(self._params([(1, 1)]), Gradients({}), state)

    def test_non_finite_update_names_its_index(self):
        ok, huge = nc.Tensor([[0.5]], requires_grad=True), nc.Tensor(
            [[-1.7e308, 0.0]], requires_grad=True)
        state = AdamState.for_params([ok, huge], lr=1e308)
        grads = Gradients({id(ok): np.ones((1, 1)), id(huge): np.ones((1, 2))})
        # the first step moves each entry by lr: -1.7e308 - 1e308 overflows
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match="^adam_step: param 1 became non-finite$"):
            nc.adam_step([ok, huge], grads, state)


def _scripted(w, values, fail_at=None, error=None):
    """Steps of one pair per epoch: a loss of `w` (gradient ones) whose value
    at epoch k is values[k], weight 1; records the weights each epoch starts
    from, raises `error` at `fail_at`."""
    starts = []

    def steps(epoch):
        assert epoch == len(starts)
        starts.append(w.data.copy())
        if epoch == fail_at:
            raise error
        yield add(sum_all(w), scalar(values[epoch] - w.data.sum())), 1

    return steps, starts


def _fit(steps, w, epochs, patience, lr=0.1, weight_decay=0.0):
    return nc.fit(steps, [w], lr=lr, weight_decay=weight_decay, epochs=epochs,
                  patience=patience, what="test loop")


@pytest.mark.parametrize("patience", [0, 1, 3, None])
def test_fit_stops_after_patience_plus_one_stale_epochs(patience):
    w = nc.Tensor([[0.5, -0.5]], requires_grad=True)
    steps, _starts = _scripted(w, [5.0, 4.0] + [6.0] * 10)
    losses, best_epoch = _fit(steps, w, epochs=12, patience=patience)
    assert len(losses) == (12 if patience is None else 2 + patience + 1)
    assert best_epoch == 1


def test_fit_improvement_within_margin_is_stale():
    w = nc.Tensor([[0.5]], requires_grad=True)
    steps, _starts = _scripted(w, [1.0, 1.0 - 5e-13, 1.0 - 1e-9, 2.0, 2.0])
    losses, best_epoch = _fit(steps, w, epochs=5, patience=0)
    # epoch 1 gains less than 1e-12 and counts as stale, so patience 0 stops
    assert len(losses) == 2 and best_epoch == 0


def test_fit_restores_best_epoch_weights_bitwise():
    w = nc.Tensor([[0.5, -0.25]], requires_grad=True)
    steps, starts = _scripted(w, [5.0, 4.0, 3.0, 7.0, 7.0, 7.0])
    # a patience of at least `epochs` restores without stopping early
    losses, best_epoch = _fit(steps, w, epochs=6, patience=6)
    assert best_epoch == 2 and len(losses) == 6
    # the snapshot is taken after the best epoch's Adam step: the weights
    # the next epoch started from
    assert w.data.tobytes() == starts[best_epoch + 1].tobytes()
    assert w.data.tobytes() != starts[-1].tobytes()


def test_fit_zero_epochs_takes_no_step():
    w = nc.Tensor([[0.5, -0.25]], requires_grad=True)
    before = w.data.tobytes()
    steps, starts = _scripted(w, [1.0])
    assert _fit(steps, w, epochs=0, patience=5) == ([], -1)
    assert starts == [] and w.data.tobytes() == before


@pytest.mark.parametrize("error", [NumericError("matmul: non-finite output"),
                                   DegenerateRowError("row 0 has norm 0")])
def test_fit_wraps_divergence_with_epoch_and_lr(error):
    w = nc.Tensor([[0.5]], requires_grad=True)
    steps, _starts = _scripted(w, [3.0, 2.0, 1.0, 0.5], fail_at=2, error=error)
    with pytest.raises(DivergenceError, match="^test loop diverged: ") as info:
        _fit(steps, w, epochs=4, patience=None, lr=0.01)
    assert info.value.epoch == 2
    assert info.value.lr == 0.01
    assert info.value.__cause__ is error


def test_fit_without_patience_keeps_the_last_steps_weights():
    values = [5.0, 4.0, 3.0, 7.0, 7.0, 7.0, 7.0]
    w = nc.Tensor([[0.5, -0.25]], requires_grad=True)
    steps, starts = _scripted(w, values)
    losses, best_epoch = _fit(steps, w, epochs=6, patience=None)
    assert best_epoch == 2 and len(losses) == 6
    # the weights after epoch 5's step are those a seventh epoch starts from
    longer = nc.Tensor([[0.5, -0.25]], requires_grad=True)
    longer_steps, longer_starts = _scripted(longer, values)
    _fit(longer_steps, longer, epochs=7, patience=None)
    assert w.data.tobytes() == longer_starts[6].tobytes()
    assert w.data.tobytes() != starts[best_epoch + 1].tobytes()


def test_fit_steps_once_per_pair_and_weights_the_epoch_loss():
    w = nc.Tensor([[0.5]], requires_grad=True)
    seen = []

    def steps(epoch):
        for value, weight in ((1.0, 3), (2.0, 1), (4.0, 2)):
            seen.append(w.data.copy())
            yield add(sum_all(w), scalar(value + epoch - w.data.sum())), weight

    losses, best_epoch = _fit(steps, w, epochs=2, patience=None)
    assert losses == [(1.0 * 3 + 2.0 * 1 + 4.0 * 2) / 6,
                      (2.0 * 3 + 3.0 * 1 + 5.0 * 2) / 6]
    assert best_epoch == 0
    # six Adam steps, each moving w
    assert len(seen) == 6
    assert all(a.tobytes() != b.tobytes() for a, b in zip(seen, seen[1:]))


@pytest.mark.parametrize("name, value", [
    ("lr", -1e-3), ("lr", float("nan")), ("lr", float("inf")),
    ("weight_decay", -1e-4), ("weight_decay", float("nan")),
])
def test_fit_rejects_bad_rate_before_any_step(name, value):
    w = nc.Tensor([[0.5]], requires_grad=True)
    steps, starts = _scripted(w, [1.0])
    rates = {"lr": 0.1, "weight_decay": 0.0, name: value}
    with pytest.raises(ParameterError, match=f"test loop: {name} must be finite and >= 0"):
        _fit(steps, w, epochs=1, patience=None, **rates)
    assert starts == []


def test_fit_accepts_zero_rates():
    w = nc.Tensor([[0.5]], requires_grad=True)
    before = w.data.tobytes()
    steps, _starts = _scripted(w, [1.0, 1.0])
    losses, _best_epoch = _fit(steps, w, epochs=2, patience=None, lr=0.0)
    assert losses == [1.0, 1.0] and w.data.tobytes() == before


class TestNoWriteIntoParameters:
    """`fit` keeps the best epoch's arrays by reference. That is sound only
    while no tape op and no Adam step writes into a parameter's array. Here
    every array `fit` is handed is made read-only before its first epoch,
    and so is each array a step binds, so a write anywhere in a forward, a
    VJP or a step raises."""

    @staticmethod
    def _read_only_training(monkeypatch):
        """Patch `fit`'s Adam state and step to freeze the parameters'
        arrays, and spy on every numcore op recorded; returns the op names."""
        def freeze(params):
            for p in params:
                p.data.setflags(write=False)

        real_for_params = optim.AdamState.for_params.__func__
        real_step = optim.adam_step

        def for_params(cls, params, lr, weight_decay=0.0):
            freeze(params)
            return real_for_params(cls, params, lr, weight_decay)

        def adam_step(params, grads, state):
            real_step(params, grads, state)
            freeze(params)

        monkeypatch.setattr(optim.AdamState, "for_params", classmethod(for_params))
        monkeypatch.setattr(optim, "adam_step", adam_step)
        seen = set()
        for module_name in set(recorded_op_names().values()):
            module = importlib.import_module(module_name)

            def spy(op, *args, _real=module._record):
                seen.add(op)
                return _real(op, *args)

            monkeypatch.setattr(module, "_record", spy)
        return seen

    def test_every_op_and_step_leaves_parameter_arrays_unwritten(self, monkeypatch):
        seen = self._read_only_training(monkeypatch)
        web = gs.load_dataset(DATASETS / "web-tiny")
        ego = gs.load_dataset(DATASETS / "ego-tiny")
        cfg = EncoderConfig(layers=2, dims=[web.num_features, 8, 8])
        pcfg = PretrainConfig(epochs=3, batch_size=64, lr=1e-3, seed=0)
        params, _losses = run_pretrain(web, cfg, pcfg)
        assert not params.w_in.data.flags.writeable
        split = gs.kshot_split(web, 2, seed=0)
        for mode in GLORA_MODES:
            tcfg = PromptTuneConfig(glora_mode=mode, rank=2, lr=1e-2, epochs=4,
                                    patience=1, seed=0)
            run_prompt_tune(params, web, split, tcfg)
        ego_cfg = EncoderConfig(layers=2, dims=[ego.num_features, 8, 8])
        ego_params, _losses = run_pretrain(ego, ego_cfg, pcfg)
        run_prompt_tune(ego_params, ego, gs.kshot_split(ego, 2, seed=0),
                        PromptTuneConfig(rank=2, lr=1e-2, epochs=3, patience=1))
        train_finetune_lp(params, web, split, lr=1e-2, weight_decay=1e-4,
                          epochs=3, seed=0, patience=1)
        train_scratch_gcn(web, split, hidden=8, lr=1e-2, weight_decay=1e-4,
                          epochs=3, seed=0, patience=1)

        # the ops the package does not run, through one loss of parameters
        rng = np.random.default_rng(0)
        a, b = (nc.Tensor(rng.standard_normal((rows, 4)), requires_grad=True)
                for rows in (4, 3))

        def steps(_epoch):
            h = nc.scatter_rows(a, [2, 0, 2, 1], 3)
            paired = nc.matmul(nc.rowwise_cosine_sim(h, b), nc.Tensor(np.ones((1, 3))))
            cos = add(nc.row_cosine_sim(h, b), paired)
            yield nc.softmax_nll(cos, [0, 1, 2], tau=0.7), 1

        nc.fit(steps, [a, b], lr=1e-2, weight_decay=1e-4, epochs=3, patience=0,
               what="test loop")
        missing = sorted(set(recorded_op_names()) - seen)
        assert not missing, f"no read-only run of {missing}"

    def test_a_write_into_a_parameter_raises(self, monkeypatch):
        self._read_only_training(monkeypatch)
        w = nc.Tensor([[0.5, -0.25]], requires_grad=True)

        def steps(_epoch):
            w.data += 1.0
            yield sum_all(w), 1

        with pytest.raises(ValueError, match="read-only"):
            nc.fit(steps, [w], lr=0.1, weight_decay=0.0, epochs=2, patience=None,
                   what="test loop")
