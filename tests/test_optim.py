import numpy as np
import pytest

from hopprompt import numcore as nc
from hopprompt.errors import (
    DegenerateRowError,
    DimensionError,
    DivergenceError,
    NumericError,
    ParameterError,
)


class _ZeroGrads:
    def get(self, t):
        return np.zeros(t.shape)


def test_zero_gradient_no_decay_leaves_params_unchanged():
    p = nc.Tensor([[1.0, -2.0]], requires_grad=True)
    before = p.data.copy()
    state = nc.AdamState.for_params([p], lr=0.1, weight_decay=0.0)
    nc.adam_step([p], _ZeroGrads(), state)
    np.testing.assert_array_equal(p.data, before)


def test_first_step_matches_hand_formula():
    # m_hat = g, v_hat = g^2 at step 1, so the update is -lr * g/(|g| + eps)
    p = nc.Tensor([[0.5]], requires_grad=True)
    state = nc.AdamState.for_params([p], lr=0.001)
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
    state = nc.AdamState.for_params([w], lr=0.05)
    for _ in range(200):
        loss = nc.matmul(w, w)  # w^2 for a 1x1 tensor
        grads = nc.backward(loss)
        nc.adam_step([w], grads, state)
    assert abs(w.data[0, 0]) < 0.1


def test_decoupled_weight_decay_applied_before_moments():
    p = nc.Tensor([[2.0]], requires_grad=True)
    state = nc.AdamState.for_params([p], lr=0.1, weight_decay=0.5)
    nc.adam_step([p], _ZeroGrads(), state)
    # zero gradient: moments stay zero, only the decay term acts
    assert p.data[0, 0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))


def test_shape_mismatch_rejected():
    p = nc.Tensor(np.ones((2, 2)), requires_grad=True)
    state = nc.AdamState.for_params([p], lr=0.1)

    class BadGrads:
        def get(self, t):
            return np.ones((3, 3))

    with pytest.raises(DimensionError):
        nc.adam_step([p], BadGrads(), state)


def test_moments_mirror_param_shapes():
    ps = [nc.Tensor(np.ones((2, 3)), requires_grad=True),
          nc.Tensor(np.ones((1, 4)), requires_grad=True)]
    state = nc.AdamState.for_params(ps, lr=0.01)
    assert [m.shape for m in state.m] == [(2, 3), (1, 4)]
    assert state.step_count == 0


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
        yield nc.add(nc.sum_all(w), nc.scalar(values[epoch] - w.data.sum())), 1

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
            yield nc.add(nc.sum_all(w), nc.scalar(value + epoch - w.data.sum())), weight

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
