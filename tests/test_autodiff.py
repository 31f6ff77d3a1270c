import numpy as np
import pytest

from hopprompt import numcore as nc
from hopprompt.errors import ContractError

from tests._oracles import (
    add,
    assert_grads_close,
    finite_diff,
    mean_rows,
    scale,
    sum_all,
    vstack,
)


def test_sum_gradient_is_ones():
    w = nc.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    grads = nc.backward(sum_all(w))
    np.testing.assert_array_equal(grads.get(w), np.ones((2, 3)))


def test_composite_loss_finite_differences():
    # matmul -> relu -> matmul -> softmax_nll, the downstream op chain
    rng = np.random.default_rng(10)
    x = nc.Tensor(rng.standard_normal((5, 3)))
    w1 = nc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w2 = nc.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    y = [0, 1, 1, 0, 1]

    def forward():
        return nc.softmax_nll(nc.matmul(nc.relu(nc.matmul(x, w1)), w2), y, tau=1.0)

    grads = nc.backward(forward())
    fd_w1, fd_w2 = finite_diff(lambda: forward().item(), [w1, w2])
    assert_grads_close(grads.get(w1), fd_w1, label="composite dW1")
    assert_grads_close(grads.get(w2), fd_w2, label="composite dW2")


def test_untouched_parameter_reads_as_zero_gradient():
    w = nc.Tensor(np.ones((2, 2)), requires_grad=True)
    bystander = nc.Tensor(np.ones((3, 3)), requires_grad=True)
    grads = nc.backward(sum_all(w))
    assert bystander not in grads
    np.testing.assert_array_equal(grads.get(bystander), np.zeros((3, 3)))


def test_non_scalar_loss_rejected():
    w = nc.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        nc.backward(nc.relu(w))


def test_reused_node_accumulates():
    w = nc.Tensor([[2.0]], requires_grad=True)
    # loss = w*w via matmul uses w twice
    grads = nc.backward(nc.matmul(w, w))
    np.testing.assert_allclose(grads.get(w), [[4.0]])


def test_tape_determinism_bitwise():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 3))
    w_data = rng.standard_normal((3, 3))
    y = [0, 2, 1, 0]

    def run():
        w = nc.Tensor(w_data.copy(), requires_grad=True)
        loss = nc.softmax_nll(nc.relu(nc.matmul(nc.Tensor(x), w)), y, tau=0.5)
        return nc.backward(loss).get(w)

    g1, g2 = run(), run()
    assert g1.tobytes() == g2.tobytes()


def test_grad_shapes_match_values():
    rng = np.random.default_rng(12)
    a = nc.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = nc.Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    out = nc.matmul(a, b)
    grads = nc.backward(sum_all(out))
    assert grads.get(a).shape == a.shape
    assert grads.get(b).shape == b.shape
    assert out in grads and grads.get(out).shape == out.shape


@pytest.mark.parametrize("seed", range(20))
def test_composite_gradients_over_random_instances(seed):
    # >= 20 random small instances through a chain touching most primitives
    rng = np.random.default_rng(1000 + seed)
    n, d, c = 4, 3, 2
    x = nc.Tensor(rng.standard_normal((n, d)))
    w = nc.Tensor(rng.standard_normal((d, d)), requires_grad=True)
    proto = nc.Tensor(rng.standard_normal((c, d)), requires_grad=True)
    y = rng.integers(0, c, size=n)

    def forward():
        pre = nc.matmul(x, w)
        h = add(nc.relu(pre), scale(pre, 0.1))  # leaky: no all-zero rows
        pooled = vstack([mean_rows(nc.gather_rows(h, [0, 1])),
                            mean_rows(nc.gather_rows(h, [2, 3]))])
        both = vstack([h, pooled])
        scores = nc.row_cosine_sim(both, proto)
        return nc.softmax_nll(scores, np.concatenate([y, [0, 1]]), tau=0.6)

    grads = nc.backward(forward())
    fd_w, fd_p = finite_diff(lambda: forward().item(), [w, proto])
    assert_grads_close(grads.get(w), fd_w, label=f"seed{seed} dW")
    assert_grads_close(grads.get(proto), fd_p, label=f"seed{seed} dP")


def test_peak_tape_bytes_tracks_backward():
    nc.peak_tape_bytes(reset=True)
    w = nc.Tensor(np.ones((8, 8)), requires_grad=True)
    nc.backward(sum_all(w))
    assert nc.peak_tape_bytes() >= 8 * 8 * 8
