import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopprompt import numcore as nc
from hopprompt.errors import (
    DegenerateRowError,
    DimensionError,
    NumericError,
    ParameterError,
)

from tests._oracles import (
    assert_grads_close,
    finite_diff,
    hstack,
    mean_rows,
    sum_all,
    unfused_lowrank_layer,
    vstack,
)


def test_tensor_rejects_non_2d_and_non_finite():
    with pytest.raises(DimensionError):
        nc.Tensor([1.0, 2.0])
    with pytest.raises(NumericError):
        nc.Tensor([[np.inf, 0.0]])
    with pytest.raises(NumericError):
        nc.Tensor([[np.nan]])


def test_non_finite_op_output_names_the_op_and_shape():
    big = nc.Tensor([[1e200, 1e200], [1.0, 2.0]])
    with np.errstate(over="ignore"), \
            pytest.raises(NumericError, match=r"matmul.*\(2, 2\)"):
        nc.matmul(big, big)


class TestMatmul:
    def test_identity_times_matrix(self):
        m = nc.Tensor([[2.0, -3.0], [0.5, 7.0]])
        eye = nc.Tensor(np.eye(2))
        out = nc.matmul(eye, m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_hand_product(self):
        a = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = nc.Tensor([[0.0], [1.0]])
        out = nc.matmul(a, b)
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = nc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = nc.Tensor(rng.standard_normal((4, 2)), requires_grad=True)

        def loss():
            return sum_all(nc.matmul(a, b)).item()

        grads = nc.backward(sum_all(nc.matmul(a, b)))
        fd_a, fd_b = finite_diff(loss, [a, b])
        assert_grads_close(grads.get(a), fd_a, rtol=1e-5, label="matmul dA")
        assert_grads_close(grads.get(b), fd_b, rtol=1e-5, label="matmul dB")

    def test_shape_mismatch_names_both_shapes(self):
        a = nc.Tensor(np.zeros((2, 3)))
        b = nc.Tensor(np.zeros((2, 3)))
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            nc.matmul(a, b)

    @pytest.mark.parametrize("tracked", ["left", "right"])
    def test_untracked_parent_gets_no_product(self, tracked):
        rng = np.random.default_rng(3)
        a = nc.Tensor(rng.standard_normal((5, 4)), requires_grad=tracked == "left")
        b = nc.Tensor(rng.standard_normal((4, 3)), requires_grad=tracked == "right")
        out = nc.matmul(a, b)
        g = rng.standard_normal((5, 3))
        da, db = out._vjp(g)
        if tracked == "left":
            assert db is None
            assert np.array_equal(da, g @ b.data.T)
        else:
            assert da is None
            assert np.array_equal(db, a.data.T @ g)
        leaf = a if tracked == "left" else b
        grads = nc.backward(sum_all(nc.matmul(a, b)))
        assert (a in grads, b in grads) == (tracked == "left", tracked == "right")
        fd = finite_diff(lambda: sum_all(nc.matmul(a, b)).item(), [leaf])[0]
        assert_grads_close(grads.get(leaf), fd, rtol=1e-5, label=f"matmul {tracked}")


class TestRelu:
    def test_all_negative_goes_to_zero(self):
        out = nc.relu(nc.Tensor([[-1.0, -5.0], [-0.1, -2.0]]))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_definition(self):
        out = nc.relu(nc.Tensor([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_forward_equals_masked_select_bitwise(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((60, 13))
        data[rng.random(data.shape) < 0.2] = 0.0
        data[rng.random(data.shape) < 0.2] = -0.0
        data[0, :3] = [0.0, -0.0, 5e-324]
        select = np.where(data > 0, data, 0.0)
        out = nc.relu(nc.Tensor(data)).data
        assert out.tobytes() == select.tobytes()
        assert not np.signbit(out).any()

    def test_gradient_is_positive_mask(self):
        x = nc.Tensor([[-1.0, 0.0, 2.0]], requires_grad=True)
        grads = nc.backward(sum_all(nc.relu(x)))
        np.testing.assert_array_equal(grads.get(x), [[0.0, 0.0, 1.0]])


class TestRowCosineSim:
    def test_identical_rows_give_one(self):
        h = nc.Tensor([[1.0, 2.0, 3.0]])
        assert nc.row_cosine_sim(h, nc.Tensor([[1.0, 2.0, 3.0]])).item() == pytest.approx(1.0)

    def test_orthogonal_rows_give_zero(self):
        h = nc.Tensor([[1.0, 0.0]])
        p = nc.Tensor([[0.0, 1.0]])
        assert nc.row_cosine_sim(h, p).item() == pytest.approx(0.0, abs=1e-15)

    def test_scalar_value(self):
        s = nc.row_cosine_sim(nc.Tensor([[3.0, 4.0]]), nc.Tensor([[4.0, 3.0]]))
        assert s.item() == pytest.approx(24.0 / 25.0)

    def test_degenerate_row_raises(self):
        with pytest.raises(DegenerateRowError):
            nc.row_cosine_sim(nc.Tensor([[0.0, 0.0]]), nc.Tensor([[1.0, 0.0]]))
        with pytest.raises(DegenerateRowError):
            nc.row_cosine_sim(nc.Tensor([[1.0, 0.0]]), nc.Tensor([[0.0, 0.0]]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        h = nc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        p = nc.Tensor(rng.standard_normal((2, 4)), requires_grad=True)

        def loss():
            return sum_all(nc.row_cosine_sim(h, p)).item()

        grads = nc.backward(sum_all(nc.row_cosine_sim(h, p)))
        fd_h, fd_p = finite_diff(loss, [h, p])
        assert_grads_close(grads.get(h), fd_h, label="cosine dH")
        assert_grads_close(grads.get(p), fd_p, label="cosine dP")

    def test_gradients_under_nonuniform_upstream(self):
        # composing with softmax_nll gives each similarity entry a different
        # upstream gradient, exercising both vjp terms
        rng = np.random.default_rng(7)
        h = nc.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        p = nc.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        y = [0, 2, 1, 0]

        def loss():
            return nc.softmax_nll(nc.row_cosine_sim(h, p), y, tau=0.5).item()

        grads = nc.backward(nc.softmax_nll(nc.row_cosine_sim(h, p), y, tau=0.5))
        fd_h, fd_p = finite_diff(loss, [h, p])
        assert_grads_close(grads.get(h), fd_h, label="cosine+nll dH")
        assert_grads_close(grads.get(p), fd_p, label="cosine+nll dP")


class TestRowwiseCosine:
    def test_matches_row_cosine_diag(self):
        rng = np.random.default_rng(2)
        a = nc.Tensor(rng.standard_normal((4, 3)))
        b = nc.Tensor(rng.standard_normal((4, 3)))
        paired = nc.rowwise_cosine_sim(a, b).data[:, 0]
        full = nc.row_cosine_sim(a, b).data
        np.testing.assert_allclose(paired, np.diag(full), atol=1e-14)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        a = nc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = nc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)

        def loss():
            return sum_all(nc.rowwise_cosine_sim(a, b)).item()

        grads = nc.backward(sum_all(nc.rowwise_cosine_sim(a, b)))
        fd_a, fd_b = finite_diff(loss, [a, b])
        assert_grads_close(grads.get(a), fd_a, label="rowwise dA")
        assert_grads_close(grads.get(b), fd_b, label="rowwise dB")


class TestSoftmaxNll:
    def test_equal_scores_two_classes(self):
        loss = nc.softmax_nll(nc.Tensor([[0.3, 0.3]]), [0], tau=1.0)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_scalar_evaluation(self):
        loss = nc.softmax_nll(nc.Tensor([[1.0, 0.0]]), [0], tau=1.0)
        assert loss.item() == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-12)

    @given(shift=st.floats(-50, 50), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, shift, seed):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal((3, 4))
        y = rng.integers(0, 4, size=3)
        base = nc.softmax_nll(nc.Tensor(scores), y, tau=1.0).item()
        shifted = nc.softmax_nll(nc.Tensor(scores + shift), y, tau=1.0).item()
        assert abs(base - shifted) < 1e-12

    @given(seed=st.integers(0, 1000), rows=st.integers(1, 5), cls=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_and_lnc_at_uniform(self, seed, rows, cls):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, cls, size=rows)
        loss = nc.softmax_nll(nc.Tensor(rng.standard_normal((rows, cls))), y, tau=0.7)
        assert loss.item() >= 0.0
        flat = nc.softmax_nll(nc.Tensor(np.full((rows, cls), 1.3)), y, tau=0.7)
        assert flat.item() == pytest.approx(math.log(cls), abs=1e-12)

    def test_bad_tau_and_targets(self):
        t = nc.Tensor([[1.0, 2.0]])
        with pytest.raises(ParameterError):
            nc.softmax_nll(t, [0], tau=0.0)
        with pytest.raises(ParameterError):
            nc.softmax_nll(t, [2], tau=1.0)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        s = nc.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        y = [0, 2, 1, 1]

        def loss():
            return nc.softmax_nll(s, y, tau=0.5).item()

        grads = nc.backward(nc.softmax_nll(s, y, tau=0.5))
        assert_grads_close(grads.get(s), finite_diff(loss, [s])[0], label="nll dS")


class TestStackingOps:
    def test_vstack_and_gradient_split(self):
        a = nc.Tensor([[1.0, 2.0]], requires_grad=True)
        b = nc.Tensor([[3.0, 4.0], [5.0, 6.0]], requires_grad=True)
        out = vstack([a, b])
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4], [5, 6]])
        grads = nc.backward(sum_all(out))
        np.testing.assert_array_equal(grads.get(a), np.ones((1, 2)))
        np.testing.assert_array_equal(grads.get(b), np.ones((2, 2)))

    def test_hstack(self):
        a = nc.Tensor([[1.0], [2.0]])
        b = nc.Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(hstack([a, b]).data, [[1, 3], [2, 4]])

    def test_gather_rows_accumulates_duplicates(self):
        x = nc.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        out = nc.gather_rows(x, [0, 0, 1])
        grads = nc.backward(sum_all(out))
        np.testing.assert_array_equal(grads.get(x), [[2.0, 2.0], [1.0, 1.0]])

    def test_gather_rows_vjp_matches_add_at_bitwise(self):
        # many repeats of few rows with spread magnitudes: any change in the
        # summation order would show in the low bits
        rng = np.random.default_rng(5)
        x = nc.Tensor(rng.standard_normal((7, 6)), requires_grad=True)
        idx = rng.integers(0, 4, size=500)
        out = nc.gather_rows(x, idx)
        wide = rng.standard_normal((500, 12)) * 10.0 ** rng.integers(-8, 8, (500, 12))
        g = wide[:, ::2]  # non-contiguous upstream gradient
        assert not g.flags.c_contiguous
        (got,) = out._vjp(g)
        expected = np.zeros(x.shape)
        np.add.at(expected, idx, g)
        assert np.array_equal(got, expected)
        assert not got[4:].any()

    def test_gather_rows_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = nc.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        w = nc.Tensor(rng.standard_normal((3, 2)))
        idx = [4, 0, 4, 4, 2, 0]

        def build():
            return sum_all(nc.relu(nc.matmul(nc.gather_rows(x, idx), w)))

        grads = nc.backward(build())
        fd = finite_diff(lambda: build().item(), [x])[0]
        assert_grads_close(grads.get(x), fd, rtol=1e-5, label="gather_rows")

    def test_mean_rows(self):
        x = nc.Tensor([[1.0, 3.0], [3.0, 5.0]], requires_grad=True)
        out = mean_rows(x)
        np.testing.assert_array_equal(out.data, [[2.0, 4.0]])
        grads = nc.backward(sum_all(out))
        np.testing.assert_array_equal(grads.get(x), np.full((2, 2), 0.5))


def _closure_values(fn):
    """The values a function's closure holds; a cell never bound is empty."""
    held = []
    for cell in fn.__closure__:
        try:
            held.append(cell.cell_contents)
        except ValueError:
            continue
    return held


class TestLowRankLayer:
    """`numcore.lowrank_layer`, one GLoRA-adapted layer as one tape node.
    Finite differences hold for every pattern of tracked inputs. With the
    adjacency factors it is the factored full-GLoRA chain bit for bit,
    forward and gradients. Without them it reassociates agg (W0 + P Q^T):
    the output and every gradient stay within 1e-13 of the dense-weight
    chain's largest entry (measured at most 4.9e-16 and 2.4e-15 over 200
    draws of these shapes)."""

    NAMES = ("agg", "h", "w0", "p", "q", "pa", "qa")

    @staticmethod
    def _inputs(rng, n=4, m=6, k=3, d=5, r=2):
        shapes = dict(agg=(n, k), h=(m, k), w0=(k, d), p=(k, r), q=(d, r),
                      pa=(n, 1), qa=(m, 1), base=(n, d))
        return {name: nc.Tensor(rng.standard_normal(shape)) for name, shape in shapes.items()}

    @staticmethod
    def _loss(out, seed=0):
        y = np.random.default_rng(seed).integers(0, out.cols, size=out.rows)
        return nc.softmax_nll(out, y, tau=0.7)

    def _check_pattern(self, build, tensors, tracked, label):
        for t, flag in zip(tensors, tracked):
            t.requires_grad = flag
        grads = nc.backward(self._loss(build()))
        wrt = [t for t, flag in zip(tensors, tracked) if flag]
        for t, fd in zip(wrt, finite_diff(lambda: self._loss(build()).item(), wrt)):
            assert_grads_close(grads.get(t), fd, rtol=1e-5, label=f"{label} {t.shape}")
        assert not any(t in grads for t, flag in zip(tensors, tracked) if not flag)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_full_every_tracked_pattern(self, rank):
        x = self._inputs(np.random.default_rng(30 + rank), r=rank)
        tensors = [x[name] for name in self.NAMES]

        def build():
            return nc.lowrank_layer(x["agg"], x["w0"], x["p"], x["q"],
                                    h=x["h"], pa=x["pa"], qa=x["qa"])

        for tracked in itertools.product([False, True], repeat=len(tensors)):
            if any(tracked):
                self._check_pattern(build, tensors, tracked, f"full {tracked}")

    @pytest.mark.parametrize("with_base", [False, True], ids=["computed_base", "supplied_base"])
    @pytest.mark.parametrize("adjacency", [False, True], ids=["projection", "full"])
    def test_base_every_tracked_pattern(self, with_base, adjacency):
        x = self._inputs(np.random.default_rng(32))
        names = ["agg", "w0", "p", "q"] + (["base"] if with_base else [])
        tensors = [x[name] for name in names]
        extra = dict(h=x["h"], pa=x["pa"], qa=x["qa"]) if adjacency else {}

        def build():
            return nc.lowrank_layer(x["agg"], x["w0"], x["p"], x["q"],
                                    x["base"] if with_base else None, **extra)

        for tracked in itertools.product([False, True], repeat=len(tensors)):
            if any(tracked):
                self._check_pattern(build, tensors, tracked, f"{names} {tracked}")

    def test_gathered_rows_of_pa(self):
        # a planned last layer keeps only some rows; its pa is gathered
        rng = np.random.default_rng(33)
        x = self._inputs(rng, n=3, m=7)
        pa_all = nc.Tensor(rng.standard_normal((7, 1)), requires_grad=True)
        rows = [1, 4, 6]
        for t in (x["p"], x["q"], x["qa"], x["h"]):
            t.requires_grad = True

        def build():
            return nc.lowrank_layer(x["agg"], x["w0"], x["p"], x["q"], x["base"],
                                    h=x["h"], pa=nc.gather_rows(pa_all, rows), qa=x["qa"])

        wrt = [pa_all, x["p"], x["q"], x["qa"], x["h"]]
        grads = nc.backward(self._loss(build()))
        for t, fd in zip(wrt, finite_diff(lambda: self._loss(build()).item(), wrt)):
            assert_grads_close(grads.get(t), fd, rtol=1e-5, label=str(t.shape))
        assert not grads.get(pa_all)[[0, 2, 3, 5]].any()

    @staticmethod
    def _both(x, tracked, **kwargs):
        for name, t in x.items():
            t.requires_grad = name in tracked
        args = (x["agg"], x["w0"], x["p"], x["q"])
        ours = nc.lowrank_layer(*args, **kwargs)
        chain = unfused_lowrank_layer(*args, **kwargs)
        return ours, chain, nc.backward(TestLowRankLayer._loss(ours, 1)), \
            nc.backward(TestLowRankLayer._loss(chain, 1))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tracked", [("p", "q", "pa", "qa"),
                                         ("agg", "h", "p", "q", "pa", "qa"),
                                         ("agg", "h", "w0", "p", "q", "pa", "qa")],
                             ids=["first_layer", "deeper_layer", "base_trains"])
    def test_full_equals_factored_chain_bitwise(self, seed, tracked):
        rng = np.random.default_rng(40 + seed)
        x = self._inputs(rng, n=40, m=40, k=16, d=16, r=4)
        for base in (None, x["base"]):
            ours, chain, got, want = self._both(x, tracked, base=base, h=x["h"],
                                                pa=x["pa"], qa=x["qa"])
            assert ours.data.tobytes() == chain.data.tobytes()
            for name in tracked:
                assert got.get(x[name]).tobytes() == want.get(x[name]).tobytes(), name

    @pytest.mark.parametrize("seed", range(4))
    def test_projection_reassociates_the_dense_weight_chain(self, seed):
        rng = np.random.default_rng(50 + seed)
        x = self._inputs(rng, n=40, k=16, d=16, r=4)
        tracked = ("agg", "w0", "p", "q")
        ours, chain, got, want = self._both(x, tracked)
        scale = np.abs(chain.data).max()
        assert np.abs(ours.data - chain.data).max() <= 1e-13 * scale
        for name in tracked:
            a, b = got.get(x[name]), want.get(x[name])
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), name

    def test_vjp_holds_no_node_by_width_array(self):
        # the output is on the tape already; the closure keeps the inputs'
        # tensors and arrays of r + 1 columns or of one row
        n, d = 50, 16
        x = self._inputs(np.random.default_rng(34), n=n, m=n, k=d, d=d, r=2)
        for t in x.values():
            t.requires_grad = True
        for kwargs in ({}, dict(h=x["h"], pa=x["pa"], qa=x["qa"])):
            out = nc.lowrank_layer(x["agg"], x["w0"], x["p"], x["q"], **kwargs)
            held = _closure_values(out._vjp)
            assert not [a.shape for a in held if isinstance(a, np.ndarray)
                        and a.shape[0] == n and a.shape[1] >= d]

    def test_shapes_that_do_not_chain_raise(self):
        x = self._inputs(np.random.default_rng(35))
        agg, w0, p, q = x["agg"], x["w0"], x["p"], x["q"]
        with pytest.raises(DimensionError, match="lowrank_layer"):
            nc.lowrank_layer(agg, w0, q, q)
        with pytest.raises(DimensionError, match="lowrank_layer"):
            nc.lowrank_layer(agg, w0, p, p)
        with pytest.raises(DimensionError, match="lowrank_layer"):
            nc.lowrank_layer(agg, w0, p, q, base=agg)
        with pytest.raises(DimensionError, match="lowrank_layer"):
            nc.lowrank_layer(agg, w0, p, q, h=x["h"], pa=x["pa"])  # no qa
        with pytest.raises(DimensionError, match="lowrank_layer"):
            nc.lowrank_layer(agg, w0, p, q, h=x["h"], pa=x["qa"], qa=x["qa"])
