import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as scipy_sparse

from hopprompt import numcore as nc
from hopprompt.errors import ContractError, DimensionError, StructuralError

from tests._oracles import (
    assert_grads_close,
    finite_diff,
    random_csr,
    rank_one_update_spmm,
    reference_unsorted_row,
)


def sparse_identity(n):
    return nc.SparseMatrix(
        (n, n), np.arange(n + 1), np.arange(n), np.ones(n)
    )


def path3_adjacency():
    # 0-1-2 path, unweighted
    return nc.SparseMatrix(
        (3, 3),
        row_offsets=[0, 1, 3, 4],
        col_indices=[1, 0, 2, 1],
        values=[1.0, 1.0, 1.0, 1.0],
    )


class TestSparseMatrix:
    def test_densify_roundtrip(self):
        rng = np.random.default_rng(0)
        offs, cols, vals, dense = random_csr(rng, 6, 5, density=0.3)
        s = nc.SparseMatrix((6, 5), offs, cols, vals)
        np.testing.assert_array_equal(s.densify(), dense)

    @pytest.mark.parametrize("bad", [
        dict(row_offsets=[0, 1], col_indices=[0], values=[1.0]),        # offsets too short
        dict(row_offsets=[0, 2, 1], col_indices=[0, 1], values=[1, 1]), # decreasing
        dict(row_offsets=[0, 1, 2], col_indices=[0, 5], values=[1, 1]), # col out of range
        dict(row_offsets=[0, 2, 2], col_indices=[1, 0], values=[1, 1]), # not increasing in row
        dict(row_offsets=[0, 1, 2], col_indices=[0, 1], values=[np.nan, 1]),
    ])
    def test_malformed_csr_rejected(self, bad):
        with pytest.raises(StructuralError):
            nc.SparseMatrix((2, 2), **bad)

    def test_submatrix(self):
        s = path3_adjacency()
        sub, source = s.slice([0, 1], [0, 1])
        np.testing.assert_array_equal(sub.densify(), [[0, 1], [1, 0]])
        np.testing.assert_array_equal(source, [0, 1])
        # rectangular, rows in any order: rows 2, 0 by columns 0, 1
        block, source = s.slice([2, 0], [0, 1])
        np.testing.assert_array_equal(block.densify(), [[0, 1], [0, 1]])
        np.testing.assert_array_equal(source, [3, 0])

    def test_entry_rows_are_read_only(self):
        s = path3_adjacency()
        np.testing.assert_array_equal(s.nnz_rows(), [0, 1, 1, 2])
        with pytest.raises(ValueError):
            s.nnz_rows()[0] = 2


@st.composite
def csr_parts(draw, canonical=False):
    """Valid row offsets and in-range columns; unless `canonical`, a row may
    repeat or reorder its columns."""
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(1, 8))
    offs, idx = [0], []
    for _ in range(rows):
        row = draw(st.lists(st.integers(0, cols - 1), max_size=5))
        if canonical or draw(st.booleans()):
            row = sorted(set(row))
        idx += row
        offs.append(len(idx))
    return (rows, cols), np.array(offs), np.array(idx, dtype=np.int64)


class TestConstructorProperties:
    @given(parts=csr_parts())
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_what_the_row_loop_accepted(self, parts):
        shape, offs, idx = parts
        bad_row = reference_unsorted_row(offs, idx)
        if bad_row is None:
            nc.SparseMatrix(shape, offs, idx, np.ones(idx.size))
        else:
            with pytest.raises(StructuralError, match=rf"^row {bad_row}: "):
                nc.SparseMatrix(shape, offs, idx, np.ones(idx.size))

    @given(parts=csr_parts(canonical=True), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_densify_matches_scipy(self, parts, seed):
        shape, offs, idx = parts
        vals = np.random.default_rng(seed).standard_normal(idx.size)
        s = nc.SparseMatrix(shape, offs, idx, vals)
        ref = scipy_sparse.csr_matrix((vals, idx, offs), shape=shape).toarray()
        np.testing.assert_array_equal(s.densify(), ref)


class TestSpmm:
    def test_identity(self):
        m = nc.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = nc.spmm(sparse_identity(3), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_path_graph_indicator(self):
        onehot = nc.Tensor([[0.0], [1.0], [0.0]])
        out = nc.spmm(path3_adjacency(), onehot)
        expected = path3_adjacency().densify() @ onehot.data
        np.testing.assert_array_equal(out.data, expected)
        np.testing.assert_array_equal(out.data, [[1.0], [0.0], [1.0]])

    def test_random_matches_dense(self):
        rng = np.random.default_rng(1)
        offs, cols, vals, dense = random_csr(rng, 10, 10, density=0.2)
        s = nc.SparseMatrix((10, 10), offs, cols, vals)
        d = nc.Tensor(rng.standard_normal((10, 4)))
        gap = np.abs(nc.spmm(s, d).data - dense @ d.data).max()
        assert gap < 1e-12

    def test_many_random_instances_vs_densify(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            rows = int(rng.integers(1, 51))
            cols = int(rng.integers(1, 51))
            offs, cidx, vals, dense = random_csr(rng, rows, cols, density=0.15)
            s = nc.SparseMatrix((rows, cols), offs, cidx, vals)
            d = nc.Tensor(rng.standard_normal((cols, 3)))
            gap = np.abs(nc.spmm(s, d).data - dense @ d.data).max()
            assert gap < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nc.spmm(sparse_identity(3), nc.Tensor(np.zeros((4, 2))))

    def test_gradient_wrt_dense_and_values(self):
        rng = np.random.default_rng(3)
        offs, cidx, vals, _ = random_csr(rng, 5, 5, density=0.4)
        s = nc.SparseMatrix((5, 5), offs, cidx, np.zeros_like(vals))
        d = nc.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        v = nc.Tensor(vals[:, None], requires_grad=True)

        def loss():
            return nc.softmax_nll(nc.spmm(s, d, values=v), [0, 1, 2, 0, 1], tau=1.0).item()

        grads = nc.backward(nc.softmax_nll(nc.spmm(s, d, values=v), [0, 1, 2, 0, 1], tau=1.0))
        fd_d, fd_v = finite_diff(loss, [d, v])
        assert_grads_close(grads.get(d), fd_d, label="spmm dD")
        assert_grads_close(grads.get(v), fd_v, label="spmm dV")


class TestSpmmSlots:
    """`slots` restricts the values override, and its gradient, to chosen
    CSR positions; the other entries keep their stored values."""

    @staticmethod
    def _setup(seed):
        rng = np.random.default_rng(seed)
        offs, cidx, vals, _ = random_csr(rng, 9, 7, density=0.4)
        s = nc.SparseMatrix((9, 7), offs, cidx, vals)
        slots = rng.choice(s.nnz, size=s.nnz // 3, replace=False)  # unsorted
        return rng, s, slots

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_full_override_bitwise(self, seed):
        rng, s, slots = self._setup(seed)
        d_data = rng.standard_normal((7, 4))
        picked = rng.standard_normal((slots.size, 1))
        full = s.values.copy()[:, None]
        full[slots] = picked
        targets = rng.integers(0, 4, size=9)

        def run(values, **kw):
            d = nc.Tensor(d_data, requires_grad=True)
            v = nc.Tensor(values, requires_grad=True)
            out = nc.spmm(s, d, values=v, **kw)
            grads = nc.backward(nc.softmax_nll(out, targets, tau=0.7))
            return out.data, grads.get(d), grads.get(v)

        out_full, dd_full, dv_full = run(full)
        out_slot, dd_slot, dv_slot = run(picked, slots=slots)
        assert np.array_equal(out_slot, out_full)
        assert np.array_equal(dd_slot, dd_full)
        assert np.array_equal(dv_slot, dv_full[slots])

    def test_gradients_match_finite_differences(self):
        rng, s, slots = self._setup(11)
        d = nc.Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        v = nc.Tensor(rng.standard_normal((slots.size, 1)), requires_grad=True)
        targets = rng.integers(0, 3, size=9)

        def loss():
            return nc.softmax_nll(nc.spmm(s, d, values=v, slots=slots), targets, tau=1.0)

        grads = nc.backward(loss())
        fd_d, fd_v = finite_diff(lambda: loss().item(), [d, v])
        assert_grads_close(grads.get(d), fd_d, label="spmm slots dD")
        assert_grads_close(grads.get(v), fd_v, label="spmm slots dV")

    def test_bad_slots_rejected(self):
        s = path3_adjacency()  # nnz 4
        d = nc.Tensor(np.zeros((3, 2)))
        two = nc.Tensor(np.zeros((2, 1)))
        with pytest.raises(ContractError):
            nc.spmm(s, d, values=two, slots=[1, 1])
        for bad in ([0, 4], [-1, 0], [[0, 1]]):
            with pytest.raises(DimensionError):
                nc.spmm(s, d, values=two, slots=bad)
        with pytest.raises(DimensionError):
            nc.spmm(s, d, values=nc.Tensor(np.zeros((3, 1))), slots=[0, 1])
        with pytest.raises(DimensionError):
            nc.spmm(s, d, slots=[0, 1])

    @pytest.mark.parametrize("slots", [[0, 2, 0], [3, 1, 3], [0, 0], [3, 3]])
    def test_repeat_at_first_or_last_slot_rejected(self, slots):
        s = path3_adjacency()  # nnz 4: slots 0 and 3 are the first and last
        values = nc.Tensor(np.zeros((len(slots), 1)))
        with pytest.raises(ContractError, match="slots must be distinct"):
            nc.spmm(s, nc.Tensor(np.ones((3, 2))), values=values, slots=slots)

    def test_empty_slots_keep_the_stored_values(self):
        s = path3_adjacency()
        d = nc.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        v = nc.Tensor(np.zeros((0, 1)), requires_grad=True)
        out = nc.spmm(s, d, values=v, slots=np.array([], dtype=np.int64))
        assert np.array_equal(out.data, nc.spmm(s, d).data)
        dd, dv = out._vjp(np.ones((3, 2)))
        assert dv.shape == (0, 1)

    @given(slots=st.lists(st.integers(0, 6), max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_repeats_rejected_exactly_when_not_unique(self, slots):
        s = nc.SparseMatrix.from_coo((3, 3), [0, 0, 1, 1, 2, 2, 2], [0, 1, 0, 2, 0, 1, 2],
                                     np.arange(1.0, 8.0))
        values = nc.Tensor(np.ones((len(slots), 1)))
        d = nc.Tensor(np.ones((3, 2)))
        if len(set(slots)) == len(slots):
            nc.spmm(s, d, values=values, slots=slots)
        else:
            with pytest.raises(ContractError, match="slots must be distinct"):
                nc.spmm(s, d, values=values, slots=slots)

    @pytest.mark.parametrize("slotted", [False, True])
    def test_untracked_operand_gets_no_product(self, slotted):
        rng, s, slots = self._setup(3)
        if not slotted:
            slots = None
        k = s.nnz if slots is None else slots.size
        v = nc.Tensor(rng.standard_normal((k, 1)), requires_grad=True)
        d_data = rng.standard_normal((7, 2))
        g = rng.standard_normal((9, 2))
        const = nc.spmm(s, nc.Tensor(d_data), values=v, slots=slots)
        tracked = nc.spmm(s, nc.Tensor(d_data, requires_grad=True), values=v,
                          slots=slots)
        dd_const, dv_const = const._vjp(g)
        dd_tracked, dv_tracked = tracked._vjp(g)
        assert dd_const is None
        assert dd_tracked is not None
        assert np.array_equal(dv_const, dv_tracked)


class TestSlice:
    """`slice(rows, cols)` is the dense block at those rows and columns, and
    the products over it differentiate like any other spmm."""

    @staticmethod
    def _block(seed):
        rng = np.random.default_rng(seed)
        offs, cidx, vals, dense = random_csr(rng, 12, 10, density=0.4)
        s = nc.SparseMatrix((12, 10), offs, cidx, vals)
        rows = rng.choice(12, size=7, replace=False)  # any order
        cols = np.sort(rng.choice(10, size=6, replace=False))
        return rng, s, dense, rows, cols

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_block(self, seed):
        _rng, s, dense, rows, cols = self._block(seed)
        block, source = s.slice(rows, cols)
        assert block.shape == (7, 6)
        np.testing.assert_array_equal(block.densify(), dense[rows][:, cols])
        np.testing.assert_array_equal(block.values, s.values[source])
        np.testing.assert_array_equal(rows[block.nnz_rows()], s.nnz_rows()[source])
        np.testing.assert_array_equal(cols[block.col_indices], s.col_indices[source])

    def test_neighbourhood(self):
        s = path3_adjacency()
        np.testing.assert_array_equal(s.neighbourhood([0]), [0, 1])
        np.testing.assert_array_equal(s.neighbourhood([2, 1]), [0, 1, 2])
        np.testing.assert_array_equal(s.neighbourhood([]), [])

    def test_bad_rows_or_cols_rejected(self):
        s = path3_adjacency()
        for rows, cols in [([3], [0]), ([-1], [0]), ([[0]], [0]),
                           ([0], [1, 0]), ([0], [0, 0]), ([0], [3])]:
            with pytest.raises(DimensionError):
                s.slice(rows, cols)

    @pytest.mark.parametrize("slotted", [False, True])
    def test_gradients_match_finite_differences(self, slotted):
        rng, s, _dense, rows, cols = self._block(7)
        block, _source = s.slice(rows, cols)
        slots = rng.choice(block.nnz, size=block.nnz // 2, replace=False) if slotted else None
        k = block.nnz if slots is None else slots.size
        d = nc.Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        v = nc.Tensor(rng.standard_normal((k, 1)), requires_grad=True)
        targets = rng.integers(0, 3, size=7)

        def loss():
            return nc.softmax_nll(nc.spmm(block, d, values=v, slots=slots), targets,
                                  tau=1.0)

        grads = nc.backward(loss())
        fd_d, fd_v = finite_diff(lambda: loss().item(), [d, v])
        assert_grads_close(grads.get(d), fd_d, label="block spmm dD")
        assert_grads_close(grads.get(v), fd_v, label="block spmm dV")

    def test_rank_one_update_on_a_block(self):
        rng, s, dense, rows, cols = self._block(8)
        block, _source = s.slice(rows, cols)
        p = nc.Tensor(rng.standard_normal((7, 1)), requires_grad=True)
        q = nc.Tensor(rng.standard_normal((6, 1)), requires_grad=True)
        d = nc.Tensor(rng.standard_normal((6, 2)), requires_grad=True)
        out = rank_one_update_spmm(block, p, q, d)
        expected = (dense[rows][:, cols] + p.data @ q.data.T) @ d.data
        assert np.abs(out.data - expected).max() < 1e-12

        def loss():
            return nc.softmax_nll(rank_one_update_spmm(block, p, q, d), [0, 1] * 3 + [0],
                                  tau=1.0)

        grads = nc.backward(loss())
        fd = finite_diff(lambda: loss().item(), [p, q, d])
        for t, want, name in zip((p, q, d), fd, "pqd"):
            assert_grads_close(grads.get(t), want, label=f"block rank1 d{name}")


class TestRankOneUpdateSpmm:
    def test_zero_factors_reduce_to_spmm(self):
        rng = np.random.default_rng(4)
        s = path3_adjacency()
        d = nc.Tensor(rng.standard_normal((3, 2)))
        zero = nc.Tensor(np.zeros((3, 1)))
        p = nc.Tensor(rng.standard_normal((3, 1)))
        for left, right in [(zero, p), (p, zero)]:
            out = rank_one_update_spmm(s, left, right, d)
            np.testing.assert_array_equal(out.data, nc.spmm(s, d).data)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        offs, cidx, vals, dense = random_csr(rng, 4, 4, density=0.4)
        s = nc.SparseMatrix((4, 4), offs, cidx, vals)
        p = rng.standard_normal((4, 1))
        q = rng.standard_normal((4, 1))
        d = rng.standard_normal((4, 3))
        out = rank_one_update_spmm(s, nc.Tensor(p), nc.Tensor(q), nc.Tensor(d))
        expected = (dense + p @ q.T) @ d
        assert np.abs(out.data - expected).max() < 1e-12

    def test_gradient_wrt_p(self):
        rng = np.random.default_rng(6)
        offs, cidx, vals, _ = random_csr(rng, 4, 4, density=0.5)
        s = nc.SparseMatrix((4, 4), offs, cidx, vals)
        p = nc.Tensor(rng.standard_normal((4, 1)), requires_grad=True)
        q = nc.Tensor(rng.standard_normal((4, 1)), requires_grad=True)
        d = nc.Tensor(rng.standard_normal((4, 2)), requires_grad=True)

        def loss():
            return nc.sum_all(rank_one_update_spmm(s, p, q, d)).item()

        grads = nc.backward(nc.sum_all(rank_one_update_spmm(s, p, q, d)))
        fd = finite_diff(loss, [p, q, d])
        assert_grads_close(grads.get(p), fd[0], rtol=1e-5, label="rank1 dP")
        assert_grads_close(grads.get(q), fd[1], rtol=1e-5, label="rank1 dQ")
        assert_grads_close(grads.get(d), fd[2], rtol=1e-5, label="rank1 dD")

    def test_shape_checks(self):
        s = path3_adjacency()
        good = nc.Tensor(np.zeros((3, 1)))
        with pytest.raises(DimensionError):
            rank_one_update_spmm(s, nc.Tensor(np.zeros((2, 1))), good,
                                    nc.Tensor(np.zeros((3, 2))))
        with pytest.raises(DimensionError):
            rank_one_update_spmm(s, good, good, nc.Tensor(np.zeros((4, 2))))
