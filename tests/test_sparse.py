import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as scipy_sparse

from hopprompt import numcore as nc
from hopprompt.errors import ContractError, DimensionError, StructuralError

from tests._oracles import (
    assert_grads_close,
    densify,
    finite_diff,
    override_spmm,
    random_csr,
    rank_one_update_spmm,
    reference_unsorted_row,
    sum_all,
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
        np.testing.assert_array_equal(densify(s), dense)

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
        np.testing.assert_array_equal(densify(sub), [[0, 1], [1, 0]])
        np.testing.assert_array_equal(source, [0, 1])
        # rectangular, rows in any order: rows 2, 0 by columns 0, 1
        block, source = s.slice([2, 0], [0, 1])
        np.testing.assert_array_equal(densify(block), [[0, 1], [0, 1]])
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
        np.testing.assert_array_equal(densify(s), ref)


class TestSpmm:
    def test_identity(self):
        m = nc.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = nc.spmm(sparse_identity(3), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_path_graph_indicator(self):
        onehot = nc.Tensor([[0.0], [1.0], [0.0]])
        out = nc.spmm(path3_adjacency(), onehot)
        expected = densify(path3_adjacency()) @ onehot.data
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
        # the frozen product plus an update over every entry, one value each:
        # the product of a matrix whose values all train
        rng = np.random.default_rng(3)
        offs, cidx, vals, _ = random_csr(rng, 5, 5, density=0.4)
        s = nc.SparseMatrix((5, 5), offs, cidx, vals)
        d = nc.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        v = nc.Tensor(rng.standard_normal((s.nnz, 1)), requires_grad=True)
        every = nc.EdgePattern(s, np.arange(s.nnz), np.arange(s.nnz), s.nnz)

        def loss():
            return nc.softmax_nll(nc.edge_update(nc.spmm(s, d), every, v, d),
                                  [0, 1, 2, 0, 1], tau=1.0)

        grads = nc.backward(loss())
        fd_d, fd_v = finite_diff(lambda: loss().item(), [d, v])
        assert_grads_close(grads.get(d), fd_d, label="spmm dD")
        assert_grads_close(grads.get(v), fd_v, label="spmm dV")


def _stored_transpose_cases():
    """(name, matrix) pairs whose spmm VJP multiplies by the transpose
    stored at construction."""
    from hopprompt import graphstore as gs

    g = gs.random_labeled_graph(40, 90, 3, 4, seed=5)
    adj = gs.normalize_adjacency(g)
    rows = np.array([7, 3, 3, 30, 12])  # any order, a repeat included
    block, _source = adj.slice(rows, adj.neighbourhood([3, 7, 12, 30]))
    batch = gs.graph_batch(gs.build_graph_task(g, hops=1).graphs[:6])
    # rows 0 and 3 and columns 1 and 4 hold no entry
    gappy = nc.SparseMatrix.from_coo((5, 6), [1, 1, 2, 4, 4], [0, 5, 3, 2, 5],
                                     [0.5, -1.5, 2.0, 0.25, 3.0])
    empty = nc.SparseMatrix((3, 4), np.zeros(4, dtype=np.int64), [], [])
    return [("adjacency", adj), ("slice", block), ("pool", batch.pool),
            ("empty_rows_and_cols", gappy), ("zero_nnz", empty)]


class TestSpmmStoredTranspose:
    """The VJP of an unweighted spmm multiplies by a CSR transpose built
    once with the matrix; it equals scipy's `mat.T @ g` bit for bit."""

    @pytest.mark.parametrize("name, s", _stored_transpose_cases(),
                             ids=[n for n, _ in _stored_transpose_cases()])
    def test_equals_scipy_transpose_product(self, name, s):
        rng = np.random.default_rng(8)
        for width in (1, 3, 64):
            d = nc.Tensor(rng.standard_normal((s.shape[1], width)), requires_grad=True)
            out = nc.spmm(s, d)
            g = rng.standard_normal(out.shape)
            (dd,) = out._vjp(g)
            want = s._csr.T @ g
            assert dd.shape == (s.shape[1], width)
            assert dd.tobytes() == want.tobytes()
            np.testing.assert_allclose(dd, densify(s).T @ g, rtol=1e-12, atol=1e-12)

    def test_transpose_is_built_with_the_matrix(self):
        s = path3_adjacency()
        assert s._csr_t.shape == (3, 3)
        assert np.array_equal(s._csr_t.toarray(), densify(s).T)

    @pytest.mark.parametrize("slotted", [False, True])
    def test_values_override_multiplies_by_its_own_transpose(self, slotted):
        """An edge update's d/dx is E(w)^T g, E(w) holding only the trained
        entries, not the stored matrix's transpose."""
        rng, s, slots = TestSpmmSlots._setup(4)
        if not slotted:
            slots = np.arange(s.nnz)
        pattern = nc.EdgePattern(s, slots, np.arange(slots.size), slots.size)
        v = nc.Tensor(rng.standard_normal((slots.size, 1)), requires_grad=True)
        d = nc.Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        out = nc.edge_update(nc.Tensor(np.zeros((9, 3))), pattern, v, d)
        g = rng.standard_normal(out.shape)
        _dbase, dd, _dv = out._vjp(g)
        values = np.zeros(s.nnz)
        values[slots] = v.data[:, 0]
        e_w = scipy_sparse.csr_matrix((values, s.col_indices, s.row_offsets), shape=s.shape)
        assert dd.tobytes() == (e_w.T @ g).tobytes()
        assert not np.array_equal(dd, s._csr_t @ g)


class TestSpmmSlots:
    """Trainable entries at chosen CSR `slots`: `EdgePattern` checks them
    once, and `edge_update` adds their k-entry update E(w) d to a frozen
    product; the other entries keep their stored values."""

    @staticmethod
    def _setup(seed):
        rng = np.random.default_rng(seed)
        offs, cidx, vals, _ = random_csr(rng, 9, 7, density=0.4)
        s = nc.SparseMatrix((9, 7), offs, cidx, vals)
        slots = rng.choice(s.nnz, size=s.nnz // 3, replace=False)  # unsorted
        return rng, s, slots

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_full_override_bitwise(self, seed):
        """With one value per slot, E(w) d is the override product over a
        zero-valued copy of the matrix, and so are both gradients."""
        rng, s, slots = self._setup(seed)
        zero = nc.SparseMatrix(s.shape, s.row_offsets, s.col_indices, np.zeros(s.nnz))
        d_data = rng.standard_normal((7, 4))
        picked = rng.standard_normal((slots.size, 1))
        full = np.zeros((s.nnz, 1))
        full[slots] = picked
        targets = rng.integers(0, 4, size=9)
        pattern = nc.EdgePattern(s, slots, np.arange(slots.size), slots.size)

        def run(values, product):
            d = nc.Tensor(d_data, requires_grad=True)
            v = nc.Tensor(values, requires_grad=True)
            out = product(d, v)
            grads = nc.backward(nc.softmax_nll(out, targets, tau=0.7))
            return out.data, grads.get(d), grads.get(v)

        out_full, dd_full, dv_full = run(
            full, lambda d, v: override_spmm(zero, d, v, np.arange(s.nnz)))
        out_slot, dd_slot, dv_slot = run(
            picked, lambda d, v: nc.edge_update(nc.Tensor(np.zeros((9, 4))), pattern, v, d))
        assert np.array_equal(out_slot, out_full)
        assert np.array_equal(dd_slot, dd_full)
        assert np.array_equal(dv_slot, dv_full[slots])

    def test_gradients_match_finite_differences(self):
        rng, s, slots = self._setup(11)
        d = nc.Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        v = nc.Tensor(rng.standard_normal((slots.size, 1)), requires_grad=True)
        pattern = nc.EdgePattern(s, slots, np.arange(slots.size), slots.size)
        targets = rng.integers(0, 3, size=9)

        def loss():
            return nc.softmax_nll(nc.edge_update(nc.spmm(s, d), pattern, v, d),
                                  targets, tau=1.0)

        grads = nc.backward(loss())
        fd_d, fd_v = finite_diff(lambda: loss().item(), [d, v])
        assert_grads_close(grads.get(d), fd_d, label="spmm slots dD")
        assert_grads_close(grads.get(v), fd_v, label="spmm slots dV")

    def test_bad_slots_rejected(self):
        s = path3_adjacency()  # nnz 4
        with pytest.raises(ContractError):
            nc.EdgePattern(s, [1, 1], [0, 1], 2)
        for bad in ([0, 4], [-1, 0], [[0, 1]]):
            with pytest.raises(DimensionError):
                nc.EdgePattern(s, bad, [0, 1], 2)
        for edges in ([0, 2], [-1, 0], [0]):
            with pytest.raises(DimensionError):
                nc.EdgePattern(s, [0, 1], edges, 2)
        pattern = nc.EdgePattern(s, [0, 1], [0, 1], 2)
        d, base = nc.Tensor(np.zeros((3, 2))), nc.Tensor(np.zeros((3, 2)))
        for w, x, b in [(nc.Tensor(np.zeros((3, 1))), d, base),
                        (nc.Tensor(np.zeros((2, 1))), nc.Tensor(np.zeros((4, 2))), base),
                        (nc.Tensor(np.zeros((2, 1))), d, nc.Tensor(np.zeros((3, 1))))]:
            with pytest.raises(DimensionError, match="edge_update"):
                nc.edge_update(b, pattern, w, x)

    @pytest.mark.parametrize("slots", [[0, 2, 0], [3, 1, 3], [0, 0], [3, 3]])
    def test_repeat_at_first_or_last_slot_rejected(self, slots):
        s = path3_adjacency()  # nnz 4: slots 0 and 3 are the first and last
        with pytest.raises(ContractError, match="slots must be distinct"):
            nc.EdgePattern(s, slots, np.zeros(len(slots), dtype=np.int64), 1)

    def test_empty_slots_keep_the_stored_values(self):
        s = path3_adjacency()
        d = nc.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        v = nc.Tensor(np.ones((2, 1)), requires_grad=True)
        pattern = nc.EdgePattern(s, np.array([], dtype=np.int64), [], 2)
        base = nc.spmm(s, d)
        out = nc.edge_update(base, pattern, v, d)
        assert np.array_equal(out.data, base.data)
        _dbase, dd, dv = out._vjp(np.ones((3, 2)))
        assert np.array_equal(dv, np.zeros((2, 1))) and not dd.any()

    @given(slots=st.lists(st.integers(0, 6), max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_repeats_rejected_exactly_when_not_unique(self, slots):
        s = nc.SparseMatrix.from_coo((3, 3), [0, 0, 1, 1, 2, 2, 2], [0, 1, 0, 2, 0, 1, 2],
                                     np.arange(1.0, 8.0))
        edges = np.arange(len(slots))
        if len(set(slots)) == len(slots):
            nc.EdgePattern(s, slots, edges, max(len(slots), 1))
        else:
            with pytest.raises(ContractError, match="slots must be distinct"):
                nc.EdgePattern(s, slots, edges, len(slots))

    @pytest.mark.parametrize("slotted", [False, True])
    def test_untracked_operand_gets_no_product(self, slotted):
        rng, s, slots = self._setup(3)
        if not slotted:
            slots = np.arange(s.nnz)
        k = slots.size
        pattern = nc.EdgePattern(s, slots, np.arange(k), k)
        v = nc.Tensor(rng.standard_normal((k, 1)), requires_grad=True)
        d_data = rng.standard_normal((7, 2))
        g = rng.standard_normal((9, 2))
        base = nc.Tensor(np.zeros((9, 2)))
        const = nc.edge_update(base, pattern, v, nc.Tensor(d_data))
        tracked = nc.edge_update(base, pattern, v, nc.Tensor(d_data, requires_grad=True))
        _b, dd_const, dv_const = const._vjp(g)
        _b, dd_tracked, dv_tracked = tracked._vjp(g)
        assert dd_const is None
        assert dd_tracked is not None
        assert np.array_equal(dv_const, dv_tracked)


def _edge_cases():
    """(name, block, slots, edges, num_edges): a 4-node cycle's adjacency
    and two of its blocks, with edges (0,1) and (2,3) trained at both of
    their entries; the blocks keep both, one or none of an edge's."""
    adj = nc.SparseMatrix.from_coo((4, 4), [0, 1, 1, 2, 2, 3, 3, 0], [1, 0, 2, 1, 3, 2, 0, 3],
                                   [0.5, 0.5, 0.25, 0.25, 0.75, 0.75, 0.5, 0.5])
    pos = np.array([[0, 2], [5, 7]])  # CSR slots of (0,1)/(1,0) and (2,3)/(3,2)
    slots, edges = pos.T.ravel(), np.tile(np.arange(2), 2)
    cases = [("both_entries", adj, slots, edges, 2)]
    for name, rows, cols in [("one_entry", [0, 2], np.arange(4)),
                             ("no_entry", [1], [2, 3])]:
        block, source = adj.slice(rows, cols)
        where = np.full(adj.nnz, -1)
        where[source] = np.arange(source.size)
        keep = where[slots] >= 0
        cases.append((name, block, where[slots][keep], edges[keep], 2))
    return cases


class TestEdgeUpdate:
    """`edge_update` (base + E(w) x) against central differences for each
    kind of pattern and each tracked operand."""

    @pytest.mark.parametrize("x_tracked", [False, True], ids=["x-const", "x-tracked"])
    @pytest.mark.parametrize("base_tracked", [False, True],
                             ids=["base-const", "base-tracked"])
    @pytest.mark.parametrize("name, block, slots, edges, k", _edge_cases(),
                             ids=[c[0] for c in _edge_cases()])
    def test_finite_differences(self, name, block, slots, edges, k, base_tracked,
                                x_tracked):
        rng = np.random.default_rng(31)
        pattern = nc.EdgePattern(block, slots, edges, k)
        m, n = block.shape
        assert pattern.rows.size == {"both_entries": 4, "one_entry": 2, "no_entry": 0}[name]
        x = nc.Tensor(rng.standard_normal((n, 3)), requires_grad=x_tracked)
        base = nc.Tensor(rng.standard_normal((m, 3)), requires_grad=base_tracked)
        w = nc.Tensor(rng.standard_normal((k, 1)), requires_grad=True)
        targets = rng.integers(0, 3, size=m)

        def loss():
            return nc.softmax_nll(nc.edge_update(base, pattern, w, x), targets, tau=0.8)

        tracked = [t for t in (base, w, x) if t.requires_grad]
        grads = nc.backward(loss())
        for t, fd in zip(tracked, finite_diff(lambda: loss().item(), tracked)):
            assert_grads_close(grads.get(t), fd, label=name)
        assert (x in grads) == x_tracked and (base in grads) == base_tracked
        if name == "no_entry":
            assert not grads.get(w).any()

    def test_matches_the_dense_update(self):
        rng = np.random.default_rng(32)
        for name, block, slots, edges, k in _edge_cases():
            pattern = nc.EdgePattern(block, slots, edges, k)
            w = rng.standard_normal((k, 1))
            x = rng.standard_normal((block.shape[1], 2))
            e = np.zeros(block.nnz)
            e[slots] = w[edges, 0]
            dense = densify(nc.SparseMatrix(block.shape, block.row_offsets,
                                                 block.col_indices, e))
            out = nc.edge_update(nc.Tensor(np.zeros((block.shape[0], 2))), pattern,
                                 nc.Tensor(w), nc.Tensor(x))
            np.testing.assert_allclose(out.data, dense @ x, rtol=0, atol=1e-15,
                                       err_msg=name)


class TestSparseProduct:
    """`a @ b` of two SparseMatrix is their canonical sparse product."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_product(self, seed):
        rng = np.random.default_rng(seed)
        offs, cidx, vals, left = random_csr(rng, 4, 9, density=0.4)
        a = nc.SparseMatrix((4, 9), offs, cidx, vals)
        offs, cidx, vals, right = random_csr(rng, 9, 7, density=0.4)
        b = nc.SparseMatrix((9, 7), offs, cidx, vals)
        prod = a @ b
        assert prod.shape == (4, 7)
        np.testing.assert_allclose(densify(prod), left @ right, rtol=1e-13, atol=1e-15)
        # only nonzero sums are stored
        assert np.count_nonzero(prod.values) == prod.nnz

    def test_inner_dims_checked(self):
        with pytest.raises(DimensionError, match="inner dims differ"):
            sparse_identity(3) @ sparse_identity(4)


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
        np.testing.assert_array_equal(densify(block), dense[rows][:, cols])
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
        slots = (rng.choice(block.nnz, size=block.nnz // 2, replace=False) if slotted
                 else np.arange(block.nnz))
        k = slots.size
        d = nc.Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        v = nc.Tensor(rng.standard_normal((k, 1)), requires_grad=True)
        targets = rng.integers(0, 3, size=7)
        pattern = nc.EdgePattern(block, slots, np.arange(k), k)

        def loss():
            return nc.softmax_nll(nc.edge_update(nc.spmm(block, d), pattern, v, d),
                                  targets, tau=1.0)

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
            return sum_all(rank_one_update_spmm(s, p, q, d)).item()

        grads = nc.backward(sum_all(rank_one_update_spmm(s, p, q, d)))
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
