"""Canonical CSR matrices and sparse-dense products recorded on the tape.

scipy.sparse supplies the multiply kernel; the CSR arrays here are the source
of truth.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _scipy_sparse

from ..errors import ContractError, DimensionError, StructuralError
from .tensor import _BLOCK_BYTES, Tensor, _record


class SparseMatrix:
    """Immutable CSR matrix with strictly increasing column indices per row."""

    __slots__ = ("shape", "row_offsets", "col_indices", "values", "_entry_rows",
                 "_csr", "_csr_t")

    def __init__(self, shape, row_offsets, col_indices, values):
        rows, cols = int(shape[0]), int(shape[1])
        offs = np.asarray(row_offsets, dtype=np.int64)
        idx = np.asarray(col_indices, dtype=np.int64)
        vals = np.asarray(values, dtype=np.float64)
        if rows < 0 or cols < 0:
            raise StructuralError(f"negative shape {shape}")
        if offs.shape != (rows + 1,):
            raise StructuralError(f"row_offsets length {offs.shape} != rows+1 ({rows + 1})")
        if offs[0] != 0 or offs[-1] != idx.size or np.any(np.diff(offs) < 0):
            raise StructuralError("row_offsets must start at 0, be nondecreasing, end at nnz")
        if idx.size != vals.size:
            raise StructuralError(f"{idx.size} column indices but {vals.size} values")
        if idx.size and (idx.min() < 0 or idx.max() >= cols):
            raise StructuralError(f"column index outside [0, {cols})")
        entry_rows = np.repeat(np.arange(rows, dtype=np.int64), np.diff(offs))
        # a column step within one row must be positive; rows are
        # nondecreasing, so the first bad step lies in the first bad row
        bad = np.flatnonzero((np.diff(idx) <= 0) & (entry_rows[1:] == entry_rows[:-1]))
        if bad.size:
            raise StructuralError(
                f"row {entry_rows[bad[0]]}: column indices not strictly increasing")
        if not np.isfinite(vals).all():
            raise StructuralError("non-finite values in sparse matrix")
        self.shape = (rows, cols)
        self.row_offsets = offs
        self.col_indices = idx
        self.values = vals
        # built once here, never lazily, so an instance holds no mutable state
        entry_rows.setflags(write=False)
        self._entry_rows = entry_rows
        self._csr = _scipy_sparse.csr_matrix((vals, idx, offs), shape=self.shape)
        # its rows add their entries in column order from zero, as `_csr.T`'s do
        self._csr_t = self._csr.T.tocsr()

    @classmethod
    def from_coo(cls, shape, rows, cols, values) -> "SparseMatrix":
        """Build from (possibly unsorted, duplicate-free) triplets."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        offs = np.zeros(shape[0] + 1, dtype=np.int64)
        np.add.at(offs, rows + 1, 1)
        offs = np.cumsum(offs)
        return cls(shape, offs, cols, values)

    @property
    def nnz(self) -> int:
        return self.col_indices.size

    def nnz_rows(self) -> np.ndarray:
        """Row index of each stored entry (read-only)."""
        return self._entry_rows

    def _entries_of(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR positions of every entry of `rows`, row by row, and the number
        of entries of each row."""
        starts = self.row_offsets[rows]
        counts = self.row_offsets[rows + 1] - starts
        shift = starts - (np.cumsum(counts) - counts)
        return np.arange(counts.sum(), dtype=np.int64) + np.repeat(shift, counts), counts

    def _check_rows(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1 or (rows.size and (rows.min() < 0
                                             or rows.max() >= self.shape[0])):
            raise DimensionError(f"rows must be 1-D and within [0, {self.shape[0]})")
        return rows

    def neighbourhood(self, rows) -> np.ndarray:
        """Sorted union of `rows` and every column they store an entry in."""
        rows = self._check_rows(rows)
        return np.union1d(rows, self.col_indices[self._entries_of(rows)[0]])

    def slice(self, rows, cols) -> tuple["SparseMatrix", np.ndarray]:
        """The (len(rows), len(cols)) block at `rows` (any order) and `cols`
        (strictly increasing), and the CSR position here of each of its
        entries; entries in other columns are dropped."""
        rows = self._check_rows(rows)
        cols = np.asarray(cols, dtype=np.int64)
        if cols.ndim != 1 or np.any(np.diff(cols) <= 0) or (
                cols.size and (cols[0] < 0 or cols[-1] >= self.shape[1])):
            raise DimensionError(
                f"cols must be strictly increasing within [0, {self.shape[1]})")
        source, counts = self._entries_of(rows)
        keep = np.isin(self.col_indices[source], cols)
        row_of = np.repeat(np.arange(rows.size), counts)
        offs = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_of[keep], minlength=rows.size), out=offs[1:])
        source = source[keep]
        # cols is sorted, so each row's columns stay strictly increasing
        block = SparseMatrix((rows.size, cols.size), offs,
                             np.searchsorted(cols, self.col_indices[source]),
                             self.values[source])
        return block, source

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        """The sparse product self @ other, a constant off the tape; entries
        that sum to zero are dropped."""
        if self.shape[1] != other.shape[0]:
            raise DimensionError(f"sparse product: inner dims differ, "
                                 f"{self.shape} x {other.shape}")
        prod = self._csr @ other._csr
        prod.sort_indices()
        return SparseMatrix(prod.shape, prod.indptr, prod.indices, prod.data)

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def spmm(s: SparseMatrix, d: Tensor) -> Tensor:
    """Sparse @ dense."""
    if s.shape[1] != d.rows:
        raise DimensionError(f"spmm: inner dims differ, {s.shape} x {d.shape}")

    def vjp(g):
        # an untracked operand (e.g. constant features) gets no product
        return (s._csr_t @ g if d.requires_grad else None,)

    return _record("spmm", s._csr @ d.data, (d,), vjp)


class EdgePattern:
    """Where k trainable edge weights enter a block: its entries at distinct
    CSR `slots`, entry i carrying weight `edges[i]` of `num_edges`, held in
    CSR order as E(w)'s row offsets and columns, with each entry's row. Bad
    slots or edges raise DimensionError, repeated slots ContractError."""

    __slots__ = ("shape", "num_edges", "row_offsets", "cols", "rows", "edges")

    def __init__(self, block: SparseMatrix, slots, edges, num_edges: int):
        slots, edges = np.asarray(slots, dtype=np.int64), np.asarray(edges, dtype=np.int64)
        if slots.ndim != 1 or edges.shape != slots.shape or slots.size and (
                min(slots.min(), edges.min()) < 0 or slots.max() >= block.nnz
                or edges.max() >= num_edges):
            raise DimensionError(
                f"edge pattern: need 1-D slots in [0, {block.nnz}) and one edge each "
                f"in [0, {num_edges}), got {slots.shape} and {edges.shape}")
        order = np.argsort(slots, kind="stable")
        slots, self.edges = slots[order], edges[order]
        if np.any(slots[1:] == slots[:-1]):
            raise ContractError("edge pattern: slots must be distinct")
        self.shape, self.num_edges = block.shape, int(num_edges)
        self.rows = block._entry_rows[slots]
        # sorted and distinct, so CSR keeps the entries in this order, with
        # the index type scipy picks: building E(w) then converts nothing
        ones = _scipy_sparse.csr_matrix(
            (np.ones(slots.size), (self.rows, block.col_indices[slots])), shape=block.shape)
        self.cols, self.row_offsets = ones.indices, ones.indptr


def edge_update(base: Tensor, pattern: EdgePattern, w: Tensor, x: Tensor) -> Tensor:
    """base + E(w) x as one tape node, E(w) holding the (num_edges, 1) edge
    weights w at `pattern`'s entries: a k-entry update of a frozen product,
    which is never rebuilt. d/dx = E(w)^T g is formed only when x is tracked;
    d/dw sums g[r] . x[c] over each edge's entries, gathering their rows in
    blocks of `_BLOCK_BYTES`."""
    m, n = pattern.shape
    if base.shape != (m, x.cols) or x.rows != n or w.shape != (pattern.num_edges, 1):
        raise DimensionError(f"edge_update: base {base.shape}, w {w.shape} and x {x.shape} "
                             f"do not fit a {pattern.shape} pattern of {pattern.num_edges} edges")
    mat = _scipy_sparse.csr_matrix(
        (w.data[pattern.edges, 0], pattern.cols, pattern.row_offsets), shape=(m, n))

    def vjp(g):
        rows, cols, dots = pattern.rows, pattern.cols, np.empty(pattern.rows.size)
        step = max(1, _BLOCK_BYTES // (8 * max(g.shape[1], 1)))
        for lo in range(0, rows.size, step):
            blk = slice(lo, lo + step)
            dots[blk] = np.einsum("ij,ij->i", g.take(rows[blk], axis=0),
                                  x.data.take(cols[blk], axis=0))
        d_w = np.bincount(pattern.edges, weights=dots, minlength=pattern.num_edges)
        return g, mat.T @ g if x.requires_grad else None, d_w[:, None]

    out = mat @ x.data
    out += base.data  # base + E(w) x, bit for bit, in the product's array
    return _record("edge_update", out, (base, x, w), vjp)
