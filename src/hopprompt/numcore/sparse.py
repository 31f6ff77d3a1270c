"""Canonical CSR matrices and sparse-dense products recorded on the tape.

scipy.sparse supplies the multiply kernel; the CSR arrays here are the source
of truth and the dense `densify` path exists for oracle checks.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _scipy_sparse

from ..errors import ContractError, DimensionError, StructuralError
from .tensor import Tensor, _record


class SparseMatrix:
    """Immutable CSR matrix with strictly increasing column indices per row."""

    __slots__ = ("shape", "row_offsets", "col_indices", "values", "_entry_rows",
                 "_csr")

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
        self._csr = self._scipy(vals)

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

    def densify(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.nnz_rows(), self.col_indices] = self.values
        return out

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

    def _scipy(self, values: np.ndarray):
        return _scipy_sparse.csr_matrix(
            (values, self.col_indices, self.row_offsets), shape=self.shape
        )

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def spmm(s: SparseMatrix, d: Tensor, values: Tensor | None = None,
         slots=None) -> Tensor:
    """Sparse @ dense. Pass `values` to make entries trainable: (nnz, 1)
    overrides every entry, or, with `slots` (k distinct CSR positions),
    (k, 1) overrides only those entries, and only they get a value gradient.
    """
    if s.shape[1] != d.rows:
        raise DimensionError(f"spmm: inner dims differ, {s.shape} x {d.shape}")
    rows_of, cols_of = s._entry_rows, s.col_indices
    if slots is None:
        if values is not None and values.shape != (s.nnz, 1):
            raise DimensionError(
                f"spmm: values override must be ({s.nnz}, 1), got {values.shape}"
            )
        mat = s._csr if values is None else s._scipy(values.data[:, 0])
    else:
        slots = np.asarray(slots, dtype=np.int64)
        if values is None or slots.ndim != 1 or values.shape != (slots.size, 1):
            raise DimensionError(
                f"spmm: slots {slots.shape} need a ({slots.size}, 1) values override, "
                f"got {None if values is None else values.shape}"
            )
        if slots.size and (slots.min() < 0 or slots.max() >= s.nnz):
            raise DimensionError(f"spmm: slot outside [0, {s.nnz})")
        # slots are in range now, so one linear count finds a repeat
        if slots.size and np.bincount(slots, minlength=s.nnz).max() > 1:
            raise ContractError("spmm: slots must be distinct")
        val_arr = s.values.copy()
        val_arr[slots] = values.data[:, 0]
        mat = s._scipy(val_arr)
        rows_of, cols_of = rows_of[slots], cols_of[slots]
    dd = d.data

    def vjp(g):
        # an untracked operand (e.g. constant features) gets no product
        dd_grad = mat.T @ g if d.requires_grad else None
        if values is None:
            return (dd_grad,)
        dval = np.einsum("ij,ij->i", g[rows_of], dd[cols_of])
        return dd_grad, dval[:, None]

    parents = (d,) if values is None else (d, values)
    return _record("spmm", mat @ dd, parents, vjp)
