"""Lightweight CSR sparse-matrix container.

The whole library operates on :class:`CSRMatrix`, a validated, immutable-ish
CSR triple (``indptr``, ``indices``, ``data``).  It is intentionally much
smaller than :class:`scipy.sparse.csr_matrix`: formats, the generator and the
performance simulator only need fast, predictable access to the raw arrays.
Interop helpers convert to/from scipy for verification and I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

__all__ = [
    "CSRMatrix",
    "CSRStructBatch",
    "csr_from_arrays",
    "csr_from_coo",
    "csr_from_dense",
]

# Index dtype used across the library.  The paper's matrices stay far below
# 2^31 nonzeros; 32-bit indices also match what the CSR footprint formula in
# Section III-A assumes (4-byte column indices / row pointers).
INDEX_DTYPE = np.int32
VALUE_DTYPE = np.float64


@dataclass
class CSRMatrix:
    """A sparse matrix in Compressed Sparse Row form.

    Attributes
    ----------
    n_rows, n_cols:
        Matrix dimensions.
    indptr:
        ``(n_rows + 1,)`` row-pointer array; ``indptr[i]:indptr[i+1]`` is the
        slice of ``indices``/``data`` holding row ``i``.
    indices:
        ``(nnz,)`` column index of every stored element, sorted within rows.
    data:
        ``(nnz,)`` element values.
    """

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    _row_lengths: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=INDEX_DTYPE)
        self.data = np.ascontiguousarray(self.data, dtype=VALUE_DTYPE)
        self.validate()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` on any violated CSR invariant."""
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if self.indptr.shape != (self.n_rows + 1,):
            raise ValueError(
                f"indptr must have shape ({self.n_rows + 1},), "
                f"got {self.indptr.shape}"
            )
        if self.indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if self.indptr[-1] != len(self.indices):
            raise ValueError("indptr[-1] must equal nnz")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data must have equal length")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices):
            if self.indices.min() < 0 or self.indices.max() >= self.n_cols:
                raise ValueError("column index out of range")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored (nonzero) elements."""
        return int(self.indptr[-1])

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def row_lengths(self) -> np.ndarray:
        """Per-row nonzero counts (cached)."""
        if self._row_lengths is None:
            self._row_lengths = np.diff(self.indptr).astype(np.int64)
        return self._row_lengths

    @property
    def density(self) -> float:
        denom = self.n_rows * self.n_cols
        return self.nnz / denom if denom else 0.0

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(columns, values)`` views of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    # ------------------------------------------------------------------
    # Memory accounting (paper feature f1)
    # ------------------------------------------------------------------
    def memory_bytes(
        self, index_bytes: int = 4, value_bytes: int = 8
    ) -> int:
        """CSR storage size: nnz values + nnz column indices + row pointers.

        Matches the paper's f1 = "matrix (CSR) size (MB)" convention of
        4-byte indices and 8-byte double values.
        """
        return (
            self.nnz * value_bytes
            + self.nnz * index_bytes
            + (self.n_rows + 1) * index_bytes
        )

    def memory_mb(self) -> float:
        """CSR footprint in MiB (paper feature f1)."""
        return self.memory_bytes() / (1024.0 * 1024.0)

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference SpMV ``y = A @ x`` (vectorised segmented reduction)."""
        x = np.asarray(x, dtype=VALUE_DTYPE)
        if x.shape != (self.n_cols,):
            raise ValueError(f"x must have shape ({self.n_cols},)")
        products = self.data * x[self.indices]
        y = np.zeros(self.n_rows, dtype=VALUE_DTYPE)
        # reduceat needs non-empty segments handled carefully; use add.at-free
        # cumulative-sum trick: segment sums via cumsum differences.
        if self.nnz:
            csum = np.concatenate(([0.0], np.cumsum(products)))
            y = csum[self.indptr[1:]] - csum[self.indptr[:-1]]
        return y

    def sort_indices(self) -> "CSRMatrix":
        """Return an equivalent matrix with columns sorted within each row."""
        indices = self.indices.copy()
        data = self.data.copy()
        lengths = self.row_lengths
        # Vectorised within-row sort: sort by (row, col) pairs globally.
        rows = np.repeat(
            np.arange(self.n_rows, dtype=np.int64), lengths
        )
        order = np.lexsort((indices, rows))
        return CSRMatrix(
            self.n_rows, self.n_cols, self.indptr.copy(),
            indices[order], data[order],
        )

    def has_sorted_indices(self) -> bool:
        """True iff columns are strictly increasing within every row."""
        if self.nnz == 0:
            return True
        rows = np.repeat(
            np.arange(self.n_rows, dtype=np.int64), self.row_lengths
        )
        # Row jumps add at least (n_cols + 1), which dominates any column
        # difference, so global strict increase <=> within-row strict
        # increase with no duplicate columns.
        keys = rows * np.int64(self.n_cols + 1) + self.indices
        return bool(np.all(np.diff(keys) > 0))

    def transpose(self) -> "CSRMatrix":
        """Return the CSC-equivalent transpose as a new CSR matrix."""
        # Counting sort by column.
        counts = np.bincount(self.indices, minlength=self.n_cols)
        indptr_t = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        order = np.argsort(self.indices, kind="stable")
        rows = np.repeat(
            np.arange(self.n_rows, dtype=np.int64), self.row_lengths
        )
        return CSRMatrix(
            self.n_cols, self.n_rows, indptr_t,
            rows[order].astype(INDEX_DTYPE), self.data[order],
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        rows = np.repeat(
            np.arange(self.n_rows, dtype=np.int64), self.row_lengths
        )
        out[rows, self.indices] = self.data
        return out

    # ------------------------------------------------------------------
    # scipy interop
    # ------------------------------------------------------------------
    def to_scipy(self):
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        mat = mat.tocsr()
        mat.sort_indices()
        return cls(
            mat.shape[0], mat.shape[1],
            mat.indptr.astype(np.int64),
            mat.indices.astype(INDEX_DTYPE),
            mat.data.astype(VALUE_DTYPE),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )


def csr_from_arrays(n_rows, n_cols, indptr, indices, data) -> CSRMatrix:
    """Construct a validated :class:`CSRMatrix` from raw arrays."""
    return CSRMatrix(n_rows, n_cols, indptr, indices, data)


@dataclass
class CSRStructBatch:
    """Stacked CSR *structure* arrays for a chunk of matrices.

    Sweeps build whole chunks of spec records without materialising
    per-instance Python objects, so the generator emits one flat container:
    per-matrix dimensions plus the concatenated row-length and column-index
    arrays with prefix offsets.  Values are never stored — every analytic
    consumer (format stats, features, imbalance) is structure-only.

    Attributes
    ----------
    n_rows, n_cols:
        ``(n,)`` per-matrix dimensions.
    row_lengths:
        Concatenated per-row nonzero counts;
        ``row_lengths[row_offsets[i]:row_offsets[i+1]]`` belongs to matrix
        ``i``.
    row_offsets:
        ``(n + 1,)`` prefix offsets into ``row_lengths``.
    indices:
        Concatenated column indices (sorted within rows, per matrix);
        ``indices[nnz_offsets[i]:nnz_offsets[i+1]]`` belongs to matrix ``i``.
    nnz_offsets:
        ``(n + 1,)`` prefix offsets into ``indices``.
    """

    n_rows: np.ndarray
    n_cols: np.ndarray
    row_lengths: np.ndarray
    row_offsets: np.ndarray
    indices: np.ndarray
    nnz_offsets: np.ndarray

    def __post_init__(self) -> None:
        self.n_rows = np.ascontiguousarray(self.n_rows, dtype=np.int64)
        self.n_cols = np.ascontiguousarray(self.n_cols, dtype=np.int64)
        self.row_lengths = np.ascontiguousarray(
            self.row_lengths, dtype=np.int64
        )
        self.row_offsets = np.ascontiguousarray(
            self.row_offsets, dtype=np.int64
        )
        self.indices = np.ascontiguousarray(self.indices, dtype=INDEX_DTYPE)
        self.nnz_offsets = np.ascontiguousarray(
            self.nnz_offsets, dtype=np.int64
        )
        n = len(self.n_rows)
        if len(self.n_cols) != n:
            raise ValueError("n_rows and n_cols must have equal length")
        if self.row_offsets.shape != (n + 1,):
            raise ValueError(f"row_offsets must have shape ({n + 1},)")
        if self.nnz_offsets.shape != (n + 1,):
            raise ValueError(f"nnz_offsets must have shape ({n + 1},)")
        if self.row_offsets[-1] != len(self.row_lengths):
            raise ValueError("row_offsets[-1] must equal len(row_lengths)")
        if self.nnz_offsets[-1] != len(self.indices):
            raise ValueError("nnz_offsets[-1] must equal len(indices)")

    def __len__(self) -> int:
        return len(self.n_rows)

    @property
    def nnz(self) -> np.ndarray:
        """``(n,)`` per-matrix nonzero counts."""
        return np.diff(self.nnz_offsets)

    def lengths_of(self, i: int) -> np.ndarray:
        """Row-length view of matrix ``i``."""
        return self.row_lengths[self.row_offsets[i]:self.row_offsets[i + 1]]

    def indices_of(self, i: int) -> np.ndarray:
        """Column-index view of matrix ``i``."""
        return self.indices[self.nnz_offsets[i]:self.nnz_offsets[i + 1]]

    def matrix(self, i: int) -> CSRMatrix:
        """Materialise matrix ``i`` with zeroed values.

        Every analytic stats/feature path is structure-only, so a zero data
        payload is a faithful stand-in wherever a per-matrix fallback needs
        a real :class:`CSRMatrix`.
        """
        lengths = self.lengths_of(i)
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = self.indices_of(i)
        return CSRMatrix(
            int(self.n_rows[i]), int(self.n_cols[i]),
            indptr, indices, np.zeros(len(indices)),
            _row_lengths=lengths,
        )

    @classmethod
    def from_matrices(cls, mats) -> "CSRStructBatch":
        """Stack existing matrices into one structure batch (tests/tools)."""
        mats = list(mats)
        row_offsets = np.zeros(len(mats) + 1, dtype=np.int64)
        nnz_offsets = np.zeros(len(mats) + 1, dtype=np.int64)
        np.cumsum([m.n_rows for m in mats], out=row_offsets[1:])
        np.cumsum([m.nnz for m in mats], out=nnz_offsets[1:])
        return cls(
            n_rows=np.array([m.n_rows for m in mats], dtype=np.int64),
            n_cols=np.array([m.n_cols for m in mats], dtype=np.int64),
            row_lengths=(
                np.concatenate([m.row_lengths for m in mats])
                if mats else np.zeros(0, dtype=np.int64)
            ),
            row_offsets=row_offsets,
            indices=(
                np.concatenate([m.indices for m in mats])
                if mats else np.zeros(0, dtype=INDEX_DTYPE)
            ),
            nnz_offsets=nnz_offsets,
        )


def csr_from_coo(
    n_rows: int,
    n_cols: int,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    sum_duplicates: bool = True,
) -> CSRMatrix:
    """Build CSR from COO triplets (rows unsorted, duplicates summed)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=VALUE_DTYPE)
    if not (len(rows) == len(cols) == len(vals)):
        raise ValueError("COO arrays must have equal length")
    if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValueError("row index out of range")
    if len(cols) and (cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError("column index out of range")
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if sum_duplicates and len(rows):
        keys = rows * n_cols + cols
        uniq_mask = np.concatenate(([True], np.diff(keys) != 0))
        group_ids = np.cumsum(uniq_mask) - 1
        summed = np.zeros(group_ids[-1] + 1, dtype=VALUE_DTYPE)
        np.add.at(summed, group_ids, vals)
        rows, cols, vals = rows[uniq_mask], cols[uniq_mask], summed
    counts = np.bincount(rows, minlength=n_rows)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return CSRMatrix(n_rows, n_cols, indptr, cols, vals)


def csr_from_dense(dense: np.ndarray, tol: float = 0.0) -> CSRMatrix:
    """Build CSR from a dense 2-D array, dropping entries with |v| <= tol."""
    dense = np.asarray(dense, dtype=VALUE_DTYPE)
    if dense.ndim != 2:
        raise ValueError("dense must be 2-D")
    mask = np.abs(dense) > tol
    rows, cols = np.nonzero(mask)
    return csr_from_coo(
        dense.shape[0], dense.shape[1], rows, cols, dense[mask],
        sum_duplicates=False,
    )
