"""Minimal CSR sparse matrices.

The paper's headline efficiency result (Table 5) hinges on *sparsified
computation*: BlindFL keeps features local, so a party can skip the zeros of
its own data — both in plaintext matmuls and in the homomorphic products of
the source layers.  This CSR type is the common currency: plaintext training
uses :meth:`matmul_dense` / :meth:`t_matmul_dense`, while
``repro.crypto.crypto_tensor`` consumes :meth:`iter_rows` so encrypted
products cost O(nnz).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """Compressed sparse row matrix over float64."""

    __slots__ = ("indptr", "indices", "values", "shape")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        shape: tuple[int, int],
    ):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        if self.indptr.shape[0] != self.shape[0] + 1:
            raise ValueError("indptr length must be n_rows + 1")
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values must be parallel arrays")
        if self.indices.size and self.indices.max() >= self.shape[1]:
            raise ValueError("column index out of range")

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("from_dense needs a 2-D array")
        indptr = [0]
        indices: list[int] = []
        values: list[float] = []
        for row in dense:
            nz = np.nonzero(row)[0]
            indices.extend(nz.tolist())
            values.extend(row[nz].tolist())
            indptr.append(len(indices))
        return cls(np.array(indptr), np.array(indices), np.array(values), dense.shape)

    @classmethod
    def from_rows(
        cls, rows: list[tuple[np.ndarray, np.ndarray]], n_cols: int
    ) -> "CSRMatrix":
        """Build from a list of (column_indices, values) pairs."""
        indptr = [0]
        indices: list[int] = []
        values: list[float] = []
        for cols, vals in rows:
            indices.extend(np.asarray(cols, dtype=np.int64).tolist())
            values.extend(np.asarray(vals, dtype=np.float64).tolist())
            indptr.append(len(indices))
        return cls(
            np.array(indptr), np.array(indices), np.array(values), (len(rows), n_cols)
        )

    # -- inspection ------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def density(self) -> float:
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        for i, (cols, vals) in enumerate(self.iter_rows()):
            out[i, cols] = vals
        return out

    def iter_rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (column_indices, values) per row — the sparse-op contract."""
        for i in range(self.shape[0]):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            yield self.indices[lo:hi], self.values[lo:hi]

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def take_rows(self, row_ids: np.ndarray) -> "CSRMatrix":
        """Row-slice (used by the batch loader)."""
        rows = [self.row(int(i)) for i in np.asarray(row_ids, dtype=np.int64)]
        return CSRMatrix.from_rows(rows, self.shape[1])

    def column_support(self) -> np.ndarray:
        """Sorted unique columns with at least one non-zero."""
        return np.unique(self.indices)

    def transpose(self, columns: np.ndarray | None = None) -> "CSRMatrix":
        """``self.T`` as CSR; with sorted unique ``columns``, those rows of it
        only (every stored entry must fall in one of them)."""
        cols, n_out = self.indices, self.shape[1]
        if columns is not None:
            columns = np.asarray(columns, dtype=np.int64)
            n_out = columns.shape[0]
            where = np.minimum(np.searchsorted(columns, cols), max(n_out - 1, 0))
            if cols.size and (n_out == 0 or (columns[where] != cols).any()):
                raise IndexError("batch touches a column outside `columns`")
            cols = where
        order = np.argsort(cols, kind="stable")
        batch_rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n_out))])
        return CSRMatrix(indptr, batch_rows[order], self.values[order], (n_out, self.shape[0]))

    # -- arithmetic --------------------------------------------------------------

    def matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        """``self @ dense`` with cost O(nnz * k)."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim == 1:
            dense = dense[:, None]
            squeeze = True
        else:
            squeeze = False
        if dense.shape[0] != self.shape[1]:
            raise ValueError(
                f"matmul shape mismatch: {self.shape} @ {dense.shape}"
            )
        out = np.zeros((self.shape[0], dense.shape[1]), dtype=np.float64)
        for i, (cols, vals) in enumerate(self.iter_rows()):
            if cols.size:
                out[i] = vals @ dense[cols]
        return out[:, 0] if squeeze else out

    def t_matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        """``self.T @ dense`` (the X^T·grad of backprop), cost O(nnz * k)."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.shape[0] != self.shape[0]:
            raise ValueError(
                f"t_matmul shape mismatch: {self.shape}.T @ {dense.shape}"
            )
        out = np.zeros((self.shape[1], dense.shape[1]), dtype=np.float64)
        for i, (cols, vals) in enumerate(self.iter_rows()):
            if cols.size:
                out[cols] += vals[:, None] * dense[i]
        return out

    def __matmul__(self, other: object):
        # CryptoTensor declares __array_priority__/__rmatmul__; defer to it.
        from repro.crypto.crypto_tensor import CryptoTensor

        if isinstance(other, CryptoTensor):
            return other.__rmatmul__(self)
        return self.matmul_dense(np.asarray(other))

    def scale_rows(self, factors: np.ndarray) -> "CSRMatrix":
        """Multiply each row by a scalar (returns a new matrix)."""
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (self.shape[0],):
            raise ValueError("one factor per row required")
        values = self.values.copy()
        for i in range(self.shape[0]):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            values[lo:hi] *= factors[i]
        return CSRMatrix(self.indptr, self.indices, values, self.shape)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
