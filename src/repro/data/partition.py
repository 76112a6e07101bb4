"""Vertical partitioning: split features across parties.

The paper "evenly divide[s] the features for the two parties" (§7.1) and
keeps the labels at Party B.  The partitioner supports every block type
(dense, CSR sparse, categorical fields) and M+1-way splits for the
multi-party extension.  Image datasets are cut into contiguous pixel halves
(the 14x28 subfigures of Appendix D.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.synthetic import Dataset
from repro.tensor.sparse import CSRMatrix

__all__ = ["PartyData", "VerticalDataset", "split_vertical"]

LABEL_HOLDER = "B"


@dataclass
class PartyData:
    """One party's feature blocks (no labels)."""

    x_dense: np.ndarray | None = None
    x_sparse: CSRMatrix | None = None
    x_cat: np.ndarray | None = None
    vocab_sizes: list[int] = field(default_factory=list)

    @property
    def dense_dim(self) -> int:
        if self.x_dense is not None:
            return self.x_dense.shape[1]
        if self.x_sparse is not None:
            return self.x_sparse.shape[1]
        return 0

    @property
    def n_fields(self) -> int:
        return 0 if self.x_cat is None else self.x_cat.shape[1]

    def take_rows(self, idx: np.ndarray) -> "PartyData":
        return PartyData(
            x_dense=None if self.x_dense is None else self.x_dense[idx],
            x_sparse=None if self.x_sparse is None else self.x_sparse.take_rows(idx),
            x_cat=None if self.x_cat is None else self.x_cat[idx],
            vocab_sizes=list(self.vocab_sizes),
        )

    def numeric_block(self) -> np.ndarray | CSRMatrix:
        """The numerical features (dense preferred) — MatMul layer input."""
        if self.x_dense is not None:
            return self.x_dense
        if self.x_sparse is not None:
            return self.x_sparse
        raise ValueError("party has no numerical features")


@dataclass
class VerticalDataset:
    """A vertically partitioned dataset: per-party features, labels at B.

    A slice taken for a fabric endpoint holds only that endpoint's parties'
    blocks, and ``y`` is ``None`` where Party B is not among them.
    """

    parties: dict[str, PartyData]
    y: np.ndarray | None
    n_classes: int
    name: str = ""

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    def take_rows(self, idx: np.ndarray, parties=None) -> "VerticalDataset":
        """Rows ``idx``; only the blocks of ``parties`` (all by default),
        and the labels only where Party B is among them."""
        keep = self.parties if parties is None else {
            k: v for k, v in self.parties.items() if k in parties
        }
        labelled = parties is None or LABEL_HOLDER in parties
        return VerticalDataset(
            parties={k: v.take_rows(idx) for k, v in keep.items()},
            y=self.y[idx] if labelled else None,
            n_classes=self.n_classes,
            name=self.name,
        )

    def party(self, name: str) -> PartyData:
        return self.parties[name]


def _split_csr_columns(
    matrix: CSRMatrix, boundaries: list[int]
) -> list[CSRMatrix]:
    """Split a CSR matrix into column ranges ``[0,b0), [b0,b1), ...``.

    Column indices are re-based inside each slice, matching how each party
    sees only its own feature space.
    """
    edges = [0] + list(boundaries) + [matrix.shape[1]]
    if any(edges[i] >= edges[i + 1] for i in range(len(edges) - 1)):
        raise ValueError(f"boundaries {boundaries} do not partition the columns")
    pieces_rows: list[list[tuple[np.ndarray, np.ndarray]]] = [
        [] for _ in range(len(edges) - 1)
    ]
    for cols, vals in matrix.iter_rows():
        for p in range(len(edges) - 1):
            lo, hi = edges[p], edges[p + 1]
            mask = (cols >= lo) & (cols < hi)
            pieces_rows[p].append((cols[mask] - lo, vals[mask]))
    return [
        CSRMatrix.from_rows(rows, edges[p + 1] - edges[p])
        for p, rows in enumerate(pieces_rows)
    ]


def _even_boundaries(total: int, n_parts: int) -> list[int]:
    base = total // n_parts
    return [base * i for i in range(1, n_parts)]


def split_vertical(
    dataset: Dataset, party_names: tuple[str, ...] = ("A", "B")
) -> VerticalDataset:
    """Evenly divide every feature block across ``party_names``.

    The last name is Party B (label holder).  Dense and sparse features are
    split by contiguous column ranges; categorical fields round-robin so
    each party gets whole fields.
    """
    n_parts = len(party_names)
    if n_parts < 2:
        raise ValueError("need at least two parties")
    blocks: dict[str, PartyData] = {name: PartyData() for name in party_names}

    if dataset.x_dense is not None:
        cuts = _even_boundaries(dataset.x_dense.shape[1], n_parts)
        pieces = np.split(dataset.x_dense, cuts, axis=1)
        for name, piece in zip(party_names, pieces):
            blocks[name].x_dense = piece

    if dataset.x_sparse is not None:
        cuts = _even_boundaries(dataset.x_sparse.shape[1], n_parts)
        for name, piece in zip(party_names, _split_csr_columns(dataset.x_sparse, cuts)):
            blocks[name].x_sparse = piece

    if dataset.x_cat is not None:
        n_fields = dataset.x_cat.shape[1]
        if n_fields < n_parts:
            raise ValueError("fewer categorical fields than parties")
        for p, name in enumerate(party_names):
            fields = list(range(p, n_fields, n_parts))
            blocks[name].x_cat = dataset.x_cat[:, fields]
            blocks[name].vocab_sizes = [dataset.vocab_sizes[f] for f in fields]

    return VerticalDataset(
        parties=blocks, y=dataset.y, n_classes=dataset.n_classes, name=dataset.name
    )
