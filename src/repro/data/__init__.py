"""Datasets: synthetic Table-4-shaped generators, vertical partitioning,
mini-batch loading, and PSI alignment."""

from repro.data.catalog import CATALOG, CatalogEntry
from repro.data.loader import Batch, BatchLoader
from repro.data.partition import PartyData, VerticalDataset, split_vertical
from repro.data.psi import PSIResult, hashed_psi
from repro.data.synthetic import (
    Dataset,
    make_dense_classification,
    make_image_like,
    make_mixed_classification,
    make_sparse_classification,
)

__all__ = [
    "CATALOG",
    "CatalogEntry",
    "Batch",
    "BatchLoader",
    "PartyData",
    "VerticalDataset",
    "split_vertical",
    "PSIResult",
    "hashed_psi",
    "Dataset",
    "make_dense_classification",
    "make_image_like",
    "make_mixed_classification",
    "make_sparse_classification",
]
