"""The dataset catalog: Table 4 reproduced at laptop scale.

Each entry mirrors one row of the paper's Table 4 (instances, features,
average nnz, classes) with a documented scale factor.  Shapes — sparsity
ratio, nnz per row, class count, feature type — are preserved; instance
counts and extreme dimensionalities are scaled down so a pure-Python
single-core run finishes in seconds.

| name      | paper (train/test, dim, nnz, cls) | here (train/test, dim, nnz) |
|-----------|-----------------------------------|------------------------------|
| a9a       | 32K/16K, 123, 14, 2               | 2000/1000, 123, 14          |
| w8a       | 50K/15K, 300, 12, 2               | 2000/800, 300, 12           |
| connect-4 | 50K/17K, 126, 42, 3               | 2000/800, 126, 42           |
| news20    | 16K/4K, 62K, 80, 20               | 600/200, 6200, 80           |
| higgs     | 8M/3M, 28 dense, 2                | 4000/1500, 28 dense         |
| avazu-app | 13M/2M, 1M, 14, 2                 | 1500/500, 20000, 14         |
| industry  | 100M/8M, 10M, 12, 2               | 1500/500, 100000, 12        |
| fmnist    | 60K/10K, 784 dense, 10            | 1200/400, 784 dense         |
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CatalogEntry", "CATALOG"]


@dataclass(frozen=True)
class CatalogEntry:
    """One scaled Table 4 dataset."""

    name: str
    n_train: int
    n_test: int
    dim: int
    avg_nnz: int
    n_classes: int
    kind: str  # "sparse" | "dense" | "image" | "mixed"
    paper_model: str  # the model the paper pairs it with in Table 5 / Fig 12
    sparsity: str  # the sparsity string Table 5 reports


_ENTRIES = [
    CatalogEntry("a9a", 2000, 1000, 123, 14, 2, "sparse", "LR", "88.72%"),
    CatalogEntry("w8a", 2000, 800, 300, 12, 2, "sparse", "LR", "96.12%"),
    CatalogEntry("connect-4", 2000, 800, 126, 42, 3, "sparse", "MLP", "66.67%"),
    CatalogEntry("news20", 600, 200, 6200, 80, 20, "sparse", "MLR", "99.87%"),
    CatalogEntry("higgs", 4000, 1500, 28, 28, 2, "dense", "LR", "Dense"),
    CatalogEntry("avazu-app", 1500, 500, 20000, 14, 2, "sparse", "LR", "99.99%"),
    CatalogEntry("industry", 1500, 500, 100000, 12, 2, "sparse", "LR", "99.99%"),
    CatalogEntry("fmnist", 1200, 400, 784, 784, 10, "image", "MLP", "Dense"),
    CatalogEntry("avazu-wdl", 1500, 500, 2000, 14, 2, "mixed", "WDL", "99.3%"),
    CatalogEntry("industry-dlrm", 1500, 500, 4000, 12, 2, "mixed", "DLRM", "99.7%"),
]

CATALOG: dict[str, CatalogEntry] = {e.name: e for e in _ENTRIES}
