"""Synthetic dataset generators shaped like the paper's Table 4.

The paper evaluates on LIBSVM datasets plus an industrial one; with no
network access we synthesise datasets that preserve the properties the
evaluation actually depends on:

* **dimensionality and sparsity** (nnz per row) — drives Table 5;
* **feature type** (dense numerical / sparse binary / categorical fields) —
  drives which source layer is exercised;
* **signal split across parties** — both halves must carry predictive
  signal, so that NonFed-collocated beats NonFed-Party-B and the lossless
  property (Figure 12) is observable.

Labels are produced by a planted non-linear model over *all* features plus
label-flip noise, so collocated training has headroom over single-party
training, exactly the regime of Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tensor.sparse import CSRMatrix

__all__ = [
    "Dataset",
    "make_dense_classification",
    "make_sparse_classification",
    "make_mixed_classification",
    "make_image_like",
]

_IMAGE_PIXELS = 28 * 28  # Fashion-MNIST's 28 x 28 grey-scale images
_IMAGE_CLASSES = 10  # and its ten garment classes


@dataclass
class Dataset:
    """A supervised dataset, possibly with several feature blocks.

    Attributes:
        x_dense: dense numerical features, shape (n, d) or None.
        x_sparse: CSR sparse numerical features or None.
        x_cat: integer categorical fields, shape (n, f) or None (values of
            field j live in [0, vocab_sizes[j])).
        y: labels — {0,1} for binary tasks, [0, n_classes) otherwise.
        n_classes: 2 for binary.
        vocab_sizes: per-field vocabulary sizes for ``x_cat``.
    """

    y: np.ndarray
    n_classes: int
    x_dense: np.ndarray | None = None
    x_sparse: CSRMatrix | None = None
    x_cat: np.ndarray | None = None
    vocab_sizes: list[int] = field(default_factory=list)
    name: str = ""

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    def subset(self, idx: np.ndarray) -> "Dataset":
        """Row-slice every block (used for train/test splits and batching)."""
        return Dataset(
            y=self.y[idx],
            n_classes=self.n_classes,
            x_dense=None if self.x_dense is None else self.x_dense[idx],
            x_sparse=None if self.x_sparse is None else self.x_sparse.take_rows(idx),
            x_cat=None if self.x_cat is None else self.x_cat[idx],
            vocab_sizes=list(self.vocab_sizes),
            name=self.name,
        )


def _labels_from_scores(
    scores: np.ndarray, n_classes: int, rng: np.random.Generator, flip: float
) -> np.ndarray:
    """Turn planted scores into labels with ``flip`` label noise."""
    if n_classes == 2:
        margin = scores - np.median(scores)
        y = (margin > 0).astype(np.int64)
    else:
        y = np.argmax(scores, axis=1).astype(np.int64)
    noise = rng.random(y.shape[0]) < flip
    if n_classes == 2:
        y[noise] ^= 1
    else:
        y[noise] = rng.integers(0, n_classes, size=int(noise.sum()))
    return y


def make_dense_classification(
    n: int,
    dim: int,
    n_classes: int = 2,  # repro: api-ok multi-class labels for the MLR / MLP shapes
    seed: int = 0,
    flip: float = 0.08,
    nonlinear: bool = True,
) -> Dataset:
    """Dense numerical dataset (the higgs-like shape)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    w = rng.normal(size=(dim, 1 if n_classes == 2 else n_classes))
    scores = x @ w
    if nonlinear:
        # Planted pairwise interactions give collocated models headroom.
        half = dim // 2
        inter = (x[:, :half] * x[:, half : 2 * half]).sum(axis=1, keepdims=True)
        scores = scores + 0.5 * inter
    if n_classes == 2:
        scores = scores.ravel()
    y = _labels_from_scores(scores, n_classes, rng, flip)
    return Dataset(y=y, n_classes=n_classes, x_dense=x, name="dense")


def make_sparse_classification(
    n: int,
    dim: int,
    nnz_per_row: int,
    n_classes: int = 2,
    seed: int = 0,
    flip: float = 0.08,
    zipf: float = 0.6,
) -> Dataset:
    """High-dimensional sparse dataset (a9a/w8a/news20/avazu-like shapes).

    Each row activates ``~nnz_per_row`` columns drawn from a Zipf-ish
    popularity distribution with exponent ``zipf`` (like hashed/one-hot
    real data; steeper exponents concentrate mass on head features, which
    is what makes extremely high-dimensional CTR data learnable from few
    rows).
    """
    rng = np.random.default_rng(seed)
    popularity = 1.0 / np.arange(1, dim + 1) ** zipf
    popularity /= popularity.sum()
    w = rng.normal(size=(dim, 1 if n_classes == 2 else n_classes))
    rows = []
    scores = np.zeros((n, 1 if n_classes == 2 else n_classes))
    for i in range(n):
        k = max(1, int(rng.poisson(nnz_per_row)))
        k = min(k, dim)
        cols = np.sort(rng.choice(dim, size=k, replace=False, p=popularity))
        vals = np.ones(k)
        rows.append((cols, vals))
        scores[i] = vals @ w[cols]
    x = CSRMatrix.from_rows(rows, dim)
    if n_classes == 2:
        y = _labels_from_scores(scores.ravel(), 2, rng, flip)
    else:
        y = _labels_from_scores(scores, n_classes, rng, flip)
    return Dataset(y=y, n_classes=n_classes, x_sparse=x, name="sparse")


def make_mixed_classification(
    n: int,
    sparse_dim: int,
    nnz_per_row: int,
    n_fields: int,
    vocab_size: int,
    seed: int = 0,
    flip: float = 0.08,
) -> Dataset:
    """Sparse numerical + categorical fields — the WDL/DLRM workload.

    Labels blend the *continuous* planted scores of both modalities (not
    their binarised labels), so margins survive and models that exploit
    both blocks have real headroom over single-block models.
    """
    rng = np.random.default_rng(seed)
    sparse_part = make_sparse_classification(
        n, sparse_dim, nnz_per_row, seed=seed + 1, flip=0.0
    )
    x_cat = np.random.default_rng(seed + 2).integers(0, vocab_size, size=(n, n_fields))
    # Recover continuous planted scores for each modality.
    w_sparse = np.random.default_rng(seed + 3).normal(size=(sparse_dim, 1))
    sparse_score = sparse_part.x_sparse.matmul_dense(w_sparse).ravel()
    emb_dim = 4
    latent = np.random.default_rng(seed + 4).normal(
        size=(n_fields, vocab_size, emb_dim)
    )
    summed = np.zeros((n, emb_dim))
    for j in range(n_fields):
        summed += latent[j, x_cat[:, j]]
    w_cat = np.random.default_rng(seed + 5).normal(size=emb_dim)
    cat_score = np.tanh(summed) @ w_cat
    score = (
        _standardise(sparse_score)
        + _standardise(cat_score)
        + rng.normal(0, 0.3, n)
    )
    y = (score > np.median(score)).astype(np.int64)
    noise = rng.random(n) < flip
    y[noise] ^= 1
    return Dataset(
        y=y,
        n_classes=2,
        x_sparse=sparse_part.x_sparse,
        x_cat=x_cat,
        vocab_sizes=[vocab_size] * n_fields,
        name="mixed",
    )


def _standardise(values: np.ndarray) -> np.ndarray:
    std = values.std()
    return (values - values.mean()) / (std if std > 0 else 1.0)


def make_image_like(
    n: int,
    seed: int = 0,
    noise: float = 0.8,
    top_half_boost: float = 1.0,
) -> Dataset:
    """Fashion-MNIST-like images: class templates + pixel noise (Appendix D.1).

    Each class has a smooth random template; samples are noisy copies.  The
    VFL split cuts each image into two halves (done by the partitioner).
    ``top_half_boost > 1`` concentrates more class signal in the top half
    (Party A's half under a contiguous split), reproducing the paper's
    regime where Party B alone underperforms the collocated model.
    """
    rng = np.random.default_rng(seed)
    templates = rng.normal(size=(_IMAGE_CLASSES, _IMAGE_PIXELS))
    # Smooth the templates a little so halves share class structure.
    kernel = np.ones(5) / 5
    for c in range(_IMAGE_CLASSES):
        templates[c] = np.convolve(templates[c], kernel, mode="same")
    half = _IMAGE_PIXELS // 2
    templates[:, :half] *= top_half_boost
    y = rng.integers(0, _IMAGE_CLASSES, size=n)
    x = templates[y] + rng.normal(0, noise, size=(n, _IMAGE_PIXELS))
    return Dataset(y=y.astype(np.int64), n_classes=_IMAGE_CLASSES, x_dense=x, name="image")
