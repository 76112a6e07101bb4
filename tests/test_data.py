"""Tests for synthetic datasets, partitioning, loaders, catalog and PSI."""

import numpy as np
import pytest

from repro.data.catalog import CATALOG
from repro.data.loader import BatchLoader
from repro.data.partition import _split_csr_columns, split_vertical
from repro.data.psi import hashed_psi
from repro.data.synthetic import (
    Dataset,
    make_dense_classification,
    make_image_like,
    make_mixed_classification,
    make_sparse_classification,
)

# ---------- generators ----------


def test_dense_generator_shapes():
    ds = make_dense_classification(100, 12, seed=1)
    assert ds.x_dense.shape == (100, 12)
    assert set(np.unique(ds.y)) <= {0, 1}


def test_dense_generator_has_signal():
    """A linear probe on the planted data must beat chance comfortably."""
    ds = make_dense_classification(2000, 10, seed=2, flip=0.0)
    x, y = ds.x_dense, ds.y
    w = np.linalg.lstsq(x, 2.0 * y - 1.0, rcond=None)[0]
    acc = ((x @ w > 0) == y).mean()
    assert acc > 0.75


def test_sparse_generator_nnz_matches_target():
    ds = make_sparse_classification(300, 500, nnz_per_row=14, seed=3)
    assert ds.x_sparse.shape == (300, 500)
    avg = ds.x_sparse.nnz / 300
    assert 10 <= avg <= 18


def test_sparse_generator_multiclass():
    ds = make_sparse_classification(200, 100, 10, n_classes=5, seed=4)
    assert ds.n_classes == 5
    assert ds.y.max() < 5


def test_mixed_generator_blocks():
    ds = make_mixed_classification(
        120, sparse_dim=200, nnz_per_row=10, n_fields=4, vocab_size=16, seed=6
    )
    assert ds.x_sparse is not None and ds.x_cat is not None
    assert ds.x_cat.shape == (120, 4)


def test_image_generator_class_structure():
    ds = make_image_like(400, seed=7, noise=0.3)
    assert ds.x_dense.shape == (400, 784)
    # Same-class images are closer than cross-class ones on average.
    c0 = ds.x_dense[ds.y == 0]
    c1 = ds.x_dense[ds.y == 1]
    within = np.linalg.norm(c0[0] - c0[1])
    across = np.linalg.norm(c0[0] - c1[0])
    assert within < across


def test_dataset_subset_consistency():
    ds = make_mixed_classification(60, 100, 8, 4, 10, seed=8)
    sub = ds.subset(np.arange(10))
    assert sub.n == 10
    assert sub.x_sparse.shape == (10, 100)
    assert sub.x_cat.shape == (10, 4)


# ---------- partitioning ----------


def test_split_csr_columns_partitions():
    ds = make_sparse_classification(50, 40, 8, seed=9)
    left, right = _split_csr_columns(ds.x_sparse, [25])
    assert left.shape == (50, 25) and right.shape == (50, 15)
    dense = ds.x_sparse.to_dense()
    np.testing.assert_array_equal(left.to_dense(), dense[:, :25])
    np.testing.assert_array_equal(right.to_dense(), dense[:, 25:])


def test_split_csr_bad_boundaries():
    ds = make_sparse_classification(10, 20, 4, seed=10)
    with pytest.raises(ValueError):
        _split_csr_columns(ds.x_sparse, [0])


def test_split_vertical_dense():
    ds = make_dense_classification(30, 10, seed=11)
    vd = split_vertical(ds)
    assert vd.party("A").x_dense.shape == (30, 5)
    assert vd.party("B").x_dense.shape == (30, 5)
    np.testing.assert_array_equal(
        np.hstack([vd.party("A").x_dense, vd.party("B").x_dense]), ds.x_dense
    )


def test_split_vertical_categorical_round_robin():
    rng = np.random.default_rng(12)
    ds = Dataset(y=rng.integers(0, 2, 20), n_classes=2,
                 x_cat=rng.integers(0, 8, size=(20, 5)), vocab_sizes=[8] * 5)
    vd = split_vertical(ds)
    assert vd.party("A").x_cat.shape == (20, 3)  # fields 0, 2, 4
    assert vd.party("B").x_cat.shape == (20, 2)  # fields 1, 3
    np.testing.assert_array_equal(vd.party("A").x_cat[:, 0], ds.x_cat[:, 0])
    np.testing.assert_array_equal(vd.party("B").x_cat[:, 0], ds.x_cat[:, 1])


def test_split_vertical_multiparty():
    ds = make_dense_classification(15, 12, seed=13)
    vd = split_vertical(ds, party_names=("A1", "A2", "B"))
    assert vd.party("A1").x_dense.shape == (15, 4)
    assert vd.party("B").x_dense.shape == (15, 4)


def test_split_vertical_validation():
    ds = make_dense_classification(10, 4, seed=14)
    with pytest.raises(ValueError):
        split_vertical(ds, party_names=("A",))


# ---------- loader ----------


def test_loader_batch_shapes():
    ds = split_vertical(make_dense_classification(105, 8, seed=15))
    loader = BatchLoader(ds, batch_size=20, rng=np.random.default_rng(0))
    batches = list(loader)
    assert len(batches) == 5 == len(loader)
    assert all(b.size == 20 for b in batches)
    assert batches[0].party("A").x_dense.shape == (20, 4)


def test_loader_covers_all_rows_without_shuffle():
    ds = split_vertical(make_dense_classification(40, 4, seed=16))
    loader = BatchLoader(ds, batch_size=10, shuffle=False)
    seen = np.concatenate([b.indices for b in loader])
    np.testing.assert_array_equal(seen, np.arange(40))


def test_loader_keep_last():
    ds = split_vertical(make_dense_classification(45, 4, seed=17))
    loader = BatchLoader(ds, batch_size=10, drop_last=False, shuffle=False)
    assert len(loader) == 5
    assert list(loader)[-1].size == 5


def test_loader_validation():
    ds = split_vertical(make_dense_classification(10, 4, seed=18))
    with pytest.raises(ValueError):
        BatchLoader(ds, batch_size=0)
    with pytest.raises(ValueError):
        BatchLoader(ds, batch_size=11)


# ---------- catalog ----------


def test_catalog_contains_every_table4_dataset():
    for name in ["a9a", "w8a", "connect-4", "news20", "higgs", "avazu-app", "industry"]:
        assert name in CATALOG


# ---------- PSI ----------


def test_hashed_psi_intersection():
    res = hashed_psi([10, 20, 30, 40], [40, 50, 10])
    assert sorted(res.ids) == [10, 40]
    for pos, ident in enumerate(res.ids):
        assert [10, 20, 30, 40][res.index_a[pos]] == ident
        assert [40, 50, 10][res.index_b[pos]] == ident


def test_hashed_psi_rejects_duplicates():
    with pytest.raises(ValueError):
        hashed_psi([1, 1], [2])


def test_hashed_psi_disjoint_sets():
    res = hashed_psi([1, 2], [3, 4])
    assert res.ids == []


