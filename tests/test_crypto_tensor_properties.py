"""Hypothesis property tests on CryptoTensor arithmetic.

Encrypted-tensor operations must commute with decryption for arbitrary
(well-conditioned) inputs — the algebraic backbone every protocol relies
on.  Shapes stay tiny so each example costs a handful of modexps.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.crypto_tensor import CryptoTensor, sparse_t_matmul_cipher
from repro.crypto.packing import PackedCryptoTensor, SlotLayout
from repro.crypto.paillier import generate_paillier_keypair
from repro.tensor.sparse import CSRMatrix

values = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def arrays(rows, cols):
    return st.lists(
        st.lists(values, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda rows_: np.array(rows_, dtype=np.float64))


@given(arrays(2, 3), arrays(2, 3))
@settings(max_examples=10, deadline=None)
def test_addition_homomorphism(keypair, a, b):
    pk, sk = keypair
    out = CryptoTensor.encrypt(pk, a) + CryptoTensor.encrypt(pk, b)
    np.testing.assert_allclose(out.decrypt(sk), a + b, atol=1e-6)


@given(arrays(2, 2), st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=10, deadline=None)
def test_scalar_mul_homomorphism(keypair, a, c):
    pk, sk = keypair
    out = CryptoTensor.encrypt(pk, a) * c
    np.testing.assert_allclose(out.decrypt(sk), a * c, atol=1e-4)


@given(arrays(2, 3), arrays(3, 2))
@settings(max_examples=10, deadline=None)
def test_matmul_homomorphism(keypair, x, v):
    pk, sk = keypair
    out = x @ CryptoTensor.encrypt(pk, v)
    np.testing.assert_allclose(out.decrypt(sk), x @ v, atol=1e-3)


@given(arrays(3, 4))
@settings(max_examples=10, deadline=None)
def test_negation_involution(keypair, a):
    pk, sk = keypair
    out = -(-CryptoTensor.encrypt(pk, a))
    np.testing.assert_allclose(out.decrypt(sk), a, atol=1e-6)


@given(arrays(3, 4))
@settings(max_examples=8, deadline=None)
def test_sparse_t_matmul_matches_dense(keypair, dense):
    pk, sk = keypair
    dense = dense.copy()
    dense[np.abs(dense) < 30] = 0.0  # sparsify
    csr = CSRMatrix.from_dense(dense)
    g = np.arange(1.0, 7.0).reshape(3, 2)
    ct = CryptoTensor.encrypt(pk, g)
    out = sparse_t_matmul_cipher(csr, ct)
    np.testing.assert_allclose(out.decrypt(sk), dense.T @ g, atol=1e-3)


def test_sparse_t_matmul_restricted_columns(keypair, rng):
    pk, sk = keypair
    dense = np.zeros((3, 8))
    dense[:, [1, 4, 6]] = rng.normal(size=(3, 3))
    csr = CSRMatrix.from_dense(dense)
    g = rng.normal(size=(3, 2))
    ct = CryptoTensor.encrypt(pk, g)
    cols = np.array([1, 4, 6])
    out = sparse_t_matmul_cipher(csr, ct, columns=cols)
    np.testing.assert_allclose(out.decrypt(sk), dense[:, cols].T @ g, atol=1e-6)


def test_sparse_t_matmul_rejects_column_outside_support(keypair, rng):
    import pytest

    pk, _ = keypair
    dense = np.zeros((2, 5))
    dense[:, 2] = 1.0
    csr = CSRMatrix.from_dense(dense)
    ct = CryptoTensor.encrypt(pk, rng.normal(size=(2, 1)))
    with pytest.raises(IndexError):
        sparse_t_matmul_cipher(csr, ct, columns=np.array([0, 1]))


def test_sparse_t_matmul_shape_mismatch(keypair, rng):
    import pytest

    pk, _ = keypair
    csr = CSRMatrix.from_dense(rng.normal(size=(4, 3)))
    ct = CryptoTensor.encrypt(pk, rng.normal(size=(5, 1)))
    with pytest.raises(ValueError):
        sparse_t_matmul_cipher(csr, ct)


# ---------------------------------------------------------------------------
# The row/shape surface the two tensor classes share.


@functools.lru_cache(maxsize=None)
def _keys(bits):
    """``(pk, sk, a foreign pk, an add-only layout)`` per key size: 60-bit
    lanes hold |v| < 8 at 2**-40 with room for the pipeline's alignment
    shift, mask add and four-deep scatter."""
    pk, sk = generate_paillier_keypair(bits, seed=5000 + bits)
    layout = SlotLayout(
        slot_bits=60, slots=(pk.max_int.bit_length() - 1) // 60, key_bits=bits,
        base_value_bits=44, acc_depth=8,
    )
    return pk, sk, generate_paillier_keypair(bits, seed=6000 + bits)[0], layout


def _error(fn):
    try:
        fn()
    except Exception as exc:  # the property is about the type raised
        return type(exc)
    return None


EXPONENTS = st.sampled_from([-40, -30, -20])


@given(
    bits=st.sampled_from([192, 256]),
    n_rows=st.integers(1, 4),
    cols=st.integers(1, 5),
    gather=st.lists(st.integers(0, 3), min_size=1, max_size=2),
    exponent=EXPONENTS,
    mask_exponent=EXPONENTS,
    scatter=st.lists(st.integers(0, 2), min_size=2, max_size=2),
    place=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_row_surface_is_the_same_on_both_tensor_classes(
    bits, n_rows, cols, gather, exponent, mask_exponent, scatter, place, seed
):
    """The same plaintext through take_rows -> reshape -> add_plain ->
    scatter_add_rows -> set_rows -> decrypt gives equal arrays on both
    classes, the same exception types on bad rows, keys and widths, and a
    gathered result never aliases the tensor a later set_rows mutates."""
    pk, sk, foreign_pk, layout = _keys(bits)
    rng = np.random.default_rng(seed)
    table = rng.uniform(-8, 8, size=(n_rows, cols))
    # Two gathered rows per widened row; repeats are the common case.
    idx = np.array([g % n_rows for g in gather for _ in range(2)])
    mask = rng.uniform(-8, 8, size=(len(gather), 2 * cols))
    n_sum = max(scatter[: len(gather)]) + 1
    dest_plain = rng.uniform(-8, 8, size=(3, 2 * cols))
    low = min(exponent, mask_exponent)
    makers = {
        "per-element": lambda arr, e, key=pk: CryptoTensor.encrypt(key, arr, exponent=e),
        "packed": lambda arr, e, key=pk: PackedCryptoTensor.encrypt(
            key, arr, layout, exponent=e
        ),
    }
    stages, errors = {}, {}
    for name, make in makers.items():
        tensor = make(table, exponent)
        gathered = tensor.take_rows(idx)
        wide = gathered.reshape(len(gather), -1)
        masked = wide.add_plain(-mask, encode_exponent=mask_exponent, obfuscate=True)
        summed = masked.scatter_add_rows(scatter[: len(gather)], n_sum)
        dest = make(dest_plain.reshape(-1, cols), low).reshape(3, -1)
        dest.set_rows(place[:n_sum], summed)
        before = gathered.decrypt(sk)
        tensor.set_rows(idx[:1], make(table[:1] + 1.0, exponent))
        assert np.array_equal(gathered.decrypt(sk), before)  # no aliasing
        stages[name] = [x.decrypt(sk) for x in (wide, masked, summed, dest, tensor)]
        assert (tensor.shape, tensor.size) == (table.shape, table.size)
        assert gathered.n_ciphertexts == len(idx) * (
            cols if name == "per-element" else layout.ct_count(cols)
        )
        row = make(table[:1], exponent)
        other = makers["packed" if name == "per-element" else "per-element"]
        errors[name] = [
            _error(lambda: tensor.take_rows([n_rows])),
            _error(lambda: tensor.take_rows([-1])),
            _error(lambda: tensor.set_rows([n_rows], row)),
            _error(lambda: tensor.set_rows([-1], row)),
            _error(lambda: tensor.set_rows([0, 0], row)),
            _error(lambda: tensor.set_rows([0], make(table[:1], exponent, foreign_pk))),
            _error(lambda: tensor.set_rows([0], make(np.zeros((1, cols + 1)), exponent))),
            _error(lambda: tensor.set_rows([0], other(table[:1], exponent))),
            _error(lambda: make(table, exponent, foreign_pk).decrypt(sk)),
        ]
    for got, want in zip(stages["packed"], stages["per-element"]):
        # Bit-equal decodes; 2**-40 is the bound the packing spec states.
        np.testing.assert_allclose(got, want, rtol=0, atol=2.0**-40)
    expected = np.zeros((n_sum, 2 * cols))
    np.add.at(expected, scatter[: len(gather)], table[idx].reshape(len(gather), -1) - mask)
    coarse = max(exponent, mask_exponent)  # what the encodings round to
    np.testing.assert_allclose(stages["packed"][2], expected, atol=2.0 ** (coarse + 2))
    assert errors["packed"] == errors["per-element"] == [
        IndexError, IndexError, IndexError, IndexError,
        ValueError, ValueError, ValueError, TypeError, ValueError,
    ]


@given(
    row_exponents=st.lists(EXPONENTS, min_size=0, max_size=3),
    cols=st.integers(1, 3),
    view=st.sampled_from(["whole", "transposed", "fancy"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_wire_fields_round_trip_exactly(keypair, row_exponents, cols, view, seed):
    """from_wire(to_wire(t)) equals t in residues and exponents — ragged
    exponents, zero rows, a transposed view and a fancy-indexed copy."""
    pk, _ = keypair
    rng = np.random.default_rng(seed)
    rows = [
        CryptoTensor.encrypt(pk, rng.normal(size=(1, cols)), exponent=e, obfuscate=False)
        for e in row_exponents
    ]
    tensor = CryptoTensor.vstack([CryptoTensor.zeros(pk, (0, cols)), *rows])
    if view == "transposed":
        tensor = tensor.T
    elif view == "fancy":
        tensor = tensor[rng.integers(0, max(len(rows), 1), size=len(rows) + 1 if rows else 0)]
    shape, cts, exponents = tensor.to_wire()
    assert isinstance(exponents, int) == (len(set(tensor.exponents.ravel().tolist())) <= 1)
    back = CryptoTensor.from_wire(pk, shape, cts, exponents)
    assert back.shape == tensor.shape
    assert np.array_equal(back.residues, tensor.residues)
    assert np.array_equal(back.exponents, tensor.exponents)
    assert back.exponents.dtype == np.int64 and back.residues.dtype == object
