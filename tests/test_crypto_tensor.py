"""Tests for the CryptoTensor vectorised encrypted-tensor abstraction."""

import numpy as np
import pytest

from repro.crypto.crypto_tensor import CryptoTensor


@pytest.fixture()
def pk_sk(keypair):
    return keypair


def test_encrypt_decrypt_roundtrip_matrix(pk_sk, rng):
    pk, sk = pk_sk
    arr = rng.normal(size=(3, 4))
    np.testing.assert_allclose(CryptoTensor.encrypt(pk, arr).decrypt(sk), arr, atol=1e-9)


def test_encrypt_decrypt_roundtrip_vector(pk_sk, rng):
    pk, sk = pk_sk
    arr = rng.normal(size=5)
    np.testing.assert_allclose(CryptoTensor.encrypt(pk, arr).decrypt(sk), arr, atol=1e-9)


def test_zeros_decrypt_to_zero(pk_sk):
    pk, sk = pk_sk
    np.testing.assert_array_equal(CryptoTensor.zeros(pk, (2, 3)).decrypt(sk), 0.0)


def test_elementwise_add_cipher_cipher(pk_sk, rng):
    pk, sk = pk_sk
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    out = CryptoTensor.encrypt(pk, a) + CryptoTensor.encrypt(pk, b)
    np.testing.assert_allclose(out.decrypt(sk), a + b, atol=1e-9)


def test_elementwise_add_cipher_plain(pk_sk, rng):
    pk, sk = pk_sk
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    np.testing.assert_allclose(
        (CryptoTensor.encrypt(pk, a) + b).decrypt(sk), a + b, atol=1e-9
    )
    np.testing.assert_allclose(
        (b + CryptoTensor.encrypt(pk, a)).decrypt(sk), a + b, atol=1e-9
    )


def test_elementwise_sub_and_neg(pk_sk, rng):
    pk, sk = pk_sk
    a, b = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    enc = CryptoTensor.encrypt(pk, a)
    np.testing.assert_allclose((enc - b).decrypt(sk), a - b, atol=1e-9)
    np.testing.assert_allclose((b - enc).decrypt(sk), b - a, atol=1e-9)
    np.testing.assert_allclose((-enc).decrypt(sk), -a, atol=1e-9)


def test_scalar_and_array_multiplication(pk_sk, rng):
    pk, sk = pk_sk
    a = rng.normal(size=(2, 3))
    w = rng.normal(size=(2, 3))
    enc = CryptoTensor.encrypt(pk, a)
    np.testing.assert_allclose((enc * 2.5).decrypt(sk), 2.5 * a, atol=1e-8)
    np.testing.assert_allclose((w * enc).decrypt(sk), w * a, atol=1e-8)


def test_cipher_by_cipher_multiplication_rejected(pk_sk, rng):
    pk, _ = pk_sk
    enc = CryptoTensor.encrypt(pk, rng.normal(size=(2, 2)))
    with pytest.raises(TypeError):
        enc * enc


def test_shape_mismatch_rejected(pk_sk, rng):
    pk, _ = pk_sk
    enc = CryptoTensor.encrypt(pk, rng.normal(size=(2, 2)))
    with pytest.raises(ValueError):
        enc + rng.normal(size=(3, 2))


def test_plain_matmul_cipher(pk_sk, rng):
    pk, sk = pk_sk
    x = rng.normal(size=(4, 3))
    v = rng.normal(size=(3, 2))
    out = x @ CryptoTensor.encrypt(pk, v)
    np.testing.assert_allclose(out.decrypt(sk), x @ v, atol=1e-7)


def test_plain_matmul_cipher_skips_zeros(pk_sk, rng):
    """Zero plaintext entries must not perturb the result (and are skipped)."""
    pk, sk = pk_sk
    x = rng.normal(size=(4, 6))
    x[x < 0.5] = 0.0  # heavily sparse
    v = rng.normal(size=(6, 2))
    out = x @ CryptoTensor.encrypt(pk, v)
    np.testing.assert_allclose(out.decrypt(sk), x @ v, atol=1e-7)


def test_cipher_matmul_plain(pk_sk, rng):
    pk, sk = pk_sk
    g = rng.normal(size=(4, 2))
    u = rng.normal(size=(2, 5))
    out = CryptoTensor.encrypt(pk, g) @ u
    np.testing.assert_allclose(out.decrypt(sk), g @ u, atol=1e-7)


def test_matmul_shape_mismatch(pk_sk, rng):
    pk, _ = pk_sk
    enc = CryptoTensor.encrypt(pk, rng.normal(size=(3, 2)))
    with pytest.raises(ValueError):
        rng.normal(size=(4, 5)) @ enc


def test_transpose_and_reshape(pk_sk, rng):
    pk, sk = pk_sk
    a = rng.normal(size=(2, 3))
    enc = CryptoTensor.encrypt(pk, a)
    np.testing.assert_allclose(enc.T.decrypt(sk), a.T, atol=1e-9)
    np.testing.assert_allclose(enc.reshape(3, 2).decrypt(sk), a.reshape(3, 2), atol=1e-9)


def test_take_rows_is_encrypted_lookup(pk_sk, rng):
    pk, sk = pk_sk
    table = rng.normal(size=(6, 3))
    idx = np.array([4, 0, 4, 2])
    out = CryptoTensor.encrypt(pk, table).take_rows(idx)
    np.testing.assert_allclose(out.decrypt(sk), table[idx], atol=1e-9)


def test_scatter_add_rows_is_encrypted_lkup_bw(pk_sk, rng):
    pk, sk = pk_sk
    grads = rng.normal(size=(5, 2))
    idx = np.array([1, 3, 1, 0, 3])
    out = CryptoTensor.encrypt(pk, grads).scatter_add_rows(idx, num_rows=4)
    expected = np.zeros((4, 2))
    np.add.at(expected, idx, grads)
    np.testing.assert_allclose(out.decrypt(sk), expected, atol=1e-8)


def test_scatter_add_rejects_out_of_range(pk_sk, rng):
    pk, _ = pk_sk
    enc = CryptoTensor.encrypt(pk, rng.normal(size=(2, 2)))
    with pytest.raises(IndexError):
        enc.scatter_add_rows(np.array([0, 5]), num_rows=3)


def test_vstack_hstack(pk_sk, rng):
    pk, sk = pk_sk
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    ea, eb = CryptoTensor.encrypt(pk, a), CryptoTensor.encrypt(pk, b)
    np.testing.assert_allclose(
        CryptoTensor.vstack([ea, eb]).decrypt(sk), np.vstack([a, b]), atol=1e-9
    )
    np.testing.assert_allclose(
        CryptoTensor.hstack([ea, eb]).decrypt(sk), np.hstack([a, b]), atol=1e-9
    )


def test_obfuscate_preserves_values(pk_sk, rng):
    pk, sk = pk_sk
    a = rng.normal(size=(2, 2))
    enc = CryptoTensor.encrypt(pk, a, obfuscate=False)
    blinded = enc.obfuscate()
    assert (enc.residues != blinded.residues).all()
    assert np.array_equal(enc.exponents, blinded.exponents)
    np.testing.assert_allclose(blinded.decrypt(sk), a, atol=1e-9)


def test_sparse_matmul_matches_dense(pk_sk, rng):
    """CSR @ cipher must equal dense @ cipher (nnz-proportional path)."""
    from repro.tensor.sparse import CSRMatrix

    pk, sk = pk_sk
    dense = rng.normal(size=(3, 8))
    dense[rng.random(dense.shape) < 0.7] = 0.0
    sparse = CSRMatrix.from_dense(dense)
    v = rng.normal(size=(8, 2))
    enc_v = CryptoTensor.encrypt(pk, v)
    np.testing.assert_allclose(
        (sparse @ enc_v).decrypt(sk), dense @ v, atol=1e-7
    )
