"""Kernel/legacy equivalence: the flat kernels must decrypt identically to
the per-EncryptedNumber object path on every primitive, across key sizes.

The kernels mirror the legacy arithmetic exactly (same encodings, same
inversion trick, same exponent bookkeeping), so most assertions here are
*bit-level* on the ciphertexts, with float decrypt comparisons as a
backstop for the paths where exponent choices legitimately differ (the
mul-by-one shortcut).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.crypto_tensor import (
    CryptoTensor,
    legacy_encrypt,
    legacy_matmul_cipher_plain,
    legacy_matmul_plain_cipher,
    legacy_matmul_sparse_cipher,
    legacy_obfuscate,
    legacy_scatter_add_rows,
    legacy_sparse_t_matmul_cipher,
    matmul_cipher_plain,
    matmul_plain_cipher,
    sparse_matmul_cipher,
    sparse_t_matmul_cipher,
)
from repro.crypto.packing import (
    PackedCryptoTensor,
    SlotLayout,
    pack_matmul_plain_cipher,
    pack_sparse_matmul_cipher,
)
from repro.crypto.paillier import generate_paillier_keypair
from repro.tensor.sparse import CSRMatrix

KEY_BITS = [128, 192, 256]

# Every test here runs once per big-int ring (libcrypto forced onto these
# short keys, then the reference ring alone): same residues either way.
pytestmark = pytest.mark.usefixtures("ring_backend")


@pytest.fixture(scope="module", params=KEY_BITS)
def sized_keypair(request, ring_backend):
    return generate_paillier_keypair(request.param, seed=1000 + request.param)


def _bit_identical(a: CryptoTensor, b: CryptoTensor) -> bool:
    return np.array_equal(a.residues, b.residues) and np.array_equal(
        a.exponents, b.exponents
    )


def _binary_matrix(rng, shape, density=0.4):
    return (rng.random(shape) < density).astype(np.float64)


def test_encrypt_unobfuscated_bit_identical(sized_keypair):
    pk, _ = sized_keypair
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(4, 5))
    assert _bit_identical(
        legacy_encrypt(pk, arr, obfuscate=False),
        CryptoTensor.encrypt(pk, arr, obfuscate=False),
    )


def test_encrypt_obfuscated_same_blinder_stream():
    """Seeded keys: kernel and legacy paths consume the rng identically."""
    arr = np.random.default_rng(1).normal(size=(3, 3))
    pk_a, _ = generate_paillier_keypair(128, seed=77)
    pk_b, _ = generate_paillier_keypair(128, seed=77)
    assert _bit_identical(
        legacy_encrypt(pk_a, arr, obfuscate=True),
        CryptoTensor.encrypt(pk_b, arr, obfuscate=True),
    )


def test_dense_matmul_plain_cipher_bit_identical(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 6))
    x[rng.random(x.shape) < 0.3] = 0.0  # exercise zero-skipping
    enc_v = CryptoTensor.encrypt(pk, rng.normal(size=(6, 3)), obfuscate=False)
    legacy = legacy_matmul_plain_cipher(x, enc_v)
    kernel = matmul_plain_cipher(x, enc_v)
    assert _bit_identical(legacy, kernel)
    np.testing.assert_allclose(
        kernel.decrypt(sk), x @ enc_v.decrypt(sk), atol=1e-6
    )


def test_dense_matmul_cipher_plain_bit_identical(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(4)
    enc_g = CryptoTensor.encrypt(pk, rng.normal(size=(4, 3)), obfuscate=False)
    u = rng.normal(size=(3, 5))
    u[rng.random(u.shape) < 0.3] = 0.0
    legacy = legacy_matmul_cipher_plain(enc_g, u)
    kernel = matmul_cipher_plain(enc_g, u)
    assert _bit_identical(legacy, kernel)
    np.testing.assert_allclose(kernel.decrypt(sk), enc_g.decrypt(sk) @ u, atol=1e-6)


def test_sparse_forward_matmul_equivalent(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(5)
    x = CSRMatrix.from_dense(_binary_matrix(rng, (6, 10)))
    enc_v = CryptoTensor.encrypt(pk, rng.normal(size=(10, 3)), obfuscate=False)
    legacy = legacy_matmul_sparse_cipher(x, enc_v)
    kernel = sparse_matmul_cipher(x, enc_v)
    assert _bit_identical(legacy, kernel)
    np.testing.assert_allclose(
        kernel.decrypt(sk), x.to_dense() @ enc_v.decrypt(sk), atol=1e-6
    )


def test_sparse_t_matmul_equivalent(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(6)
    dense = _binary_matrix(rng, (5, 8)) * rng.choice([1.0, 2.5], size=(5, 8))
    x = CSRMatrix.from_dense(dense)
    enc_g = CryptoTensor.encrypt(pk, rng.normal(size=(5, 3)), obfuscate=False)
    legacy = legacy_sparse_t_matmul_cipher(x, enc_g)
    kernel = sparse_t_matmul_cipher(x, enc_g)
    assert _bit_identical(legacy, kernel)
    np.testing.assert_allclose(
        kernel.decrypt(sk), dense.T @ enc_g.decrypt(sk), atol=1e-6
    )


def test_sparse_t_matmul_column_restricted(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(7)
    dense = np.zeros((4, 9))
    dense[:, [1, 4, 7]] = rng.normal(size=(4, 3))
    x = CSRMatrix.from_dense(dense)
    cols = x.column_support()
    enc_g = CryptoTensor.encrypt(pk, rng.normal(size=(4, 2)), obfuscate=False)
    legacy = legacy_sparse_t_matmul_cipher(x, enc_g, columns=cols)
    kernel = sparse_t_matmul_cipher(x, enc_g, columns=cols)
    assert _bit_identical(legacy, kernel)
    np.testing.assert_allclose(
        kernel.decrypt(sk), dense[:, cols].T @ enc_g.decrypt(sk), atol=1e-6
    )


def _lane_layout(pk) -> SlotLayout:
    """62-bit lanes — room for a 20-bit value times a 34-bit multiplier —
    so even the 128-bit key packs two of them."""
    cap = pk.max_int.bit_length() - 1
    return SlotLayout(
        slot_bits=62, slots=cap // 62, key_bits=pk.key_bits, base_value_bits=20,
        acc_depth=8,
    )


def _legacy_pack(ct: CryptoTensor, layout: SlotLayout) -> list[int]:
    """``pack_rows_flat`` on the object path: sum of lane-shifted elements."""
    out = []
    rows, cols = np.atleast_2d(ct.residues).shape
    ct = ct.reshape(rows, cols)
    for r in range(rows):
        for start in range(0, cols, layout.slots):
            acc = ct[r, start]  # scalar access: the EncryptedNumber object path
            for j in range(1, min(layout.slots, cols - start)):
                acc = acc + ct[r, start + j] * (1 << (layout.slot_bits * j))
            out.append(acc.ciphertext)
    return out


def test_pack_rows_bit_identical_to_object_path(sized_keypair):
    pk, sk = sized_keypair
    layout = _lane_layout(pk)
    assert layout.slots >= 2
    values = np.random.default_rng(14).normal(size=(3, 2 * layout.slots + 1))
    enc = CryptoTensor.encrypt(pk, values, exponent=-16, obfuscate=False)
    packed = PackedCryptoTensor.pack(enc, layout)
    assert packed.cts == _legacy_pack(enc, layout)
    np.testing.assert_allclose(packed.decrypt(sk), values, atol=1e-4)


def test_packed_matmuls_bit_identical_to_packed_legacy_products(sized_keypair):
    """``x @ pack(V)`` is the same group element as ``pack(x @ V)``, so the
    packed kernels must reproduce the packed object-path products exactly."""
    pk, sk = sized_keypair
    layout = _lane_layout(pk)
    rng = np.random.default_rng(15)
    v = rng.normal(size=(6, layout.slots + 1))
    enc_v = CryptoTensor.encrypt(pk, v, exponent=-16, obfuscate=False)
    packed_v = PackedCryptoTensor.pack(enc_v, layout, value_bits=20)
    dense = np.round(rng.normal(size=(4, 6)) * 4) / 4  # short mantissas, both signs
    dense[rng.random(dense.shape) < 0.3] = 0.0
    sparse = CSRMatrix.from_dense(_binary_matrix(rng, (5, 6)))
    for kernel, legacy, x in (
        (pack_matmul_plain_cipher, legacy_matmul_plain_cipher, dense),
        (pack_sparse_matmul_cipher, legacy_matmul_sparse_cipher, sparse),
    ):
        product = kernel(x, packed_v)
        assert product.cts == _legacy_pack(legacy(x, enc_v), layout)
        plain = x.to_dense() if hasattr(x, "to_dense") else x
        np.testing.assert_allclose(product.decrypt(sk), plain @ v, atol=1e-3)


def test_scatter_add_equivalent(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(8)
    grads = rng.normal(size=(7, 3))
    idx = rng.integers(0, 4, size=7)
    enc = CryptoTensor.encrypt(pk, grads, obfuscate=False)
    legacy = legacy_scatter_add_rows(enc, idx, 4)
    kernel = enc.scatter_add_rows(idx, num_rows=4)
    assert _bit_identical(legacy, kernel)
    expected = np.zeros((4, 3))
    np.add.at(expected, idx, grads)
    np.testing.assert_allclose(kernel.decrypt(sk), expected, atol=1e-6)


def test_obfuscate_equivalent_values(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(9)
    arr = rng.normal(size=(3, 3))
    enc = CryptoTensor.encrypt(pk, arr, obfuscate=False)
    np.testing.assert_allclose(legacy_obfuscate(enc).decrypt(sk), arr, atol=1e-9)
    np.testing.assert_allclose(enc.obfuscate().decrypt(sk), arr, atol=1e-9)


def test_elementwise_ops_match_reference(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(10)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    ea = CryptoTensor.encrypt(pk, a)
    eb = CryptoTensor.encrypt(pk, b)
    np.testing.assert_allclose((ea + eb).decrypt(sk), a + b, atol=1e-9)
    np.testing.assert_allclose((ea - eb).decrypt(sk), a - b, atol=1e-9)
    np.testing.assert_allclose((ea + b).decrypt(sk), a + b, atol=1e-9)
    np.testing.assert_allclose((ea - b).decrypt(sk), a - b, atol=1e-9)
    np.testing.assert_allclose((ea * b).decrypt(sk), a * b, atol=1e-8)


def test_mixed_zero_one_multipliers_keep_bookkeeping(sized_keypair):
    """The 0/1 mul shortcuts leave ragged exponents; downstream ops and
    decryption must still be exact."""
    pk, sk = sized_keypair
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 3))
    mult = np.array([[1.0, 0.0, 2.5], [0.0, 1.0, -3.25]])
    ea = CryptoTensor.encrypt(pk, a)
    prod = ea * mult
    np.testing.assert_allclose(prod.decrypt(sk), a * mult, atol=1e-8)
    # Ragged-exponent tensor through add, matmul and scatter-add.
    b = rng.normal(size=(2, 3))
    np.testing.assert_allclose((prod + b).decrypt(sk), a * mult + b, atol=1e-8)
    x = rng.normal(size=(4, 2))
    np.testing.assert_allclose(
        matmul_plain_cipher(x, prod).decrypt(sk), x @ (a * mult), atol=1e-6
    )
    out = prod.scatter_add_rows(np.array([1, 1]), num_rows=2)
    expected = np.zeros((2, 3))
    np.add.at(expected, [1, 1], a * mult)
    np.testing.assert_allclose(out.decrypt(sk), expected, atol=1e-7)


def test_cross_key_add_rejected(sized_keypair, second_keypair):
    """Mixing ciphertexts from two parties must stay a loud error."""
    pk, _ = sized_keypair
    pk2, _ = second_keypair
    a = CryptoTensor.encrypt(pk, np.array([1.0, 2.0]))
    b = CryptoTensor.encrypt(pk2, np.array([3.0, 4.0]))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b


def test_non_finite_values_rejected_as_value_error(sized_keypair):
    """NaN/inf must raise ValueError (not a misleading OverflowError)."""
    pk, _ = sized_keypair
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            CryptoTensor.encrypt(pk, np.array([1.0, bad]))
