"""Kernel golden vectors: every flat kernel reproduces frozen residues.

``tests/data/kernel_golden.json`` holds the ``(residues, exponents)`` the
per-ciphertext object path (one ``EncryptedNumber`` operator call per
element) produced for each case below, at 128-, 192- and 256-bit seeded
keys.  It was frozen once, from the tree that still shipped that path (its
header names the commit and the command); the object path itself is gone.
The kernels must reproduce it **bit for bit** — same mantissa encodings,
same negative-plaintext inversion trick, same exponent bookkeeping — under
both big-int rings, with float decrypt comparisons as a backstop.

The operand builders (``CASES``) are shared with the freeze script
(``tests/data/kernel_golden_freeze.py``), so a frozen case and its test
read the same inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.crypto.crypto_tensor import (
    CryptoTensor,
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
GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "kernel_golden.json"

# Every test here runs once per big-int ring (libcrypto forced onto these
# short keys, then the reference ring alone): same residues either way.
pytestmark = pytest.mark.usefixtures("ring_backend")


def keypair(bits: int, seed: int | None = None):
    """The seeded key of a golden case (``seed`` defaults to ``1000 + bits``)."""
    return generate_paillier_keypair(bits, seed=1000 + bits if seed is None else seed)


@pytest.fixture(scope="module", params=KEY_BITS)
def sized_keypair(request, ring_backend):
    return keypair(request.param)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())["cases"]


def _binary_matrix(rng, shape, density=0.4):
    return (rng.random(shape) < density).astype(np.float64)


def lane_layout(pk) -> SlotLayout:
    """62-bit lanes — room for a 20-bit value times a 34-bit multiplier —
    so even the 128-bit key packs two of them."""
    cap = pk.max_int.bit_length() - 1
    return SlotLayout(
        slot_bits=62, slots=cap // 62, key_bits=pk.key_bits, base_value_bits=20,
        acc_depth=8,
    )


# ---------------------------------------------------------------------------
# Operands, one builder per golden case: ``CASES[name](pk)``.


def _encrypt_inputs(pk):
    return (np.random.default_rng(0).normal(size=(4, 5)),)


def _encrypt_obfuscated_inputs(pk):
    return (np.random.default_rng(1).normal(size=(3, 3)),)


def _matmul_plain_cipher_inputs(pk):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 6))
    x[rng.random(x.shape) < 0.3] = 0.0  # exercise zero-skipping
    return x, CryptoTensor.encrypt(pk, rng.normal(size=(6, 3)), obfuscate=False)


def _matmul_cipher_plain_inputs(pk):
    rng = np.random.default_rng(4)
    enc_g = CryptoTensor.encrypt(pk, rng.normal(size=(4, 3)), obfuscate=False)
    u = rng.normal(size=(3, 5))
    u[rng.random(u.shape) < 0.3] = 0.0
    return enc_g, u


def _sparse_matmul_inputs(pk):
    rng = np.random.default_rng(5)
    x = CSRMatrix.from_dense(_binary_matrix(rng, (6, 10)))
    return x, CryptoTensor.encrypt(pk, rng.normal(size=(10, 3)), obfuscate=False)


def _sparse_t_matmul_inputs(pk):
    rng = np.random.default_rng(6)
    dense = _binary_matrix(rng, (5, 8)) * rng.choice([1.0, 2.5], size=(5, 8))
    return CSRMatrix.from_dense(dense), CryptoTensor.encrypt(
        pk, rng.normal(size=(5, 3)), obfuscate=False
    )


def _sparse_t_matmul_columns_inputs(pk):
    rng = np.random.default_rng(7)
    dense = np.zeros((4, 9))
    dense[:, [1, 4, 7]] = rng.normal(size=(4, 3))
    x = CSRMatrix.from_dense(dense)
    enc_g = CryptoTensor.encrypt(pk, rng.normal(size=(4, 2)), obfuscate=False)
    return x, enc_g, x.column_support()


def _pack_rows_inputs(pk):
    values = np.random.default_rng(14).normal(size=(3, 2 * lane_layout(pk).slots + 1))
    return CryptoTensor.encrypt(pk, values, exponent=-16, obfuscate=False), lane_layout(pk)


def _packed_matmul_inputs(pk):
    """``(dense x, sparse x, [[V]] at exponent -16, V, layout)``."""
    layout = lane_layout(pk)
    rng = np.random.default_rng(15)
    v = rng.normal(size=(6, layout.slots + 1))
    enc_v = CryptoTensor.encrypt(pk, v, exponent=-16, obfuscate=False)
    dense = np.round(rng.normal(size=(4, 6)) * 4) / 4  # short mantissas, both signs
    dense[rng.random(dense.shape) < 0.3] = 0.0
    sparse = CSRMatrix.from_dense(_binary_matrix(rng, (5, 6)))
    return dense, sparse, enc_v, v, layout


def _scatter_add_inputs(pk):
    rng = np.random.default_rng(8)
    grads = rng.normal(size=(7, 3))
    idx = rng.integers(0, 4, size=7)
    return CryptoTensor.encrypt(pk, grads, obfuscate=False), idx, grads


def _obfuscate_inputs(pk):
    arr = np.random.default_rng(9).normal(size=(3, 3))
    return CryptoTensor.encrypt(pk, arr, obfuscate=False), arr


CASES = {
    "encrypt": _encrypt_inputs,
    "encrypt_obfuscated": _encrypt_obfuscated_inputs,
    "matmul_plain_cipher": _matmul_plain_cipher_inputs,
    "matmul_cipher_plain": _matmul_cipher_plain_inputs,
    "sparse_matmul": _sparse_matmul_inputs,
    "sparse_t_matmul": _sparse_t_matmul_inputs,
    "sparse_t_matmul_columns": _sparse_t_matmul_columns_inputs,
    "pack_rows": _pack_rows_inputs,
    "packed_matmul_dense": _packed_matmul_inputs,
    "packed_matmul_sparse": _packed_matmul_inputs,
    "scatter_add": _scatter_add_inputs,
    "obfuscate": _obfuscate_inputs,
}
# The one case frozen at a single key: a seed-77 128-bit key's blinder stream.
OBFUSCATED_BITS, OBFUSCATED_SEED = 128, 77

# Products also frozen on a blinded ciphertext operand (case "<name>_blinded").
PRODUCTS = {
    "matmul_plain_cipher": matmul_plain_cipher,
    "matmul_cipher_plain": matmul_cipher_plain,
    "sparse_matmul": sparse_matmul_cipher,
    "sparse_t_matmul": sparse_t_matmul_cipher,
}


def blinded_inputs(case, pk):
    """A product case's operands with the ciphertext operand re-randomised.

    An unblinded residue is ``1 + m*n``, whose n-th power is 1: exponents
    equal mod ``n`` give it the same power, so ``c^(n - m)`` would pass for
    ``(c^-1)^m``.  A blinded residue pins the exponent itself."""
    args = list(CASES[case](pk))
    i = next(i for i, arg in enumerate(args) if isinstance(arg, CryptoTensor))
    args[i] = args[i].obfuscate()
    return tuple(args)


def _assert_golden(golden, case, pk, residues, exponents):
    """Residues and exponents equal the frozen ones, element for element."""
    entry = golden[f"{case}/{pk.key_bits}"]
    assert [int(r, 16) for r in entry["residues"]] == [int(r) for r in residues], case
    assert entry["exponents"] == [int(e) for e in exponents], case


def _assert_tensor_golden(golden, case, tensor: CryptoTensor):
    _assert_golden(
        golden, case, tensor.public_key, tensor.residues.ravel().tolist(),
        tensor.exponents.ravel().tolist(),
    )


def _assert_packed_golden(golden, case, packed: PackedCryptoTensor):
    _assert_golden(golden, case, packed.public_key, packed.cts, [packed.exponent] * len(packed.cts))


# ---------------------------------------------------------------------------
# Bit-identity against the frozen vectors.


def test_encrypt_unobfuscated_bit_identical(sized_keypair, golden):
    pk, sk = sized_keypair
    (arr,) = _encrypt_inputs(pk)
    enc = CryptoTensor.encrypt(pk, arr, obfuscate=False)
    _assert_tensor_golden(golden, "encrypt", enc)
    np.testing.assert_allclose(enc.decrypt(sk), arr, atol=1e-9)


def test_encrypt_obfuscated_same_blinder_stream(golden):
    """A seeded key draws its blinders exactly as the object path did."""
    pk, sk = keypair(OBFUSCATED_BITS, OBFUSCATED_SEED)
    (arr,) = _encrypt_obfuscated_inputs(pk)
    enc = CryptoTensor.encrypt(pk, arr, obfuscate=True)
    _assert_tensor_golden(golden, "encrypt_obfuscated", enc)
    np.testing.assert_allclose(enc.decrypt(sk), arr, atol=1e-9)


def test_dense_matmul_plain_cipher_bit_identical(sized_keypair, golden):
    pk, sk = sized_keypair
    x, enc_v = _matmul_plain_cipher_inputs(pk)
    kernel = matmul_plain_cipher(x, enc_v)
    _assert_tensor_golden(golden, "matmul_plain_cipher", kernel)
    np.testing.assert_allclose(
        kernel.decrypt(sk), x @ enc_v.decrypt(sk), atol=1e-6
    )


def test_dense_matmul_cipher_plain_bit_identical(sized_keypair, golden):
    pk, sk = sized_keypair
    enc_g, u = _matmul_cipher_plain_inputs(pk)
    kernel = matmul_cipher_plain(enc_g, u)
    _assert_tensor_golden(golden, "matmul_cipher_plain", kernel)
    np.testing.assert_allclose(kernel.decrypt(sk), enc_g.decrypt(sk) @ u, atol=1e-6)


def test_sparse_forward_matmul_equivalent(sized_keypair, golden):
    pk, sk = sized_keypair
    x, enc_v = _sparse_matmul_inputs(pk)
    kernel = sparse_matmul_cipher(x, enc_v)
    _assert_tensor_golden(golden, "sparse_matmul", kernel)
    np.testing.assert_allclose(
        kernel.decrypt(sk), x.to_dense() @ enc_v.decrypt(sk), atol=1e-6
    )


def test_sparse_t_matmul_equivalent(sized_keypair, golden):
    pk, sk = sized_keypair
    x, enc_g = _sparse_t_matmul_inputs(pk)
    kernel = sparse_t_matmul_cipher(x, enc_g)
    _assert_tensor_golden(golden, "sparse_t_matmul", kernel)
    np.testing.assert_allclose(
        kernel.decrypt(sk), x.to_dense().T @ enc_g.decrypt(sk), atol=1e-6
    )


def test_sparse_t_matmul_column_restricted(sized_keypair, golden):
    pk, sk = sized_keypair
    x, enc_g, cols = _sparse_t_matmul_columns_inputs(pk)
    kernel = sparse_t_matmul_cipher(x, enc_g, columns=cols)
    _assert_tensor_golden(golden, "sparse_t_matmul_columns", kernel)
    np.testing.assert_allclose(
        kernel.decrypt(sk), x.to_dense()[:, cols].T @ enc_g.decrypt(sk), atol=1e-6
    )


def test_pack_rows_bit_identical_to_object_path(sized_keypair, golden):
    """``pack_rows_flat`` is the frozen sum of lane-shifted elements."""
    pk, sk = sized_keypair
    enc, layout = _pack_rows_inputs(pk)
    assert layout.slots >= 2
    packed = PackedCryptoTensor.pack(enc, layout)
    _assert_packed_golden(golden, "pack_rows", packed)
    np.testing.assert_allclose(packed.decrypt(sk), enc.decrypt(sk), atol=1e-4)


def test_packed_matmuls_bit_identical_to_packed_legacy_products(sized_keypair, golden):
    """``x @ pack(V)`` is the same group element as ``pack(x @ V)``, so the
    packed kernels reproduce the frozen packed per-element products."""
    pk, sk = sized_keypair
    dense, sparse, enc_v, v, layout = _packed_matmul_inputs(pk)
    packed_v = PackedCryptoTensor.pack(enc_v, layout, value_bits=20)
    for case, kernel, x in (
        ("packed_matmul_dense", pack_matmul_plain_cipher, dense),
        ("packed_matmul_sparse", pack_sparse_matmul_cipher, sparse),
    ):
        product = kernel(x, packed_v)
        _assert_packed_golden(golden, case, product)
        plain = x.to_dense() if hasattr(x, "to_dense") else x
        np.testing.assert_allclose(product.decrypt(sk), plain @ v, atol=1e-3)


def test_scatter_add_equivalent(sized_keypair, golden):
    pk, sk = sized_keypair
    enc, idx, grads = _scatter_add_inputs(pk)
    kernel = enc.scatter_add_rows(idx, num_rows=4)
    _assert_tensor_golden(golden, "scatter_add", kernel)
    expected = np.zeros((4, 3))
    np.add.at(expected, idx, grads)
    np.testing.assert_allclose(kernel.decrypt(sk), expected, atol=1e-6)


def test_obfuscate_equivalent_values(sized_keypair, golden):
    """A fresh seeded key re-randomises exactly as the object path did."""
    pk, sk = keypair(sized_keypair[0].key_bits)
    enc, arr = _obfuscate_inputs(pk)
    blinded = enc.obfuscate()
    _assert_tensor_golden(golden, "obfuscate", blinded)
    np.testing.assert_allclose(blinded.decrypt(sk), arr, atol=1e-9)


@pytest.mark.parametrize("case", PRODUCTS)
def test_products_of_blinded_operands_bit_identical(sized_keypair, golden, case):
    pk, sk = keypair(sized_keypair[0].key_bits)  # fresh: blinders from the seed
    args = blinded_inputs(case, pk)
    kernel = PRODUCTS[case](*args)
    _assert_tensor_golden(golden, f"{case}_blinded", kernel)
    unblinded = PRODUCTS[case](*CASES[case](pk))
    np.testing.assert_array_equal(kernel.decrypt(sk), unblinded.decrypt(sk))


def test_golden_file_covers_every_case_once(golden):
    """One frozen entry per case and key, and nothing else."""
    cases = [*CASES, *(f"{case}_blinded" for case in PRODUCTS)]
    want = {f"{case}/{bits}" for case in cases for bits in KEY_BITS}
    want -= {f"encrypt_obfuscated/{bits}" for bits in KEY_BITS if bits != OBFUSCATED_BITS}
    assert set(golden) == want


# ---------------------------------------------------------------------------
# Behaviour without a frozen counterpart: float backstops and refusals.


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
