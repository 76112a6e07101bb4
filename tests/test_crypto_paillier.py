"""Unit and property tests for the Paillier cryptosystem.

These check exactly the operation list of §2.2: Enc/Dec roundtrip,
homomorphic addition, scalar addition, scalar multiplication — plus the
fixed-point machinery (exponent alignment, overflow guard band).  A scalar
ciphertext is a 0-d :class:`CryptoTensor`, the one ciphertext
representation the package has.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.crypto_tensor import PLAIN_EXPONENT, TENSOR_EXPONENT, CryptoTensor
from repro.crypto.paillier import generate_paillier_keypair

floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def enc(pk, value, exponent=TENSOR_EXPONENT, obfuscate=True) -> CryptoTensor:
    """``value`` encrypted as a 0-d tensor."""
    return CryptoTensor.encrypt(pk, value, exponent=exponent, obfuscate=obfuscate)


def dec(sk, tensor: CryptoTensor) -> float:
    return float(tensor.decrypt(sk))


def quantised(value: float, exponent: int) -> float:
    """``value`` rounded to the fixed-point grid of ``exponent``."""
    return math.ldexp(round(math.ldexp(value, -exponent)), exponent)


def test_keypair_shapes(keypair):
    pk, sk = keypair
    assert pk.n.bit_length() == 128
    assert sk.p * sk.q == pk.n
    assert sk.p != sk.q


def test_keypair_rejects_tiny_keys():
    with pytest.raises(ValueError):
        generate_paillier_keypair(32, seed=0)


def test_keypair_deterministic_with_seed():
    pk1, _ = generate_paillier_keypair(96, seed=9)
    pk2, _ = generate_paillier_keypair(96, seed=9)
    assert pk1.n == pk2.n


@pytest.mark.parametrize("value", [0, 1, -1, 3.25, -3.25, 123456, -99.75, 1e-9, 2**40])
def test_encrypt_decrypt_roundtrip(keypair, value):
    pk, sk = keypair
    assert dec(sk, enc(pk, value)) == pytest.approx(value, rel=1e-12, abs=1e-12)


@given(floats)
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(keypair, value):
    pk, sk = keypair
    assert dec(sk, enc(pk, value)) == pytest.approx(value, rel=1e-9, abs=1e-9)


@given(floats, floats)
@settings(max_examples=30, deadline=None)
def test_homomorphic_addition(keypair, u, v):
    pk, sk = keypair
    total = enc(pk, u) + enc(pk, v)
    assert dec(sk, total) == pytest.approx(u + v, rel=1e-9, abs=1e-6)


@given(floats, floats)
@settings(max_examples=30, deadline=None)
def test_scalar_addition(keypair, u, v):
    pk, sk = keypair
    assert dec(sk, enc(pk, u) + v) == pytest.approx(u + v, rel=1e-9, abs=1e-6)


@given(floats, st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_scalar_multiplication(keypair, v, scalar):
    """The product is exact on the quantised operands: the cipher at the
    tensor exponent times the multiplier at the plaintext exponent."""
    pk, sk = keypair
    assert dec(sk, enc(pk, v) * scalar) == (
        quantised(v, TENSOR_EXPONENT) * quantised(scalar, PLAIN_EXPONENT)
    )


def test_subtraction_and_negation(keypair):
    pk, sk = keypair
    x = enc(pk, 10.5)
    assert dec(sk, x - 4.0) == pytest.approx(6.5)
    assert dec(sk, 4.0 - x) == pytest.approx(-6.5)
    assert dec(sk, -x) == pytest.approx(-10.5)
    assert dec(sk, x - enc(pk, 0.5)) == pytest.approx(10.0)


def test_ciphertext_times_ciphertext_is_rejected(keypair):
    pk, _ = keypair
    with pytest.raises(TypeError):
        enc(pk, 2.0) * enc(pk, 3.0)  # additive HE only


def test_cross_key_addition_is_rejected(keypair, second_keypair):
    pk1, _ = keypair
    pk2, _ = second_keypair
    with pytest.raises(ValueError):
        enc(pk1, 1.0) + enc(pk2, 1.0)


def test_cross_key_decryption_is_rejected(keypair, second_keypair):
    pk1, _ = keypair
    _, sk2 = second_keypair
    with pytest.raises(ValueError):
        enc(pk1, 1.0).decrypt(sk2)


def test_obfuscation_changes_ciphertext_not_value(keypair):
    pk, sk = keypair
    x = enc(pk, 7.25, obfuscate=False)
    blinded = x.obfuscate()
    assert blinded.residues != x.residues
    assert dec(sk, blinded) == pytest.approx(7.25)


def test_unobfuscated_encryptions_are_deterministic(keypair):
    pk, _ = keypair
    a = enc(pk, 5.0, exponent=-16, obfuscate=False)
    b = enc(pk, 5.0, exponent=-16, obfuscate=False)
    assert a.residues == b.residues


def test_obfuscated_encryptions_are_randomised(keypair):
    pk, _ = keypair
    a = enc(pk, 5.0, exponent=-16, obfuscate=True)
    b = enc(pk, 5.0, exponent=-16, obfuscate=True)
    assert a.residues != b.residues


def test_exponent_alignment_on_addition(keypair):
    pk, sk = keypair
    coarse = enc(pk, 1.5, exponent=-8)
    fine = enc(pk, 0.125, exponent=-32)
    total = coarse + fine
    assert total.exponents == -32
    assert dec(sk, total) == pytest.approx(1.625)


def test_decrease_exponent_preserves_value(keypair):
    """Adding a finer zero re-expresses a cipher at the finer exponent;
    a shift wider than the key is refused instead of wrapping mod n."""
    pk, sk = keypair
    x = enc(pk, 2.75, exponent=-8)
    finer = x + CryptoTensor.zeros(pk, (), exponent=-24)
    assert finer.exponents == -24
    assert dec(sk, finer) == pytest.approx(2.75)
    with pytest.raises(OverflowError, match="shift"):
        x + CryptoTensor.zeros(pk, (), exponent=-9 - pk.key_bits)


def test_plaintext_overflow_is_detected(keypair):
    pk, _ = keypair
    with pytest.raises(OverflowError):
        enc(pk, 2.0 ** 200, exponent=-40)


def test_guard_band_overflow_raises_on_decode(keypair):
    pk, sk = keypair
    # Two near-max encodings summed land in the guard band.
    big = math.ldexp(float(pk.max_int), -40) * 0.9
    total = enc(pk, big, exponent=-40) + enc(pk, big, exponent=-40)
    with pytest.raises(OverflowError):
        total.decrypt(sk)


def test_encoding_roundtrip_ints_exact(keypair):
    pk, sk = keypair
    for v in (0, 1, -1, 2**52, -(2**52)):
        x = enc(pk, v, exponent=0)
        assert x.exponents == 0
        assert dec(sk, x) == v


def test_encoding_rejects_non_finite(keypair):
    pk, _ = keypair
    with pytest.raises(ValueError):
        enc(pk, float("nan"))
    with pytest.raises(ValueError):
        enc(pk, float("inf"))


def test_larger_key_roundtrip():
    pk, sk = generate_paillier_keypair(512, seed=3)
    value = 123456.789
    assert dec(sk, enc(pk, value) * 2.0 + 1.0) == pytest.approx(2 * value + 1)


# ---------------------------------------------------------------------------
# Blinding gcd guard, and the exact mul-by-0/1 shortcuts.


def test_blinding_guard_skips_noninvertible_r():
    """With a contrived tiny modulus, r sharing a factor with n is common;
    every blinder must still be invertible mod n^2."""
    import random

    from repro.crypto.paillier import PaillierPublicKey

    pk = PaillierPublicKey(3 * 5, rng=random.Random(0))
    for _ in range(200):
        blinder = pk._random_blinding()
        assert math.gcd(blinder, pk.nsquare) == 1


def test_mul_by_exact_one_is_identity(keypair):
    """The 1.0 shortcut returns the ciphertext and exponent untouched."""
    pk, sk = keypair
    x = enc(pk, -7.25)
    for one in (1, 1.0):
        prod = x * one
        assert prod.residues == x.residues
        assert prod.exponents == x.exponents
        assert dec(sk, prod) == pytest.approx(-7.25)


def test_mul_by_exact_zero_is_trivial_zero(keypair):
    pk, sk = keypair
    x = enc(pk, 42.0)
    for zero in (0, 0.0):
        prod = x * zero
        assert prod.residues == 1  # the unobfuscated encryption of zero
        assert prod.exponents == x.exponents
        assert dec(sk, prod) == 0.0


def test_mul_shortcut_exponent_bookkeeping_composes(keypair):
    """Products from the shortcuts must still align and add correctly with
    ordinary ciphertexts (the regression the shortcut could have broken)."""
    pk, sk = keypair
    a = enc(pk, 3.5)
    b = enc(pk, 1.25)
    combined = (a * 1.0) + (b * 0.0) + (a * 2.0)
    assert dec(sk, combined) == pytest.approx(3.5 + 0.0 + 7.0)
