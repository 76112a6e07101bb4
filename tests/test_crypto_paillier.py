"""Unit and property tests for the Paillier cryptosystem.

These check exactly the operation list of §2.2: Enc/Dec roundtrip,
homomorphic addition, scalar addition, scalar multiplication — plus the
fixed-point machinery (exponent alignment, overflow guard band).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.encoding import EncodedNumber
from repro.crypto.paillier import generate_paillier_keypair

floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


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
    assert sk.decrypt(pk.encrypt(value)) == pytest.approx(value, rel=1e-12, abs=1e-12)


@given(floats)
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(keypair, value):
    pk, sk = keypair
    assert sk.decrypt(pk.encrypt(value)) == pytest.approx(value, rel=1e-9, abs=1e-9)


@given(floats, floats)
@settings(max_examples=30, deadline=None)
def test_homomorphic_addition(keypair, u, v):
    pk, sk = keypair
    total = pk.encrypt(u) + pk.encrypt(v)
    assert sk.decrypt(total) == pytest.approx(u + v, rel=1e-9, abs=1e-6)


@given(floats, floats)
@settings(max_examples=30, deadline=None)
def test_scalar_addition(keypair, u, v):
    pk, sk = keypair
    assert sk.decrypt(pk.encrypt(u) + v) == pytest.approx(u + v, rel=1e-9, abs=1e-6)


@given(floats, st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_scalar_multiplication(keypair, v, scalar):
    pk, sk = keypair
    assert sk.decrypt(pk.encrypt(v) * scalar) == pytest.approx(
        v * scalar, rel=1e-9, abs=1e-6
    )


def test_subtraction_and_negation(keypair):
    pk, sk = keypair
    enc = pk.encrypt(10.5)
    assert sk.decrypt(enc - 4.0) == pytest.approx(6.5)
    assert sk.decrypt(4.0 - enc) == pytest.approx(-6.5)
    assert sk.decrypt(-enc) == pytest.approx(-10.5)
    assert sk.decrypt(enc - pk.encrypt(0.5)) == pytest.approx(10.0)


def test_ciphertext_times_ciphertext_is_rejected(keypair):
    pk, _ = keypair
    with pytest.raises(TypeError):
        pk.encrypt(2.0) * pk.encrypt(3.0)  # additive HE only


def test_cross_key_addition_is_rejected(keypair, second_keypair):
    pk1, _ = keypair
    pk2, _ = second_keypair
    with pytest.raises(ValueError):
        pk1.encrypt(1.0) + pk2.encrypt(1.0)


def test_cross_key_decryption_is_rejected(keypair, second_keypair):
    pk1, _ = keypair
    _, sk2 = second_keypair
    with pytest.raises(ValueError):
        sk2.decrypt(pk1.encrypt(1.0))


def test_obfuscation_changes_ciphertext_not_value(keypair):
    pk, sk = keypair
    enc = pk.encrypt(7.25, obfuscate=False)
    blinded = enc.obfuscate()
    assert blinded.ciphertext != enc.ciphertext
    assert sk.decrypt(blinded) == pytest.approx(7.25)


def test_unobfuscated_encryptions_are_deterministic(keypair):
    pk, _ = keypair
    a = pk.encrypt(5.0, exponent=-16, obfuscate=False)
    b = pk.encrypt(5.0, exponent=-16, obfuscate=False)
    assert a.ciphertext == b.ciphertext


def test_obfuscated_encryptions_are_randomised(keypair):
    pk, _ = keypair
    a = pk.encrypt(5.0, exponent=-16, obfuscate=True)
    b = pk.encrypt(5.0, exponent=-16, obfuscate=True)
    assert a.ciphertext != b.ciphertext


def test_exponent_alignment_on_addition(keypair):
    pk, sk = keypair
    coarse = pk.encrypt(1.5, exponent=-8)
    fine = pk.encrypt(0.125, exponent=-32)
    total = coarse + fine
    assert total.exponent == -32
    assert sk.decrypt(total) == pytest.approx(1.625)


def test_decrease_exponent_preserves_value(keypair):
    pk, sk = keypair
    enc = pk.encrypt(2.75, exponent=-8)
    finer = enc.decrease_exponent_to(-24)
    assert finer.exponent == -24
    assert sk.decrypt(finer) == pytest.approx(2.75)
    with pytest.raises(ValueError):
        enc.decrease_exponent_to(0)


def test_plaintext_overflow_is_detected(keypair):
    pk, _ = keypair
    with pytest.raises(OverflowError):
        EncodedNumber.encode(pk, 2.0 ** 200, exponent=-40)


def test_guard_band_overflow_raises_on_decode(keypair):
    pk, sk = keypair
    # Two near-max encodings summed land in the guard band.
    big = math.ldexp(float(pk.max_int), -40) * 0.9
    total = pk.encrypt(big, exponent=-40) + pk.encrypt(big, exponent=-40)
    with pytest.raises(OverflowError):
        sk.decrypt(total)


def test_encoding_roundtrip_ints_exact(keypair):
    pk, _ = keypair
    for v in (0, 1, -1, 2**52, -(2**52)):
        enc = EncodedNumber.encode(pk, v)
        assert enc.exponent == 0
        assert enc.decode() == v


def test_encoding_rejects_non_finite(keypair):
    pk, _ = keypair
    with pytest.raises(ValueError):
        EncodedNumber.encode(pk, float("nan"))
    with pytest.raises(ValueError):
        EncodedNumber.encode(pk, float("inf"))


def test_larger_key_roundtrip():
    pk, sk = generate_paillier_keypair(512, seed=3)
    value = 123456.789
    assert sk.decrypt(pk.encrypt(value) * 2.0 + 1.0) == pytest.approx(2 * value + 1)


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
    enc = pk.encrypt(-7.25)
    for one in (1, 1.0):
        prod = enc * one
        assert prod.ciphertext == enc.ciphertext
        assert prod.exponent == enc.exponent
        assert sk.decrypt(prod) == pytest.approx(-7.25)


def test_mul_by_exact_zero_is_trivial_zero(keypair):
    pk, sk = keypair
    enc = pk.encrypt(42.0)
    for zero in (0, 0.0):
        prod = enc * zero
        assert prod.ciphertext == 1  # the unobfuscated encryption of zero
        assert prod.exponent == enc.exponent
        assert sk.decrypt(prod) == 0.0


def test_mul_shortcut_exponent_bookkeeping_composes(keypair):
    """Products from the shortcuts must still align and add correctly with
    ordinary ciphertexts (the regression the shortcut could have broken)."""
    pk, sk = keypair
    a = pk.encrypt(3.5)
    b = pk.encrypt(1.25)
    combined = (a * 1.0) + (b * 0.0) + (a * 2.0)
    assert sk.decrypt(combined) == pytest.approx(3.5 + 0.0 + 7.0)
