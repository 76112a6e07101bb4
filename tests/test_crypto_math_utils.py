"""Unit tests for the number-theory primitives."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.math_utils import (
    crt_pair,
    generate_prime,
    invmod,
    is_probable_prime,
    lcm,
)

KNOWN_PRIMES = [2, 3, 5, 7, 11, 101, 7919, 104729, (1 << 61) - 1]
KNOWN_COMPOSITES = [1, 4, 9, 15, 91, 561, 41041, 825265, (1 << 61) - 3]


@pytest.mark.parametrize("p", KNOWN_PRIMES)
def test_known_primes_pass(p):
    assert is_probable_prime(p)


@pytest.mark.parametrize("n", KNOWN_COMPOSITES)
def test_known_composites_fail(n):
    # 561, 41041, 825265 are Carmichael numbers - Fermat liars for all bases.
    assert not is_probable_prime(n)


def test_negative_and_zero_are_not_prime():
    assert not is_probable_prime(0)
    assert not is_probable_prime(-7)


def test_generate_prime_has_exact_bit_length():
    rng = random.Random(1)
    for bits in (16, 32, 64, 128):
        p = generate_prime(bits, rng)
        assert p.bit_length() == bits
        assert is_probable_prime(p)


def test_generate_prime_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        generate_prime(4, random.Random(0))


def test_generate_prime_is_deterministic_per_seed():
    assert generate_prime(64, random.Random(5)) == generate_prime(64, random.Random(5))


@given(st.integers(min_value=2, max_value=10**9))
@settings(max_examples=60)
def test_invmod_inverts(a):
    m = (1 << 61) - 1  # prime modulus, every nonzero residue invertible
    a %= m
    if a == 0:
        a = 1
    inv = invmod(a, m)
    assert (a * inv) % m == 1


def test_invmod_raises_when_not_coprime():
    with pytest.raises(ValueError):
        invmod(6, 9)


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=60)
def test_lcm_divisible_by_both(a, b):
    ell = lcm(a, b)
    assert ell % a == 0 and ell % b == 0
    assert ell <= a * b


def test_crt_pair_reconstructs():
    p, q = 10007, 10009
    q_inv_p = invmod(q, p)
    for value in (0, 1, 12345, p * q - 1, 99999999):
        v = value % (p * q)
        assert crt_pair(v % p, v % q, p, q, q_inv_p) == v


# ---------------------------------------------------------------------------
# The arithmetic under these helpers is the big-int ring: whichever ring
# the size rule selects must agree with the reference ring and with builtin
# ``pow``, and nothing above the seam may depend on the choice.

import hashlib  # noqa: E402  (grouped with their tests)

from repro.crypto import bigint  # noqa: E402

_POWMOD_CASES = [
    (2, 10, 1_000_003),
    (12345678901234567890, 987654321, (1 << 127) - 1),
    (3, (1 << 61) - 1, (1 << 89) - 1),
    ((1 << 200) + 7, (1 << 100) + 3, (1 << 255) + 95),
    ((1 << 700) + 9, (1 << 300) + 1, (1 << 1279) - 1),
]


def test_reference_ring_matches_builtin_pow():
    for b, e, m in _POWMOD_CASES:
        ring = bigint.PythonRing(m)
        assert ring.pow(b, e) == pow(b, e, m)
        assert ring.inv(b % m) == invmod(b, m) == pow(b % m, -1, m)


def test_selected_ring_agrees_with_the_reference_ring():
    """Replaces the never-run gmpy2 comparison: this one runs everywhere."""
    for b, e, m in _POWMOD_CASES:
        ring, ref = bigint.make_ring(m), bigint.PythonRing(m)
        results = [ring.pow(b, e), ring.inv(b), *ring.inv_many([b, e]), *ring.mul_many([b], [e])]
        assert results == [ref.pow(b, e), ref.inv(b), *ref.inv_many([b, e]), b * e % m]
        assert all(type(r) is int for r in results)


@pytest.mark.parametrize("key_bits", [128, 512])
def test_crypto_results_bit_identical_across_rings(key_bits, force_ring):
    """Key generation, blinding, encryption and decryption are the same
    residues on the reference ring, under the size rule, and with libcrypto
    forced onto every modulus."""
    import numpy as np

    from repro.crypto.crypto_tensor import CryptoTensor
    from repro.crypto.paillier import generate_paillier_keypair

    arr = np.random.default_rng(0).normal(size=(3, 4))

    def cycle():
        pk, sk = generate_paillier_keypair(key_bits, seed=55)
        enc = CryptoTensor.encrypt(pk, arr, obfuscate=True)
        prod = (arr @ enc.T) - enc[:3, :3] * -2.5
        return (
            (sk.p, sk.q, sk.hp, sk.hq),
            [*enc.residues.ravel(), *prod.residues.ravel()],
            prod.decrypt(sk).tolist(),
        )

    selected = cycle()
    with force_ring("python"):
        assert cycle() == selected
    with force_ring("libcrypto"):
        assert cycle() == selected


def test_seeded_keygen_is_pinned():
    """Miller-Rabin runs on the ring: the primes are those of the
    builtin-``pow`` implementation for seeds 0-4 at 128/256/512 bits."""
    from repro.crypto.paillier import generate_paillier_keypair

    pinned = {
        128: "51dbcbf8d42d91f7c0173e14f2310a81d73a07d2acdb426b3bfbcf745ec801ec",
        256: "f3b5af4cb5dfd543a5d10c566ff74177855095cd4333e06b0316134871dfd652",
        512: "01575a24ad37e45c7d795bc5d29624b62a0a97809e99ff753d340d53bdf85581",
    }
    for bits, digest in pinned.items():
        h = hashlib.sha256()
        for seed in range(5):
            _, sk = generate_paillier_keypair(bits, seed=seed)
            h.update(f"{sk.p}:{sk.q};".encode())
        assert h.hexdigest() == digest
