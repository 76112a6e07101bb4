"""Unit tests for the number-theory primitives."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.math_utils import (
    generate_prime,
    invmod,
    _is_probable_prime,
)

KNOWN_PRIMES = [2, 3, 5, 7, 11, 101, 7919, 104729, (1 << 61) - 1]
KNOWN_COMPOSITES = [1, 4, 9, 15, 91, 561, 41041, 825265, (1 << 61) - 3]


@pytest.mark.parametrize("p", KNOWN_PRIMES)
def test_known_primes_pass(p):
    assert _is_probable_prime(p)


@pytest.mark.parametrize("n", KNOWN_COMPOSITES)
def test_known_composites_fail(n):
    # 561, 41041, 825265 are Carmichael numbers - Fermat liars for all bases.
    assert not _is_probable_prime(n)


# psi_12 and psi_13 (OEIS A014233): the least composites that are strong
# probable primes to every prime base up to 37 and up to 41 respectively.
PSI_12 = 318_665_857_834_031_151_167_461
PSI_13 = 3_317_044_064_679_887_385_961_981


def _strong_liar(a: int, n: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


@pytest.mark.parametrize("n", [PSI_12, PSI_13])
def test_strong_pseudoprimes_to_the_twelve_witnesses_fail(n):
    # Every fixed witness 2..37 is a liar for n, so only the random rounds
    # can reject it.
    assert all(_strong_liar(a, n) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert not _is_probable_prime(n)


def test_random_rounds_run_only_from_psi_12_on():
    """Below psi_12 the twelve witnesses decide exactly, so no random
    witness is drawn; from psi_12 on every round is."""
    for n, draws in ((PSI_12 - 2, False), ((1 << 61) - 1, False), (PSI_12, True)):
        rng = random.Random(3)
        before = rng.getstate()
        _is_probable_prime(n, rng=rng)
        assert (rng.getstate() != before) is draws, n


def test_agrees_with_sympy_on_a_seeded_sweep():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    cases = [PSI_12 + d for d in range(-40, 41)]
    for bits in (8, 16, 32, 64, 78, 79, 80, 128):
        for _ in range(40):
            n = rng.getrandbits(bits) | 1
            cases += [n, sympy.nextprime(n)]
    for n in cases:
        assert _is_probable_prime(n) == sympy.isprime(n), n


def test_negative_and_zero_are_not_prime():
    assert not _is_probable_prime(0)
    assert not _is_probable_prime(-7)


def test_generate_prime_has_exact_bit_length():
    rng = random.Random(1)
    for bits in (16, 32, 64, 128):
        p = generate_prime(bits, rng)
        assert p.bit_length() == bits
        assert _is_probable_prime(p)


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
