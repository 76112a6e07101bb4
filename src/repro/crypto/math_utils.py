"""Number-theoretic primitives backing the Paillier cryptosystem.

Stand-ins for the GMP routines the paper's implementation uses:
Miller-Rabin primality testing, random prime generation, modular inverses,
lcm and Garner's CRT.  The modular exponentiations and inversions
themselves run on the big-int ring of :mod:`repro.crypto.bigint` (OpenSSL's
``libcrypto`` where the size rule says it wins, Python integers otherwise),
which always hands back plain python ``int``.
"""

from __future__ import annotations

import random

from repro.crypto.bigint import PythonRing, have_gmpy2, make_ring

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "invmod",
    "lcm",
    "crt_pair",
    "have_gmpy2",
]

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)
# The twelve prime witnesses 2..37 make Miller-Rabin exact below psi_12 =
# 318 665 857 834 031 151 167 461 (79 bits), the least composite that passes
# all twelve (OEIS A014233); from psi_12 on, random rounds bound the error.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318_665_857_834_031_151_167_461


def is_probable_prime(n: int, rounds: int = 16, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test.

    The deterministic witnesses decide every ``n`` below ``_PSI_12``
    exactly; from there on ``rounds`` extra random witnesses bound the
    error below 4**-rounds.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n - 1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = list(_DETERMINISTIC_WITNESSES)
    if n >= _PSI_12:
        rng = rng or random.Random(0x5EED ^ (n & 0xFFFFFFFF))
        witnesses += [rng.randrange(2, n - 1) for _ in range(rounds)]
    power = make_ring(n).pow  # the candidate's own ring, gone with this call
    for a in witnesses:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = power(a, d)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """Sample a random prime with exactly ``bits`` bits (top bit set)."""
    if bits < 8:
        raise ValueError("refusing to generate primes below 8 bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force bit length and oddness
        if is_probable_prime(candidate):
            return candidate


def invmod(a: int, m: int) -> int:
    """Modular inverse of ``a`` mod ``m`` (``ValueError`` if not invertible)."""
    return PythonRing(m).inv(a)


def lcm(a: int, b: int) -> int:
    """Least common multiple."""
    import math

    return a // math.gcd(a, b) * b


def crt_pair(mp: int, mq: int, p: int, q: int, q_inv_p: int) -> int:
    """Combine residues ``mp`` mod p and ``mq`` mod q via Garner's CRT.

    ``q_inv_p`` must be ``invmod(q, p)``.  Returns the unique value mod p*q.
    """
    diff = (mp - mq) % p
    return mq + q * ((diff * q_inv_p) % p)
