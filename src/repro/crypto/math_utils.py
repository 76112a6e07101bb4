"""Number-theoretic primitives backing the Paillier cryptosystem.

Pure-Python replacements for the GMP routines the paper's implementation
uses: Miller-Rabin primality testing, random prime generation, modular
inverses and lcm.  ``pow`` with three arguments already gives us fast
modular exponentiation on CPython.

When the optional ``gmpy2`` package is installed (``pip install
.[fast]``), :func:`powmod` and :func:`invert` route through GMP instead —
several-fold faster on the 2048-bit operands of production keys.  The fast
path is a feature flag (:func:`use_gmpy2`), defaults to on when the library
imports, and always returns plain python ``int`` so ciphertexts stay
ordinary integers either way.  The pure-python fallback is never removed;
both paths are pinned against each other in the test-suite.
"""

from __future__ import annotations

import os
import random

try:  # pragma: no cover - exercised only when gmpy2 is installed
    import gmpy2 as _gmpy2
except ImportError:  # the container image has no gmpy2; pure python it is
    _gmpy2 = None

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "invmod",
    "lcm",
    "crt_pair",
    "powmod",
    "invert",
    "to_mpz",
    "have_gmpy2",
    "gmpy2_enabled",
    "use_gmpy2",
]

# Feature flag: on iff gmpy2 imported and REPRO_PURE_PYTHON is unset.
_GMPY2_ENABLED = _gmpy2 is not None and os.environ.get("REPRO_PURE_PYTHON") != "1"


def have_gmpy2() -> bool:
    """Whether the optional gmpy2 dependency is importable at all."""
    return _gmpy2 is not None


def gmpy2_enabled() -> bool:
    """Whether :func:`powmod`/:func:`invert` currently route through GMP."""
    return _GMPY2_ENABLED


def use_gmpy2(enabled: bool) -> bool:
    """Toggle the gmpy2 fast path; returns the previous state.

    Enabling without gmpy2 installed raises so a mis-provisioned deployment
    fails loudly instead of silently running the slow path.
    """
    global _GMPY2_ENABLED
    if enabled and _gmpy2 is None:
        raise RuntimeError(
            "gmpy2 is not installed; install the '[fast]' extra to enable it"
        )
    previous = _GMPY2_ENABLED
    _GMPY2_ENABLED = bool(enabled)
    return previous


def to_mpz(value: int):
    """Convert to gmpy2's mpz when the fast path is on (identity otherwise).

    Useful for hoisting a conversion out of a loop that will call
    :func:`powmod` many times against the same modulus.
    """
    if _GMPY2_ENABLED:
        return _gmpy2.mpz(value)
    return value


def powmod(base: int, exp: int, mod: int) -> int:
    """``base ** exp % mod`` via gmpy2 when enabled, builtin ``pow`` otherwise."""
    if _GMPY2_ENABLED:
        return int(_gmpy2.powmod(base, exp, mod))
    return pow(base, exp, mod)


def invert(a: int, m: int) -> int:
    """Modular inverse via gmpy2 when enabled (raises if not invertible)."""
    if _GMPY2_ENABLED:
        try:
            return int(_gmpy2.invert(a, m))
        except ZeroDivisionError:
            raise ValueError("base is not invertible for the given modulus") from None
    return pow(a, -1, m)

# Deterministic witnesses make Miller-Rabin exact for n < 3.3e24; beyond
# that we add random rounds for a negligible error probability.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int, rounds: int = 16, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test.

    Deterministic witnesses cover all 64-bit integers exactly; for larger
    candidates ``rounds`` extra random witnesses bound the error below
    4**-rounds.
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
    rng = rng or random.Random(0x5EED ^ (n & 0xFFFFFFFF))
    witnesses = list(_DETERMINISTIC_WITNESSES)
    witnesses += [rng.randrange(2, n - 1) for _ in range(rounds)]
    for a in witnesses:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
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
    """Modular inverse of ``a`` mod ``m`` (raises if not invertible)."""
    return invert(a, m)


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
