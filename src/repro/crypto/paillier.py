"""The Paillier additively homomorphic cryptosystem.

This is the HE primitive BlindFL builds its protocols on (§2.2).  Supported
operations mirror the paper's list exactly:

* ``Enc(v, pk)`` / ``Dec([[v]], sk)``
* homomorphic addition ``[[u]] + [[v]] = [[u + v]]``
* scalar addition ``[[u]] + v = [[u + v]]``
* scalar multiplication ``u * [[v]] = [[u * v]]``

Implementation notes (matching the paper's GMP-based CryptoTensor library in
spirit):

* ``g = n + 1`` so encryption needs a single modular exponentiation
  (``g**m = 1 + m*n  (mod n^2)``).
* decryption uses CRT over ``p`` and ``q`` (~4x faster than the textbook
  ``c**lambda mod n^2``); a per-element plaintext far below ``p`` needs
  only the ``p`` half (see ``PaillierPrivateKey.raw_decrypt_many``).
* obfuscation (multiplying by a blinder ``h**x``, an n-th power) is
  applied lazily: internal homomorphic arithmetic skips it, and every
  protocol message re-randomises by homomorphically adding a freshly
  encrypted mask before hitting the wire (see
  ``repro.crypto.secret_sharing``).

All residue arithmetic goes through the ring seam of
:mod:`repro.crypto.bigint` (``ring_for(n^2)`` for everyone, rings of
``p^2`` / ``q^2`` owned by the private key).  Key sizes are configurable:
the test-suite defaults to short keys; 2048-bit keys (the production
setting) work unchanged, just slower.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Sequence

from repro.crypto.bigint import make_ring, ring_for
from repro.crypto.math_utils import generate_prime, invmod
from repro.crypto.modexp import FixedBaseTable, pow_signed
from repro.obs import tracer as _obs

__all__ = [
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "generate_paillier_keypair",
    "DEFAULT_KEY_BITS",
    "BLINDING_LAMBDA",
]

DEFAULT_KEY_BITS = 256

# Statistical parameter of the blinding: instead of a fresh ``r^n mod n^2``
# per obfuscation (a ``key_bits``-bit exponent), the key computes one
# ``h = r0^n`` and draws blinders as ``h^x`` for random λ-bit ``x`` — still
# an n-th power (``h^x = (r0^x)^n``), so ciphertexts stay valid
# re-randomisations, at a λ-bit exponent each (~16x less pow bit-work at
# 2048-bit keys).  128 bits of exponent entropy is the standard choice (the
# blinder is then indistinguishable from uniform in the n-th power subgroup
# under DCR-style assumptions).
BLINDING_LAMBDA = 128

# One-prime decryption: a p-half result whose signed reading is below
# 2^(bits(p) - 1 - ONE_PRIME_GUARD_BITS) is taken as the plaintext; anything
# else is re-decrypted by CRT.  Keys whose band would be narrower than
# ONE_PRIME_MIN_BITS (256-bit keys and below) always run CRT.
ONE_PRIME_GUARD_BITS = 40
ONE_PRIME_MIN_BITS = 128


class PaillierPublicKey:
    """Public half of a Paillier key pair (the modulus ``n``)."""

    __slots__ = (
        "n", "nsquare", "max_int", "_rng", "key_bits", "_h", "_h_table",
        "fingerprint",
    )

    def __init__(self, n: int, rng: random.Random | None = None):
        self.n = n
        self.nsquare = n * n
        # Guard band: plaintexts live in [-n/3, n/3]; the middle third
        # detects overflow (see kernels._signed_plaintexts).
        self.max_int = n // 3 - 1
        self.key_bits = n.bit_length()
        # How a ciphertext frame names this key on the wire: the first 8
        # bytes of SHA-256 over n's big-endian bytes (the modulus itself
        # travels only in public-key payloads).
        self.fingerprint = hashlib.sha256(
            n.to_bytes((self.key_bits + 7) // 8 or 1, "big")
        ).digest()[:8]
        # repro: nondeterministic-ok fresh blinding entropy for keys built
        # without an explicit rng (e.g. decoded outside a seeded key ring);
        # every deterministic path in the repo passes a seeded rng through.
        self._rng = rng or random.Random()
        # The blinding base h = r0^n, computed lazily at first blinder use
        # so key construction stays cheap.
        self._h: int | None = None
        self._h_table: FixedBaseTable | None = None

    # -- raw integer layer --------------------------------------------------

    def raw_encrypt(self, plaintext: int, obfuscate: bool = True) -> int:
        """Encrypt an integer residue (mod n).  ``g = n + 1`` shortcut."""
        if not 0 <= plaintext < self.n:
            plaintext %= self.n
        nude = (1 + plaintext * self.n) % self.nsquare
        if not obfuscate:
            return nude
        return (nude * self._random_blinding()) % self.nsquare

    def _draw_blinding_base(self) -> int:
        """Draw ``r`` uniform in ``(0, n)`` with ``gcd(r, n) == 1``.

        A random ``r`` sharing a factor with ``n`` is astronomically rare
        for real key sizes (it would factor the modulus), but ``r^n`` would
        then be non-invertible and the "blinded" ciphertext degenerate, so
        we guard anyway — it matters for the tiny moduli the tests use.
        """
        while True:
            r = self._rng.randrange(1, self.n)
            if math.gcd(r, self.n) == 1:
                return r

    def _ensure_h(self) -> int:
        """The blinding base ``h = r0^n mod n^2`` (one pow per key)."""
        if self._h is None:
            self._h = ring_for(self.nsquare).pow(self._draw_blinding_base(), self.n)
            # One full n-exponent pow, counted apart from the λ-bit ones.
            trc = _obs.get_tracer()
            if trc is not None:
                trc.add("pow.blind.classic", 1)
        return self._h

    def _ensure_h_table(self) -> FixedBaseTable:
        """Windowed powers of ``h`` covering λ-bit exponents (lazy, per key).

        Rebuilt when ``h`` is no longer the one it was built for (a
        checkpoint restore overwrites the key's blinding state).
        """
        h = self._ensure_h()
        table = self._h_table
        if table is None or table.base != h:
            table = self._h_table = FixedBaseTable(h, self.nsquare, BLINDING_LAMBDA)
        return table

    def _random_blinding(self) -> int:
        return self.blinding_factors(1)[0]

    def blinding_factors(self, count: int) -> list[int]:
        """``count`` fresh obfuscation factors ``h^x mod n^2``.

        ``x`` is a random λ-bit exponent (``x >= 1``, so a degenerate
        blinder of 1 can never be drawn).  ``h^x`` is an n-th power, so the
        ciphertext stays a valid re-randomisation; the fixed-base table of
        ``h`` turns each blinder into ~λ/6 mulmods, no squarings.
        """
        if count <= 0:  # draws nothing from the rng, not even ``h``
            return []
        table = self._ensure_h_table()
        trc = _obs.get_tracer()
        if trc is not None:
            trc.add("pow.blind.lambda", count)
        top = 1 << BLINDING_LAMBDA
        return table.pow_many([self._rng.randrange(1, top) for _ in range(count)])

    def raw_mul(self, c: int, plaintext: int) -> int:
        """Multiply a ciphertext by a plaintext residue.

        Negative plaintexts (residues in the top half of the ring) would
        make the exponent huge; inverting the ciphertext keeps exponents
        small, the classic trick from the ``phe`` library.
        """
        plaintext %= self.n
        if plaintext >= self.n // 2:
            plaintext -= self.n
        return pow_signed(c, plaintext, self.nsquare)

    # -- wire format ---------------------------------------------------------

    def to_wire(self) -> int:
        """The key's public wire representation: just the modulus ``n``.

        Public keys cross the channel only during the initialisation
        handshake; everything else (``nsquare``, ``max_int``) is derived.
        """
        return self.n

    @classmethod
    def from_wire(cls, n: int) -> "PaillierPublicKey":
        """Rebuild a key from its wire modulus.

        The rebuilt key carries a *fresh* (OS-seeded) blinding RNG — fine
        for decryption and homomorphic arithmetic, but channels that need
        bit-reproducible obfuscation streams should resolve decoded keys
        against their registered originals (see the codec's key ring).
        """
        return cls(int(n))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PaillierPublicKey) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("paillier-pk", self.n))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PaillierPublicKey(bits={self.key_bits})"


class PaillierPrivateKey:
    """Secret half of a Paillier key pair; decrypts via CRT.

    This object is the custody boundary of the whole protocol: whoever
    holds ``(p, q)`` can decrypt every ciphertext under the key.  It is
    therefore deliberately unserialisable — pickling raises (so it cannot
    ride a ``multiprocessing`` task, a cache, or a copy by accident) and
    the wire codec refuses it outright.  Nothing about it leaves the key
    owner's process: every decryption runs here, serially.
    """

    __slots__ = (
        "public_key", "p", "q", "psquare", "qsquare", "p_inverse", "hp", "hq",
        "_ring_p", "_ring_q", "one_prime_bits",
    )

    def __init__(self, public_key: PaillierPublicKey, p: int, q: int):
        if p * q != public_key.n:
            raise ValueError("given primes do not match the public modulus")
        if p == q:
            raise ValueError("p and q must be distinct")
        self.public_key = public_key
        # Order them so CRT recombination is canonical.
        self.p, self.q = (p, q) if p < q else (q, p)
        self.psquare = self.p * self.p
        self.qsquare = self.q * self.q
        self.p_inverse = invmod(self.p, self.q)
        # Rings of the secret moduli: owned by this key (never the shared
        # ring cache), so they live and are wiped with it.
        self._ring_p = make_ring(self.psquare)
        self._ring_q = make_ring(self.qsquare)
        g = self.public_key.n + 1
        self.hp = invmod((self._ring_p.pow(g, self.p - 1) - 1) // self.p, self.p)
        self.hq = invmod((self._ring_q.pow(g, self.q - 1) - 1) // self.q, self.q)
        # Width of the one-prime band, a public function of the key size
        # (0: this key always decrypts by CRT).
        band = self.p.bit_length() - 1 - ONE_PRIME_GUARD_BITS
        self.one_prime_bits = band if band >= ONE_PRIME_MIN_BITS else 0

    def raw_decrypt(self, ciphertext: int) -> int:
        return self.raw_decrypt_many((ciphertext,))[0]

    def raw_decrypt_many(self, ciphertexts: Sequence[int], one_prime: bool = True) -> list[int]:
        """Decryptions ``c -> m`` in ``[0, n)``, every one CRT's residue.

        With ``one_prime`` (per-element ciphertexts; packed lanes fill n and
        pass False) and a key wide enough for it, ``m mod p`` comes from one
        half-size exponentiation and is returned when its signed reading
        lies in the band ``|m| < 2^one_prime_bits``; the rest are decrypted
        again by CRT.  Counts the half-size pows it ran as ``pow.crt``.
        """
        if not (one_prime and self.one_prime_bits):
            out, pows = self._crt(ciphertexts), 2 * len(ciphertexts)
        else:
            out, pows = self._one_prime(ciphertexts)
        if out:
            trc = _obs.get_tracer()
            if trc is not None:
                trc.add("pow.crt", pows)
                trc.add("ct.decrypted", len(out))
        return out

    def _one_prime(self, ciphertexts: Sequence[int]) -> tuple[list[int], int]:
        """One-prime decryptions with CRT fallback: ``(residues, pows)``."""
        p, hp, n = self.p, self.hp, self.public_key.n
        bound = 1 << self.one_prime_bits
        out: list[int | None] = []
        missed = []
        for i, u in enumerate(self._ring_p.pow_many(ciphertexts, p - 1)):
            m = (u - 1) // p * hp % p
            if m < bound:
                out.append(m)
            elif m > p - bound:  # the negative plaintext m - p
                out.append(m - p + n)
            else:
                out.append(None)
                missed.append(i)
        if missed:
            for i, m in zip(missed, self._crt([ciphertexts[i] for i in missed])):
                out[i] = m
        return out, len(ciphertexts) + 2 * len(missed)

    def _crt(self, ciphertexts: Sequence[int]) -> list[int]:
        """CRT decryptions: one batch of half-size exponentiations per
        prime, then Garner's recombination."""
        p, q, hp, hq, p_inverse = self.p, self.q, self.hp, self.hq, self.p_inverse
        out = []
        for up, uq in zip(
            self._ring_p.pow_many(ciphertexts, p - 1),
            self._ring_q.pow_many(ciphertexts, q - 1),
        ):
            mp = (up - 1) // p * hp % p
            mq = (uq - 1) // q * hq % q
            out.append(mp + (mq - mp) * p_inverse % q * p)
        return out

    def __reduce__(self):
        raise TypeError(
            "PaillierPrivateKey is deliberately unpicklable: serialising it "
            "would let (p, q) leave the key owner's custody. Ship public "
            "keys instead."
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PaillierPrivateKey(bits={self.public_key.key_bits})"


def generate_paillier_keypair(
    key_bits: int = DEFAULT_KEY_BITS,
    seed: int | None = None,
) -> tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Generate a key pair with an ``key_bits``-bit modulus.

    A ``seed`` makes key generation *and* subsequent obfuscation
    deterministic, which the test-suite relies on.  Production use would
    pass ``seed=None`` for OS entropy.
    """
    if key_bits < 64:
        raise ValueError("key_bits below 64 leaves no room for fixed-point tensors")
    # repro: nondeterministic-ok seed=None is the documented production
    # contract: key material must come from OS entropy; tests pass a seed.
    rng = random.Random(seed) if seed is not None else random.SystemRandom()
    half = key_bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(key_bits - half, rng)
        if p != q and (p * q).bit_length() == key_bits:
            break
    public = PaillierPublicKey(p * q, rng=rng)
    private = PaillierPrivateKey(public, p, q)
    return public, private

