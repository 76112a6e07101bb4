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
  ``c**lambda mod n^2``).
* obfuscation (multiplying by ``r**n``) is applied lazily: internal
  homomorphic arithmetic skips it, and every protocol message re-randomises
  by homomorphically adding a freshly encrypted mask before hitting the
  wire (see ``repro.crypto.secret_sharing``).

All residue arithmetic goes through the ring seam of
:mod:`repro.crypto.bigint` (``ring_for(n^2)`` for everyone, rings of
``p^2`` / ``q^2`` owned by the private key).  Key sizes are configurable:
the test-suite defaults to short keys; 2048-bit keys (the production
setting) work unchanged, just slower.
"""

from __future__ import annotations

import math
import random
from collections import deque
from functools import partial
from typing import Sequence

from repro.crypto.bigint import make_ring, ring_for
from repro.crypto.encoding import EncodedNumber
from repro.crypto.math_utils import generate_prime, invmod
from repro.crypto.modexp import FixedBaseTable, fixed_base_chunk, pow_signed
from repro.obs import tracer as _obs

__all__ = [
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "generate_paillier_keypair",
    "EncryptedNumber",
    "DEFAULT_KEY_BITS",
    "DEFAULT_BLINDING_LAMBDA",
]

DEFAULT_KEY_BITS = 256

# Statistical parameter of the λ-exponent blinding shortcut: instead of a
# fresh ``r^n mod n^2`` per obfuscation (a ``key_bits``-bit exponent), the
# key precomputes one ``h = r0^n`` and draws blinders as ``h^x`` for random
# λ-bit ``x`` — still an n-th power (``h^x = (r0^x)^n``), so ciphertexts
# stay valid re-randomisations, at a λ-bit exponent each (~16x less pow
# bit-work at 2048-bit keys).  128 bits of exponent entropy is the standard
# choice (the blinder is then indistinguishable from uniform in the n-th
# power subgroup under DCR-style assumptions); ``blinding_lambda=0``
# restores the classic one-fresh-base-per-blinder behaviour.
DEFAULT_BLINDING_LAMBDA = 128


class PaillierPublicKey:
    """Public half of a Paillier key pair (the modulus ``n``)."""

    __slots__ = (
        "n", "nsquare", "max_int", "_rng", "key_bits", "_blind_pool",
        "blinding_lambda", "_h", "_h_table",
    )

    def __init__(
        self,
        n: int,
        rng: random.Random | None = None,
        blinding_lambda: int = DEFAULT_BLINDING_LAMBDA,
    ):
        self.n = n
        self.nsquare = n * n
        # Guard band: plaintexts live in [-n/3, n/3]; the middle third
        # detects overflow (see EncodedNumber.decode).
        self.max_int = n // 3 - 1
        self.key_bits = n.bit_length()
        # repro: nondeterministic-ok fresh blinding entropy for keys built
        # without an explicit rng (e.g. decoded outside a seeded key ring);
        # every deterministic path in the repo passes a seeded rng through.
        self._rng = rng or random.Random()
        # Precomputed obfuscation blinders r^n mod n^2 (FIFO so a seeded rng
        # yields the same ciphertext stream whether or not the pool is used).
        self._blind_pool: deque[int] = deque()
        if blinding_lambda < 0:
            raise ValueError("blinding_lambda must be non-negative (0 = classic)")
        self.blinding_lambda = blinding_lambda
        # The λ-shortcut base h = r0^n, computed lazily at first blinder use
        # so key construction stays cheap and the seeded rng stream is the
        # same whether blinders come from the pool or on demand.
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
        """The λ-shortcut base ``h = r0^n mod n^2`` (one pow per key)."""
        if self._h is None:
            self._h = ring_for(self.nsquare).pow(self._draw_blinding_base(), self.n)
            # One full n-exponent pow: same bit class as a classic blinder.
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
            table = self._h_table = FixedBaseTable(h, self.nsquare, self.blinding_lambda)
        return table

    def _random_blinding(self) -> int:
        trc = _obs.get_tracer()
        if self._blind_pool:
            if trc is not None:
                trc.add("pool.hit", 1)
            return self._blind_pool.popleft()
        if trc is not None:
            trc.add("pool.miss", 1)
        return self._compute_blinders(1, None)[0]

    def blinding_factors(self, count: int, parallel: object | None = None) -> list[int]:
        """``count`` obfuscation factors ``r^n mod n^2``.

        Drains the precomputed pool first; any shortfall is computed as one
        batch (the dominant cost of obfuscated encryption), sharded across
        ``parallel`` when a :class:`~repro.crypto.parallel.ParallelContext`
        is given and the batch clears its gate.
        """
        out: list[int] = []
        pool = self._blind_pool
        while pool and len(out) < count:
            out.append(pool.popleft())
        need = count - len(out)
        trc = _obs.get_tracer()
        if trc is not None:
            if out:
                trc.add("pool.hit", len(out))
            if need > 0:
                trc.add("pool.miss", need)
        if need > 0:
            out.extend(self._compute_blinders(need, parallel))
        return out

    def _compute_blinders(self, count: int, parallel: object | None) -> list[int]:
        trc = _obs.get_tracer()
        if self.blinding_lambda:
            # λ-exponent shortcut: h^x for random λ-bit x (x >= 1 so a
            # degenerate blinder of 1 can never be drawn).  h^x is an n-th
            # power, so the ciphertext stays a valid re-randomisation; the
            # per-blinder exponent drops from key_bits to λ, and the
            # fixed-base table turns each into ~λ/6 mulmods, no squarings.
            h = self._ensure_h()
            # Counted at the dispatch site (exponent class is known here),
            # so serial and pool execution count identically by construction.
            if trc is not None:
                trc.add("pow.blind.lambda", count)
            top = 1 << self.blinding_lambda
            exps = [self._rng.randrange(1, top) for _ in range(count)]
            if parallel is not None and parallel.should_parallelize(count):
                # Ship h, not its table: each worker builds its own once.
                chunk = partial(fixed_base_chunk, h, self.nsquare, self.blinding_lambda)
                return parallel.map_chunks(self, chunk, exps)
            return self._ensure_h_table().pow_many(exps)
        if trc is not None:
            trc.add("pow.blind.classic", count)
        bases = [self._draw_blinding_base() for _ in range(count)]
        if parallel is not None and parallel.should_parallelize(count):
            return parallel.pow_n_many(self, bases)
        return ring_for(self.nsquare).pow_many(bases, self.n)

    def blinding_bitwork(self, count: int) -> int:
        """Exponent bits a refill of ``count`` blinders costs in this mode.

        Modular-exponentiation cost is linear in exponent bit-length at a
        fixed modulus, so this is the machine-independent unit the decrypt
        benchmark gates on (wall clock is unusable on a 1-CPU CI box).  The
        λ mode charges the one-time ``h = r0^n`` pow when it has not been
        computed yet — the honest amortised accounting.
        """
        if self.blinding_lambda:
            one_time = self.key_bits if self._h is None else 0
            return count * self.blinding_lambda + one_time
        return count * self.key_bits

    def prefill_blinding(self, count: int, parallel: object | None = None) -> None:
        """Top the obfuscation pool up to ``count`` blinders, off the hot path.

        Call between batches (or from an idle worker) so subsequent
        obfuscated encryptions only pay a mulmod each.  Blinders already in
        the pool count towards ``count``, so periodic refills never
        overprovision.
        """
        need = count - len(self._blind_pool)
        if need > 0:
            self._blind_pool.extend(self._compute_blinders(need, parallel))

    def raw_add(self, c1: int, c2: int) -> int:
        return (c1 * c2) % self.nsquare

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

    # -- user-facing layer ---------------------------------------------------

    def encrypt(
        self,
        value: float | int | EncodedNumber,
        exponent: int | None = None,
        obfuscate: bool = True,
    ) -> "EncryptedNumber":
        """Encrypt a scalar (encoding it first if needed)."""
        if isinstance(value, EncodedNumber):
            encoded = value
        else:
            encoded = EncodedNumber.encode(self, value, exponent=exponent)
        ciphertext = self.raw_encrypt(encoded.encoding, obfuscate=obfuscate)
        return EncryptedNumber(self, ciphertext, encoded.exponent)

    def encrypt_zero(self, exponent: int = 0) -> "EncryptedNumber":
        """An unobfuscated encryption of zero (accumulator seed)."""
        return EncryptedNumber(self, 1, exponent)

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
    the wire codec refuses it outright.  The only sanctioned way private
    material leaves this process is :attr:`crt_params` feeding a *private*
    worker-pool initializer (see :mod:`repro.crypto.parallel`), i.e. the
    key owner's own OS children.
    """

    __slots__ = (
        "public_key", "p", "q", "psquare", "qsquare", "p_inverse", "hp", "hq",
        "_ring_p", "_ring_q",
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

    @property
    def crt_params(self) -> tuple[int, int, int, int, int]:
        """``(p, q, hp, hq, p_inverse)`` — the private worker initializer.

        Everything a CRT decrypt worker needs, precomputed once at key
        construction.  Hand this only to a pool initializer of the key
        owner's own process; it must never touch a protocol channel.
        """
        return self.p, self.q, self.hp, self.hq, self.p_inverse

    def raw_decrypt(self, ciphertext: int) -> int:
        return self.raw_decrypt_many((ciphertext,))[0]

    def raw_decrypt_many(self, ciphertexts: Sequence[int]) -> list[int]:
        """CRT decryptions ``c -> m`` in ``[0, n)``: one batch of half-size
        exponentiations per prime, then Garner's recombination."""
        p, q, hp, hq, p_inverse = self.crt_params
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
            "keys instead; parallel decryption passes crt_params to the "
            "owner's own worker-pool initializer."
        )

    def decrypt(self, encrypted: "EncryptedNumber") -> float:
        if encrypted.public_key != self.public_key:
            raise ValueError("ciphertext was encrypted under a different key")
        encoded = EncodedNumber(
            self.public_key, self.raw_decrypt(encrypted.ciphertext), encrypted.exponent
        )
        return encoded.decode()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PaillierPrivateKey(bits={self.public_key.key_bits})"


def generate_paillier_keypair(
    key_bits: int = DEFAULT_KEY_BITS,
    seed: int | None = None,
    blinding_lambda: int = DEFAULT_BLINDING_LAMBDA,
) -> tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Generate a key pair with an ``key_bits``-bit modulus.

    A ``seed`` makes key generation *and* subsequent obfuscation
    deterministic, which the test-suite relies on.  Production use would
    pass ``seed=None`` for OS entropy.  ``blinding_lambda`` selects the
    obfuscation mode (λ-exponent shortcut by default; 0 for the classic
    fresh ``r^n`` per blinder).
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
    public = PaillierPublicKey(p * q, rng=rng, blinding_lambda=blinding_lambda)
    private = PaillierPrivateKey(public, p, q)
    return public, private


class EncryptedNumber:
    """A Paillier ciphertext paired with its fixed-point exponent."""

    __slots__ = ("public_key", "ciphertext", "exponent")

    def __init__(self, public_key: PaillierPublicKey, ciphertext: int, exponent: int):
        self.public_key = public_key
        self.ciphertext = ciphertext
        self.exponent = exponent

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: object) -> "EncryptedNumber":
        if isinstance(other, EncryptedNumber):
            return self._add_encrypted(other)
        if isinstance(other, EncodedNumber):
            return self._add_encoded(other)
        if isinstance(other, (int, float)):
            encoded = EncodedNumber.encode(self.public_key, other, exponent=None)
            return self._add_encoded(encoded)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> "EncryptedNumber":
        if isinstance(other, EncryptedNumber):
            return self._add_encrypted(-other)
        if isinstance(other, (int, float)):
            return self + (-other)
        if isinstance(other, EncodedNumber):
            neg = EncodedNumber(
                other.public_key,
                (-other.encoding) % other.public_key.n,
                other.exponent,
            )
            return self._add_encoded(neg)
        return NotImplemented

    def __rsub__(self, other: object) -> "EncryptedNumber":
        return (-self) + other

    def __neg__(self) -> "EncryptedNumber":
        return self * -1

    def __mul__(self, other: object) -> "EncryptedNumber":
        if isinstance(other, EncryptedNumber):
            raise TypeError(
                "Paillier is additively homomorphic only; ciphertext-by-"
                "ciphertext products need secret sharing (see Beaver triples)"
            )
        if isinstance(other, EncodedNumber):
            encoded = other
        elif isinstance(other, (int, float)):
            # Exact identity/annihilator shortcuts: 1.0 is 1 * 2^0 (same
            # ciphertext, same exponent) and 0.0 is the trivial encryption
            # of zero — neither needs an encoding or a pow().
            if other == 1:
                return self
            if other == 0:
                return EncryptedNumber(self.public_key, 1, self.exponent)
            encoded = EncodedNumber.encode(self.public_key, other, exponent=None)
        else:
            return NotImplemented
        ciphertext = self.public_key.raw_mul(self.ciphertext, encoded.encoding)
        return EncryptedNumber(
            self.public_key, ciphertext, self.exponent + encoded.exponent
        )

    __rmul__ = __mul__

    def _add_encrypted(self, other: "EncryptedNumber") -> "EncryptedNumber":
        if self.public_key != other.public_key:
            raise ValueError("cannot add ciphertexts under different keys")
        a, b = self._align(self, other)
        return EncryptedNumber(
            self.public_key,
            self.public_key.raw_add(a.ciphertext, b.ciphertext),
            a.exponent,
        )

    def _add_encoded(self, encoded: EncodedNumber) -> "EncryptedNumber":
        if encoded.exponent > self.exponent:
            encoded = encoded.decrease_exponent_to(self.exponent)
            me = self
        elif encoded.exponent < self.exponent:
            me = self.decrease_exponent_to(encoded.exponent)
        else:
            me = self
        other_ct = (1 + encoded.encoding * self.public_key.n) % self.public_key.nsquare
        return EncryptedNumber(
            self.public_key,
            self.public_key.raw_add(me.ciphertext, other_ct),
            min(self.exponent, encoded.exponent),
        )

    @staticmethod
    def _align(
        a: "EncryptedNumber", b: "EncryptedNumber"
    ) -> tuple["EncryptedNumber", "EncryptedNumber"]:
        if a.exponent > b.exponent:
            return a.decrease_exponent_to(b.exponent), b
        if b.exponent > a.exponent:
            return a, b.decrease_exponent_to(a.exponent)
        return a, b

    def decrease_exponent_to(self, new_exponent: int) -> "EncryptedNumber":
        """Multiply the mantissa so the value is expressed at a finer exponent."""
        if new_exponent > self.exponent:
            raise ValueError("cannot increase a ciphertext exponent losslessly")
        if new_exponent == self.exponent:
            return self
        shift = self.exponent - new_exponent
        if shift > self.public_key.key_bits:
            # The shifted mantissa could not possibly fit mod n; fail loudly
            # instead of wrapping silently (operands' dynamic ranges are too
            # far apart — typically a sign of unclamped exponents upstream).
            raise OverflowError(
                f"aligning exponents {self.exponent} -> {new_exponent} needs a "
                f"{shift}-bit shift, beyond the {self.public_key.key_bits}-bit key"
            )
        factor = 2 ** shift
        ciphertext = self.public_key.raw_mul(self.ciphertext, factor)
        return EncryptedNumber(self.public_key, ciphertext, new_exponent)

    def obfuscate(self) -> "EncryptedNumber":
        """Re-randomise so the ciphertext is unlinkable to its history."""
        blinded = (self.ciphertext * self.public_key._random_blinding()) % (
            self.public_key.nsquare
        )
        return EncryptedNumber(self.public_key, blinded, self.exponent)

    # -- wire format ---------------------------------------------------------

    def to_wire(self) -> tuple[int, int, int]:
        """``(n, ciphertext, exponent)`` — everything a receiver needs."""
        return self.public_key.n, self.ciphertext, self.exponent

    @classmethod
    def from_wire(
        cls, public_key: PaillierPublicKey, ciphertext: int, exponent: int
    ) -> "EncryptedNumber":
        return cls(public_key, int(ciphertext), int(exponent))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EncryptedNumber(exponent={self.exponent})"
