"""The big-int ring: the one arithmetic seam under the Paillier kernels.

The paper's CryptoTensor library (§7.1) runs its residues on GMP arrays.
Here every modular multiplication, exponentiation and inversion of the
crypto substrate goes through a *ring* — ``ring_for(modulus)`` for the
public moduli (``n^2``), ``make_ring(modulus)`` for a ring its caller owns
(the key owner's ``p^2`` / ``q^2``, a Miller-Rabin candidate) — with two
implementations, resolved once at import:

* :class:`PythonRing`, the reference: residues are Python ``int`` (or
  ``gmpy2.mpz`` when importable — a constructor argument) and every
  operation an operator.  ``REPRO_PURE_PYTHON=1`` selects it, a failed
  library load falls back to it, the tests pin the native ring against it.
* :class:`LibcryptoRing`: OpenSSL's ``libcrypto`` through stdlib ``ctypes``
  (the library CPython's own ``_hashlib`` already maps into the process) —
  one ``BN_MONT_CTX`` per modulus, ``BN_mod_exp_mont`` for one-shot
  modexps, ``BN_mod_mul_montgomery`` over ``BIGNUM*`` handles in
  Montgomery form for chains.

Seam contract.  One-shot operations take and return plain ``int``: ``pow``
/ ``pow_many`` (exponent >= 0), ``inv`` / ``inv_many`` (the ``ValueError``
of builtin ``pow(a, -1, m)`` on a non-unit), elementwise ``mul_many``.  A
*chain* amortises the int <-> native conversion over many multiplications:
``with ring.chain() as z`` imports operands once (``z.load(ints) ->
handles``), multiplies opaque handles (``z.mul``, ``z.sqr_n``, the
constant ``z.one``) and exports once (``z.dump(handles) -> ints``).
``mul`` / ``sqr_n`` take an ``out`` handle in the numpy sense — one the
chain handed out earlier and the caller no longer needs, which the result
may overwrite (the reference ring ignores it).  Handles die with their
chain (leaving the ``with`` block frees every ``BIGNUM`` it allocated) and
never cross a pickle, pool, codec or checkpoint boundary: outside a chain
a ciphertext is a plain ``int``.  Operands may be any integers; both rings
reduce them first.

Size rule.  A ``ctypes`` call costs ~0.4 us whatever it computes, so which
ring wins is a fixed function of the modulus bit-length.  Measured on the
2-CPU box this repo is benchmarked on (Python 3.11.7, OpenSSL 3.0.19,
conversions included; reference -> libcrypto, us per operation) — never
timed at run time, re-measured by ``benchmarks/bench_kernels.py`` and
gated by ``run_bench.check`` so a drifted crossover fails loudly:

    modulus      modexp, half-width exponent   chained mulmod   load + dump
    128 bits         15.5 -> 3.4                0.20 -> 0.52        2.4
    256 bits         61.3 -> 7.2                0.43 -> 0.52        2.4
    320 bits         86.8 -> 11.3               0.48 -> 0.54        2.4
    384 bits        130   -> 14.8               0.63 -> 0.53        2.5
    512 bits        275   -> 24.5               1.01 -> 0.56        2.7
    1 024 bits     1647   -> 134                3.35 -> 0.79        3.4
    2 048 bits    12162   -> 994               11.7  -> 1.65        5.6
    4 096 bits    86209   -> 7827              37.8  -> 4.98       12.4

One-shot *mulmods* (``mul_many``, two loads and a dump per product) stay on
Python operators at every size: the round trip only breaks even near 2 048
bits, where a mulmod is already under 1 % of the modexp beside it.
"""

from __future__ import annotations

import ctypes
import os
import threading
from ctypes import c_char_p, c_int, c_void_p
from functools import lru_cache
from types import SimpleNamespace
from typing import Iterable, Sequence

try:  # pragma: no cover - exercised only when gmpy2 is installed
    import gmpy2 as _gmpy2
except ImportError:  # the bench image has no gmpy2 and no network to get it
    _gmpy2 = None

__all__ = ["LibcryptoRing", "PythonRing", "backend", "have_gmpy2", "make_ring", "ring_for"]

# The size rule (table above): smallest modulus bit-length at which the
# native ring takes over each kind of work.
_MODEXP_MIN_BITS = 128  # one-shot modexps
_CHAIN_MIN_BITS = 384   # mulmod chains on Montgomery handles


def have_gmpy2() -> bool:
    """Whether the optional gmpy2 dependency is importable at all."""
    return _gmpy2 is not None


class PythonRing:
    """The reference ring: residues as Python integers, operators throughout.

    ``element`` is the residue type (``int``, or ``gmpy2.mpz``); one-shot
    results are always plain ``int``.  The ring is its own chain: handles
    are elements and nothing needs freeing.
    """

    def __init__(self, modulus: int, element: type = int):
        if modulus < 1:
            raise ValueError("ring modulus must be positive")
        self.modulus = int(modulus)
        self._element = element
        self._m = element(modulus)
        self.one = element(1) % self._m

    # -- one-shot operations (int in, int out) -------------------------------

    def pow(self, base: int, e: int) -> int:
        return self.pow_many((base,), e)[0]

    def pow_many(self, bases: Iterable[int], e: int) -> list[int]:
        """``[b ** e mod m]`` for one non-negative exponent."""
        if e < 0:
            raise ValueError("ring exponents are non-negative; invert the base first")
        m, element = self._m, self._element
        return [int(pow(element(b), e, m)) for b in bases]

    def inv(self, a: int) -> int:
        try:
            return int(pow(self._element(a), -1, self._m))
        except ZeroDivisionError:  # gmpy2's spelling of the same failure
            raise ValueError("base is not invertible for the given modulus") from None

    def inv_many(self, values: Sequence[int]) -> list[int]:
        """Inverses of ``values`` for the price of one (Montgomery's trick);
        raises the ``ValueError`` of :meth:`inv` when any is not a unit."""
        if not values:
            return []
        with self.chain() as z:
            handles = z.load(values)
            prefix = [z.one]
            for h in handles:
                prefix.append(z.mul(prefix[-1], h))
            (inv,) = z.load((self.inv(z.dump(prefix[-1:])[0]),))
            out = []
            for h, before in zip(reversed(handles), reversed(prefix[:-1])):
                out.append(z.mul(inv, before))
                inv = z.mul(inv, h, inv)
            return z.dump(out[::-1])

    def mul_many(self, xs: Iterable[int], ys: Iterable[int]) -> list[int]:
        """Elementwise ``[x * y mod m]``."""
        m = self.modulus
        return [x * y % m for x, y in zip(xs, ys)]

    # -- chain operations (handles are elements) -----------------------------

    def chain(self):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def load(self, values: Iterable[int]) -> list:
        m, element = self._m, self._element
        return [element(v) % m for v in values]

    def dump(self, handles: Iterable) -> list[int]:
        return [int(h) for h in handles]

    def mul(self, a, b, out=None):
        return a * b % self._m

    def sqr_n(self, a, k: int, out=None):
        """``a ** (2 ** k)``: ``k`` squarings."""
        return pow(a, 1 << k, self._m)


# ---------------------------------------------------------------------------
# libcrypto.

_BN = c_void_p
_SYMBOLS = {
    "OpenSSL_version": (c_char_p, c_int),
    "BN_clear_free": (None, _BN),
    "BN_CTX_new": (_BN,),
    "BN_CTX_free": (None, _BN),
    "BN_MONT_CTX_new": (_BN,),
    "BN_MONT_CTX_free": (None, _BN),
    "BN_MONT_CTX_set": (c_int, _BN, _BN, _BN),
    "BN_bin2bn": (_BN, c_char_p, c_int, _BN),
    "BN_bn2binpad": (c_int, _BN, c_char_p, c_int),
    "BN_to_montgomery": (c_int, _BN, _BN, _BN, _BN),
    "BN_from_montgomery": (c_int, _BN, _BN, _BN, _BN),
    "BN_mod_mul_montgomery": (c_int, _BN, _BN, _BN, _BN, _BN),
    "BN_mod_exp_mont": (c_int, _BN, _BN, _BN, _BN, _BN, _BN),
}


def _find_library() -> str | None:
    """What to ``dlopen`` for the ``BN_*`` symbols.

    CPython's ``_hashlib`` extension links libcrypto, so the library is
    already mapped and a handle on the extension reaches it (``dlsym``
    searches a handle's dependencies): the interpreter's own OpenSSL, and
    no ``ldconfig`` subprocess, which ``ctypes.util.find_library`` costs.
    """
    try:
        import _hashlib

        return _hashlib.__file__
    except (ImportError, AttributeError):  # no OpenSSL build, or a static one
        from ctypes.util import find_library  # pulls in subprocess and friends

        return find_library("crypto")


def _load() -> tuple[SimpleNamespace | None, str]:
    """``(lib, OpenSSL version)``: the bound library — or ``None`` and why."""
    path = _find_library()
    if path is None:
        return None, "libcrypto not found"
    lib = SimpleNamespace()
    try:
        dll = ctypes.CDLL(path)
        for name, (restype, *argtypes) in _SYMBOLS.items():
            fn = getattr(dll, name)
            fn.restype, fn.argtypes = restype, argtypes
            setattr(lib, name, fn)
    except OSError as exc:
        return None, f"libcrypto failed to load: {exc}"
    except AttributeError as exc:
        return None, f"libcrypto lacks a required symbol: {exc}"
    # Known answer: every native operation against builtin pow, 127-bit modulus.
    m, a, e = (1 << 127) - 1, 0xC0FFEE_DEADBEEF_0123456789, 0x5EED_F00D_CAFE
    ring = LibcryptoRing(m, lib=lib)
    with ring.chain() as z:
        x, y = z.load((a, m + e))
        chained = z.dump((z.mul(x, y), z.sqr_n(x, 3), z.sqr_n(x, 0), z.one))
    if (
        chained != [a * e % m, pow(a, 8, m), a, 1]
        or ring.pow_many((a, m - 1), e) != [pow(a, e, m), pow(m - 1, e, m)]
    ):
        return None, "libcrypto failed the known-answer modexp"
    return lib, lib.OpenSSL_version(0).decode()


class _ThreadCtx:
    """One thread's ``BN_CTX``.  ``ctypes`` drops the GIL around every call,
    so a ``BN_CTX`` must never be shared — the fabric's receiver and sender
    threads run kernels too."""

    def __init__(self, lib: SimpleNamespace):
        self._free, self.ctx = lib.BN_CTX_free, lib.BN_CTX_new()
        if not self.ctx:
            raise MemoryError("libcrypto could not allocate a BN_CTX")

    def __del__(self):
        self._free(self.ctx)


_tls = threading.local()
# A forked child builds its own BN_CTX rather than run on a copy.
os.register_at_fork(after_in_child=lambda: _tls.__dict__.clear())


def _bn_ctx(lib: SimpleNamespace) -> int:
    try:
        return _tls.holder.ctx
    except AttributeError:
        _tls.holder = _ThreadCtx(lib)
        return _tls.holder.ctx


class LibcryptoRing(PythonRing):
    """OpenSSL ``BIGNUM`` arithmetic under one ``BN_MONT_CTX`` (odd moduli).

    ``chains`` says whether chains run natively too — :func:`make_ring`
    sets it by the size rule; where it is off they run on the inherited
    reference operations.  One-shot modexps are always native; inversions
    and one-shot mulmods never (``BN_mod_inverse`` does not beat CPython's
    below 1 024 bits and a batch needs only one; see the module docstring).
    """

    _lib = _mont = _mod = _one = None  # what __del__ sees after a failed __init__

    def __init__(
        self,
        modulus: int,
        chains: bool = True,
        lib: SimpleNamespace | None = None,
    ):
        super().__init__(modulus)
        lib = lib or _LIB
        if lib is None:
            raise RuntimeError(f"libcrypto is not available: {_DETAIL}")
        self._lib, self._chains = lib, chains
        self._nbytes = (self.modulus.bit_length() + 7) >> 3
        ctx = _bn_ctx(lib)
        raw = self.modulus.to_bytes(self._nbytes, "big")
        self._mod = lib.BN_bin2bn(raw, len(raw), None)
        self._mont = lib.BN_MONT_CTX_new()
        if not (self._mod and self._mont and lib.BN_MONT_CTX_set(self._mont, self._mod, ctx)):
            raise ValueError("libcrypto rings need an odd modulus above 1")
        self._one = lib.BN_bin2bn(b"\x01", 1, None)
        if not (self._one and lib.BN_to_montgomery(self._one, self._one, self._mont, ctx)):
            raise MemoryError("libcrypto could not allocate a BIGNUM")

    def __del__(self):
        # Wiped, not just freed: the key owner's p^2 / q^2 rings die here
        # (BN_MONT_CTX_free clears the modulus copy it holds).
        if self._lib is not None:
            self._lib.BN_clear_free(self._one)
            self._lib.BN_clear_free(self._mod)
            self._lib.BN_MONT_CTX_free(self._mont)

    def __reduce__(self):
        raise TypeError("a libcrypto ring holds native pointers and cannot be pickled")

    def pow_many(self, bases: Iterable[int], e: int) -> list[int]:
        if e < 0:
            raise ValueError("ring exponents are non-negative; invert the base first")
        m, mod, mont, exp = self.modulus, self._mod, self._mont, self._lib.BN_mod_exp_mont
        with _Chain(self) as z:
            ctx, exponent, a, r = z._ctx, z._bn(e), z._bn(), z._bn()
            out = []
            for base in bases:
                z._bn(base if 0 <= base < m else base % m, a)
                if not exp(r, a, exponent, mod, ctx, mont):
                    raise ArithmeticError("BN_mod_exp_mont failed")
                out.append(z._int(r))
            return out

    def chain(self):
        return _Chain(self) if self._chains else self


class _Chain:
    """The ``BIGNUM``s of one kernel call — Montgomery-form handles and
    plain temporaries — wiped and freed together."""

    __slots__ = ("_owned", "_ring", "_lib", "_mul", "_mont", "_ctx", "_buf", "one")

    def __init__(self, ring: LibcryptoRing):
        self._owned: list[int] = []
        self._ring = ring  # keeps the BN_MONT_CTX alive as long as the handles
        self._lib = lib = ring._lib
        self._mul, self._mont, self._ctx = lib.BN_mod_mul_montgomery, ring._mont, _bn_ctx(lib)
        self._buf = ctypes.create_string_buffer(ring._nbytes)
        self.one = ring._one

    def __enter__(self) -> "_Chain":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        owned, self._owned = self._owned, []
        for handle in owned:
            self._lib.BN_clear_free(handle)  # CRT exponents and residues pass through

    __del__ = close

    def __reduce__(self):
        raise TypeError("native handles never cross a process boundary")

    def _bn(self, value: int = 0, into: int | None = None) -> int:
        """A ``BIGNUM`` of this chain holding non-negative ``value`` as is
        (a fresh one, or ``into`` overwritten)."""
        raw = value.to_bytes((value.bit_length() + 7) >> 3, "big")
        handle = self._lib.BN_bin2bn(raw, len(raw), into)
        if not handle:
            raise MemoryError("libcrypto could not allocate a BIGNUM")
        if into is None:
            self._owned.append(handle)
        return handle

    def _int(self, bn: int) -> int:
        if self._lib.BN_bn2binpad(bn, self._buf, len(self._buf)) != len(self._buf):
            raise ArithmeticError("libcrypto returned a residue wider than its modulus")
        return int.from_bytes(self._buf, "big")

    def load(self, values: Iterable[int]) -> list[int]:
        m, to_mont, mont, ctx = self._ring.modulus, self._lib.BN_to_montgomery, self._mont, self._ctx
        out = []
        for value in values:
            handle = self._bn(value if 0 <= value < m else value % m)
            if not to_mont(handle, handle, mont, ctx):
                raise ArithmeticError("BN_to_montgomery failed")
            out.append(handle)
        return out

    def dump(self, handles: Iterable[int]) -> list[int]:
        from_mont, mont, ctx, plain = self._lib.BN_from_montgomery, self._mont, self._ctx, self._bn()
        out = []
        for handle in handles:
            if not from_mont(plain, handle, mont, ctx):
                raise ArithmeticError("BN_from_montgomery failed")
            out.append(self._int(plain))
        return out

    def mul(self, a: int, b: int, out: int | None = None) -> int:
        if out is None:
            out = self._bn()
        if not self._mul(out, a, b, self._mont, self._ctx):
            raise ArithmeticError("BN_mod_mul_montgomery failed")
        return out

    def sqr_n(self, a: int, k: int, out: int | None = None) -> int:
        out = self.mul(a, a if k else self.one, out)
        for _ in range(k - 1):
            self.mul(out, out, out)
        return out


# ---------------------------------------------------------------------------
# Selection.

_LIB: SimpleNamespace | None = None
_DETAIL = "not resolved yet"
_ELEMENT: type = int  # residue type of the reference ring


def _resolve() -> None:
    """(Re)bind the process to its backend; runs once, at import."""
    global _LIB, _DETAIL, _ELEMENT
    pure = os.environ.get("REPRO_PURE_PYTHON") == "1"
    _LIB, _DETAIL = (None, "REPRO_PURE_PYTHON=1") if pure else _load()
    _ELEMENT = int if pure or _gmpy2 is None else _gmpy2.mpz
    ring_for.cache_clear()


def backend() -> tuple[str, str]:
    """``("libcrypto", <OpenSSL version>)`` or ``("python", <why>)``."""
    return ("libcrypto" if _LIB is not None else "python"), _DETAIL


def make_ring(modulus: int) -> PythonRing:
    """A ring the caller owns (and whose death frees its native state).
    Which implementation is the size rule's call, never the caller's."""
    bits = modulus.bit_length()
    if _LIB is None or not modulus & 1 or bits < max(_MODEXP_MIN_BITS, 2):
        return PythonRing(modulus, _ELEMENT)
    return LibcryptoRing(modulus, chains=bits >= _CHAIN_MIN_BITS)


# Shared rings of the public moduli (n^2): a federation has a handful.
ring_for = lru_cache(maxsize=16)(make_ring)

_resolve()
