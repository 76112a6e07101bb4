"""The big-int ring: the one arithmetic seam under the Paillier kernels.

The paper's CryptoTensor library (§7.1) runs its residues on GMP arrays.
Here every modular multiplication, exponentiation and inversion of the
crypto substrate goes through a *ring* — ``ring_for(modulus)`` for the
public moduli (``n^2``), ``make_ring(modulus)`` for a ring its caller owns
(the key owner's ``p^2`` / ``q^2``, a Miller-Rabin candidate) — with two
implementations, resolved once at import:

* :class:`PythonRing`, the reference: residues are Python ``int`` and
  every operation an operator.  ``REPRO_PURE_PYTHON=1`` selects it, a failed
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
handles``), computes on opaque handles, and exports once (``z.dump(handles)
-> ints``).  The unit of computation is the *program*, not the mulmod:
``z.run(programs) -> handles`` evaluates a batch of accumulate programs,
each a flat list ``[(handles to multiply in, squarings after), ...]`` read
left to right from the accumulator 1 — ``[([a, b], 3), ([c], 0)]`` is
``(a * b) ** 8 * c`` — and returns one fresh handle per program (an empty
program is 1).  A whole kernel call's multiplications are one ``run``: one
tight loop inside this module, so what a mulmod costs is the foreign call
and nothing around it, and a run of squarings long enough goes through one
native modexp by ``2^k`` (three calls however long).  ``z.mul(a, b, out)``
stays for the few sequentially dependent products (power tables, batch
inversion); ``out`` is a handle in the numpy sense — one the chain handed
out earlier and the caller no longer needs, which the result may overwrite
(the reference ring ignores it) — and ``z.one`` is the constant.  Inputs of
``run`` are only read, so one handle may sit in many programs.  Handles die
with their chain (leaving the ``with`` block frees every ``BIGNUM`` it
allocated, the cached ``2^k`` exponents of its squaring runs included) and
never cross a pickle, process, codec or checkpoint boundary: outside a chain a
ciphertext is a plain ``int``.  Operands may be any integers; both rings
reduce them first.

Size rule.  A ``ctypes`` call costs 0.10 - 0.45 us whatever it computes, so
which ring wins is a fixed function of the modulus bit-length.  Measured on
the 2-CPU box this repo is benchmarked on (Python 3.11.7, OpenSSL 3.0.19;
reference -> libcrypto, us per operation) — never timed at run time;
``ring_rule`` in ``benchmarks/micro.py`` re-measures the modexp, mulmod and
squaring-run columns and fails when the rule contradicts them:

    modulus   modexp, half-width    mulmod      load     squaring run of
              exponent              in ``run``  + dump   32            113
    128 bits      14.1 -> 3.4       0.16 -> 0.16  2.0    6.1 -> 1.8   21.3 -> 2.9
    256 bits      49.1 -> 6.7       0.31 -> 0.18  2.1    6.4 -> 2.3   22.6 -> 4.6
    320 bits      74.9 -> 9.6       0.40 -> 0.19  2.1    6.7 -> 2.7   23.6 -> 5.7
    384 bits     116   -> 13.7      0.52 -> 0.19  2.2    6.9 -> 3.1   24.3 -> 6.9
    512 bits     253   -> 19.6      0.90 -> 0.21  2.3    7.2 -> 3.5   25.4 -> 7.9
    1 024 bits  1452   -> 118       2.84 -> 0.37  2.9   11.1 -> 8.7   38.1 -> 23.0
    2 048 bits  9755   -> 787       9.38 -> 0.95  4.5   24.7 -> 28.4  88.2 -> 80.6
    4 096 bits 70103   -> 5937      32.2 -> 3.44 10.0   81.1 -> 107    287 -> 311

(``load + dump`` is libcrypto's, per residue; the reference ring's is 0.1 -
0.3 us.  The squaring-run columns are libcrypto's own two ways: one call
per squaring -> one modexp by ``2^k``.)  The call itself: one that computes
nothing costs 0.15 us with the GIL released around it (``CDLL``) and 0.10 us
with it held (``PyDLL``), and the five pointer arguments of a chain multiply
cost another 0.19 us to convert on every call — so every sub-microsecond
call holds the GIL (only ``BN_mod_exp_mont`` and ``BN_MONT_CTX_set``, the
calls long enough to be worth another thread's while, release it), and the
chain multiply takes its handles *pre-converted*, as the parameter objects
``argtypes`` would otherwise build per call.  That moved a chained 512-bit
mulmod from 0.56 us (one ``mul`` call each) to 0.21 us (inside ``run``) and
the chain crossover with it: a mulmod in ``run`` is native-faster from 192
bits, but importing and exporting a residue costs 2 us, which a blinder's
22 mulmods only pay back between 320 and 384 bits — where
``_CHAIN_MIN_BITS`` stays, re-gated on blinder-shaped programs with their
conversions.

Squaring runs.  A native run saves ``k`` foreign calls and pays three plus
two Montgomery-form conversions and the modexp's own set-up, which grow
with the modulus while the call it saves does not: measured crossovers are
runs of 8, 9, 15 and 48 squarings at 256, 512, 1 024 and 2 048 bits, and at
4 096 bits — where the call is under 5 % of the squaring it makes — a
native run loses at every length up to 256.  ``sqr_run_min(bits)`` is that
staircase (``_SQR_RUN_MIN`` = 8 under 1 024 bits, then 16, 48, never), a
constant of the bit-length like the other two — where a kernel's runs fall
is a property of its term list, never a flag.

One-shot *mulmods* (``mul_many``, two loads and a dump per product) stay on
Python operators at every size: the round trip only breaks even near 2 048
bits, where a mulmod is already under 1 % of the modexp beside it.

Every operation runs in its caller's thread; nothing here starts a thread
or a process.  Multi-core big-int work, if a box ever shows it paying,
belongs here as a thread pool around the GIL-releasing modexp: nothing
would be pickled and the key owner's rings would stay in its process.  On
the box above two threads ran 2 048-bit decrypts at 0.92 - 0.98x of one.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import threading
from ctypes import c_char_p, c_int, c_void_p
from functools import lru_cache
from types import SimpleNamespace
from typing import Iterable, Sequence

__all__ = ["LibcryptoRing", "PythonRing", "backend", "have_gmpy2", "make_ring", "ring_for"]

# The size rule (table above): smallest modulus bit-length at which the
# native ring takes over each kind of work.
_MODEXP_MIN_BITS = 128  # one-shot modexps
_CHAIN_MIN_BITS = 384   # mulmod chains on Montgomery handles
# ... and, inside a native chain, the shortest run of squarings that goes
# through one modexp by 2^k instead of k calls: this many at moduli under
# 1 024 bits, and from each wider size on ``(modulus bits, run)`` — never
# from 4 096 bits.
_SQR_RUN_MIN = 8
_SQR_RUN_MIN_FROM = ((4096, 1 << 30), (2048, 48), (1024, 16))

# An accumulate program: [(handles to multiply in, squarings after), ...].
Program = Sequence[tuple[Sequence, int]]


def sqr_run_min(bits: int) -> int:
    """The shortest squaring run a native chain hands to one modexp, at a
    ``bits``-bit modulus (the measured crossovers of the module docstring)."""
    return next((run for start, run in _SQR_RUN_MIN_FROM if bits >= start), _SQR_RUN_MIN)


def have_gmpy2() -> bool:
    """Whether gmpy2 is importable (reported in benchmark environments;
    no ring uses it)."""
    return importlib.util.find_spec("gmpy2") is not None


class PythonRing:
    """The reference ring: residues as Python integers, operators throughout.

    The ring is its own chain: handles are residues and nothing needs
    freeing.
    """

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("ring modulus must be positive")
        self.modulus = self._m = int(modulus)
        self.one = 1 % self._m

    # -- one-shot operations (int in, int out) -------------------------------

    def pow(self, base: int, e: int) -> int:
        return self.pow_many((base,), e)[0]

    def pow_many(self, bases: Iterable[int], e: int) -> list[int]:
        """``[b ** e mod m]`` for one non-negative exponent."""
        if e < 0:
            raise ValueError("ring exponents are non-negative; invert the base first")
        m = self._m
        return [pow(int(b), e, m) for b in bases]

    def inv(self, a: int) -> int:
        return pow(int(a), -1, self._m)

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

    # -- chain operations (handles are residues) -----------------------------

    def chain(self):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def load(self, values: Iterable[int]) -> list:
        m = self._m
        return [int(v) % m for v in values]

    def dump(self, handles: Iterable) -> list[int]:
        return [int(h) for h in handles]

    def mul(self, a, b, out=None):
        return a * b % self._m

    def run(self, programs: Iterable[Program]) -> list:
        """One fresh handle per program (see the module docstring)."""
        m, one = self._m, self.one
        out = []
        for program in programs:
            acc = one
            for factors, squarings in program:
                for f in factors:
                    acc = acc * f % m
                if squarings:
                    acc = pow(acc, 1 << squarings, m)
            out.append(acc)
        return out


# ---------------------------------------------------------------------------
# libcrypto.

_BN = c_void_p
_SYMBOLS = {
    "OpenSSL_version": (c_char_p, c_int),
    "BN_new": (_BN,),
    "BN_clear_free": (None, _BN),
    "BN_CTX_new": (_BN,),
    "BN_CTX_free": (None, _BN),
    "BN_MONT_CTX_new": (_BN,),
    "BN_MONT_CTX_free": (None, _BN),
    "BN_MONT_CTX_set": (c_int, _BN, _BN, _BN),
    "BN_bin2bn": (_BN, c_char_p, c_int, _BN),
    "BN_dup": (_BN, _BN),
    "BN_bn2binpad": (c_int, _BN, c_char_p, c_int),
    "BN_to_montgomery": (c_int, _BN, _BN, _BN, _BN),
    "BN_from_montgomery": (c_int, _BN, _BN, _BN, _BN),
    "BN_mod_mul_montgomery": (c_int, _BN, _BN, _BN, _BN, _BN),
    "BN_mod_exp_mont": (c_int, _BN, _BN, _BN, _BN, _BN, _BN),
}
# Calls long enough to be worth another thread's while release the GIL; the
# rest (all sub-microsecond below 2 048 bits) hold it: a call that computes
# nothing costs 0.10 us held against 0.15 us released (measured when the
# ring was written), and a thread that lets go of the GIL a thousand times
# per kernel call offers it to every waiting thread as often.
_RELEASES_GIL = {"BN_mod_exp_mont", "BN_MONT_CTX_set"}
# The chain multiply, a program's every step, takes *pre-converted*
# parameters: its binding declares no ``argtypes`` and only ever sees the
# objects ``argtypes`` would build on each call (``_pointer``), built once
# per handle instead — 0.28 against 0.47 us per 512-bit mulmod.  Handles
# are those objects, so nothing but a chain's own handles can reach it.
_PRECONVERTED = {"BN_mod_mul_montgomery"}
_pointer = c_void_p.from_param


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
        released, held = ctypes.CDLL(path), ctypes.PyDLL(path)
        for name, (restype, *argtypes) in _SYMBOLS.items():
            fn = getattr(released if name in _RELEASES_GIL else held, name)
            fn.restype = restype
            if name not in _PRECONVERTED:
                fn.argtypes = argtypes
            setattr(lib, name, fn)
    except OSError as exc:
        return None, f"libcrypto failed to load: {exc}"
    except AttributeError as exc:
        return None, f"libcrypto lacks a required symbol: {exc}"
    # Known answer: every native operation against the reference ring's,
    # 127-bit modulus, a squaring run on each side of the native threshold.
    m, a, e = (1 << 127) - 1, 0xC0FFEE_DEADBEEF_0123456789, 0x5EED_F00D_CAFE
    answers = []
    for ring in (LibcryptoRing(m, lib=lib), PythonRing(m)):
        with ring.chain() as z:
            x, y = z.load((a, m + e))
            looped, native = [([x, y], 3)], [([x], _SQR_RUN_MIN), ([y, y], 0)]
            chained = z.dump((z.mul(x, y), *z.run([looped, native, []]), z.one))
        answers.append((chained, ring.pow_many((a, m - 1), e)))
    if answers[0] != answers[1] or answers[0][0][0] != a * e % m:
        return None, "libcrypto failed the known-answer modexp"
    return lib, lib.OpenSSL_version(0).decode()


class _ThreadCtx:
    """One thread's ``BN_CTX``.  ``ctypes`` drops the GIL around a modexp,
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
        bits = self.modulus.bit_length()
        self._nbytes = (bits + 7) >> 3
        self._sqr_run_min = sqr_run_min(bits)
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

    __slots__ = ("_owned", "_ring", "_lib", "_mul", "_mont", "_ctx", "_fixed", "_buf", "_pow2", "one")

    def __init__(self, ring: LibcryptoRing):
        self._owned: list[int] = []
        # Plain BIGNUMs of the native squaring runs: a scratch residue under
        # key 0, the exponent 2^k under k.  Owned like any other BIGNUM here.
        self._pow2: dict[int, int] = {}
        self._ring = ring  # keeps the BN_MONT_CTX alive as long as the handles
        self._lib = lib = ring._lib
        self._mul, self._mont, self._ctx = lib.BN_mod_mul_montgomery, ring._mont, _bn_ctx(lib)
        self._fixed = _pointer(self._mont), _pointer(self._ctx)  # the multiply's last two
        self._buf = ctypes.create_string_buffer(ring._nbytes)
        self.one = _pointer(ring._one)

    def __enter__(self) -> "_Chain":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        owned, self._owned = self._owned, []
        self._pow2.clear()
        for handle in owned:
            self._lib.BN_clear_free(handle)  # CRT exponents and residues pass through

    __del__ = close

    def __reduce__(self):
        raise TypeError("native handles never cross a process boundary")

    def _bn(self, value: int = 0, into: int | None = None) -> int:
        """A ``BIGNUM`` of this chain holding non-negative ``value`` as is
        (a fresh one, or ``into`` overwritten)."""
        if value:
            raw = value.to_bytes((value.bit_length() + 7) >> 3, "big")
            handle = self._lib.BN_bin2bn(raw, len(raw), into)
        else:
            handle = self._lib.BN_new() if into is None else self._lib.BN_bin2bn(b"", 0, into)
        if not handle:
            raise MemoryError("libcrypto could not allocate a BIGNUM")
        if into is None:
            self._owned.append(handle)
        return handle

    def _int(self, bn: int) -> int:
        if self._lib.BN_bn2binpad(bn, self._buf, len(self._buf)) != len(self._buf):
            raise ArithmeticError("libcrypto returned a residue wider than its modulus")
        return int.from_bytes(self._buf, "big")

    def load(self, values: Iterable[int]) -> list:
        m, to_mont, mont, ctx = self._ring.modulus, self._lib.BN_to_montgomery, self._mont, self._ctx
        out = []
        for value in values:
            bn = self._bn(value if 0 <= value < m else value % m)
            if not to_mont(bn, bn, mont, ctx):
                raise ArithmeticError("BN_to_montgomery failed")
            out.append(_pointer(bn))
        return out

    def dump(self, handles: Iterable) -> list[int]:
        from_mont, mont, ctx, plain = self._lib.BN_from_montgomery, self._mont, self._ctx, self._bn()
        out = []
        for handle in handles:
            if not from_mont(plain, handle, mont, ctx):
                raise ArithmeticError("BN_from_montgomery failed")
            out.append(self._int(plain))
        return out

    def mul(self, a, b, out=None):
        if out is None:
            out = _pointer(self._bn())
        if not self._mul(out, a, b, *self._fixed):
            raise ArithmeticError("BN_mod_mul_montgomery failed")
        return out

    def run(self, programs: Iterable[Program]) -> list:
        """One fresh handle per program (see the module docstring): the
        whole batch in one loop, the foreign function bound to a local."""
        mul, (mont, ctx), dup, one = self._mul, self._fixed, self._lib.BN_dup, self._ring._one
        run_min, native_run, own = self._ring._sqr_run_min, self._sqr_run, self._owned.append
        out = []
        for program in programs:
            bn = dup(one)
            if not bn:
                raise MemoryError("libcrypto could not allocate a BIGNUM")
            own(bn)
            acc = _pointer(bn)
            for factors, squarings in program:
                for f in factors:
                    if not mul(acc, acc, f, mont, ctx):
                        raise ArithmeticError("BN_mod_mul_montgomery failed")
                if squarings >= run_min:
                    native_run(acc, squarings)
                else:
                    for _ in range(squarings):
                        if not mul(acc, acc, acc, mont, ctx):
                            raise ArithmeticError("BN_mod_mul_montgomery failed")
            out.append(acc)
        return out

    def _sqr_run(self, acc, k: int) -> None:
        """``acc <- acc ** (2 ** k)`` in three calls: out of Montgomery form,
        one native modexp by ``2^k`` (``k`` squarings and a handful of
        mulmods, no foreign call between them), back in."""
        lib, mont, ctx, cached = self._lib, self._mont, self._ctx, self._pow2
        plain = cached.get(0) or cached.setdefault(0, self._bn())
        two_k = cached.get(k) or cached.setdefault(k, self._bn(1 << k))
        if not (
            lib.BN_from_montgomery(plain, acc, mont, ctx)
            and lib.BN_mod_exp_mont(plain, plain, two_k, self._ring._mod, ctx, mont)
            and lib.BN_to_montgomery(acc, plain, mont, ctx)
        ):
            raise ArithmeticError("libcrypto failed a native squaring run")


# ---------------------------------------------------------------------------
# Selection.

_LIB: SimpleNamespace | None = None
_DETAIL = "not resolved yet"


def _resolve() -> None:
    """(Re)bind the process to its backend; runs once, at import."""
    global _LIB, _DETAIL
    pure = os.environ.get("REPRO_PURE_PYTHON") == "1"
    _LIB, _DETAIL = (None, "REPRO_PURE_PYTHON=1") if pure else _load()
    ring_for.cache_clear()


def backend() -> tuple[str, str]:
    """``("libcrypto", <OpenSSL version>)`` or ``("python", <why>)``."""
    return ("libcrypto" if _LIB is not None else "python"), _DETAIL


def make_ring(modulus: int) -> PythonRing:
    """A ring the caller owns (and whose death frees its native state).
    Which implementation is the size rule's call, never the caller's."""
    bits = modulus.bit_length()
    if _LIB is None or not modulus & 1 or bits < max(_MODEXP_MIN_BITS, 2):
        return PythonRing(modulus)
    return LibcryptoRing(modulus, chains=bits >= _CHAIN_MIN_BITS)


# Shared rings of the public moduli (n^2): a federation has a handful.
ring_for = lru_cache(maxsize=16)(make_ring)

_resolve()
