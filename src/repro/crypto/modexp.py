"""Shared-squaring exponentiation engine over ``Z_{n^2}``.

Every structured exponentiation of the protocols runs here, and this is the
only module that consults the big-int dispatch (``to_mpz`` / ``powmod`` /
``invert`` of :mod:`repro.crypto.math_utils`) on their behalf:

* :func:`multi_pow` — a batch of products ``prod_t base_t ** e_t`` over
  signed exponents: every matmul orientation, the packed matmuls and the
  lane-lifting ``pack_rows_flat`` are term builders over it;
* :class:`FixedBaseTable` — ``base ** x`` for one long-lived base (the
  λ-blinding base ``h = r0^n``) in ``bits / w`` mulmods and no squarings;
* :func:`raw_mul_many` / :func:`pow_signed` — unrelated ``c ** m`` pairs
  (elementwise and packed scalar multiplies), negatives removed with one
  Montgomery batch inversion per call.

Term-list contract (:func:`multi_pow`)
--------------------------------------
``rows[i]`` lists the ``(r, e)`` terms of logical output ``i``; with
``width`` ciphertext lanes per logical row,

    out[i * width + j]  =  prod_{(r, e) in rows[i]}  bases[r * width + j] ** e

so one term list serves every lane of a ``plain @ cipher`` product.
Exponents are *signed* integers; a base some term uses negatively is
inverted up front — one batch inversion per call, whatever the number of
negative terms — and the term re-pointed at the inverse, so both
evaluation below only ever sees positive exponents.

Evaluation order
----------------
Interleaved (Straus): per output one squaring chain shared by all of its
terms, exponents cut into odd sliding-window digits, one small odd-power
table per base shared by every output that touches it.  The window width
is a constant of the largest exponent's bit-length; there is no flag.
Tables live for one call; the fixed-base table lives with its key.
:func:`mulmods` counts what a term list costs, for the counted benchmark
row.

Counters stay *logical*: ``pow.mul`` is the number of distinct
``(ciphertext, exponent)`` scalar multiplications with ``|e| >= 2`` — what
the protocol asked for after deduplication — not the mulmods the engine
spent on them, so counted benchmark rows do not depend on the schedule.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import accumulate
from typing import Sequence

from repro.crypto.math_utils import invert, powmod, to_mpz
from repro.crypto.parallel import ParallelContext, get_default_context
from repro.obs import tracer as _obs

__all__ = [
    "FixedBaseTable",
    "batch_invert",
    "fixed_base_chunk",
    "mulmods",
    "multi_pow",
    "pow_signed",
    "raw_mul_many",
]

Rows = Sequence[Sequence[tuple[int, int]]]


def _window(bits: int) -> int:
    """Sliding-window width for exponents of at most ``bits`` bits."""
    return next((w for w, cap in enumerate((4, 12, 24, 96), 1) if bits <= cap), 5)


def batch_invert(values: Sequence[int], modulus: int) -> list[int]:
    """Modular inverses of ``values`` for the price of one (Montgomery).

    Raises the same ``ValueError`` as a lone :func:`invert` when any value
    shares a factor with ``modulus``.
    """
    prefix = list(accumulate(values, lambda acc, v: acc * v % modulus, initial=1))
    inv = invert(prefix.pop(), modulus)  # of the product of all values
    out = []
    for v, before in zip(reversed(values), reversed(prefix)):
        out.append(inv * before % modulus)
        inv = inv * v % modulus
    return out[::-1]


def pow_signed(base: int, e: int, modulus: int) -> int:
    """``base ** e`` for a signed exponent (one inversion when ``e < 0``)."""
    if e < 0:
        base, e = invert(base, modulus), -e
    if e == 0:
        return 1
    if e == 1:
        return base
    return powmod(base, e, modulus)


def _pow_pairs(modulus: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """``[c ** e]`` for non-negative exponents; the pool's chunk kernel."""
    return [pow_signed(c, e, modulus) for c, e in pairs]


def _run(parallel: ParallelContext | None, public_key, fn, items: Sequence, n_jobs: int):
    """``fn(items)``, sharded across the public worker tier past the gate
    of ``parallel`` (or of the process default context)."""
    ctx = parallel if parallel is not None else get_default_context()
    if ctx is not None and ctx.should_parallelize(n_jobs):
        return ctx.map_chunks(public_key, fn, items)
    return fn(items)


def _count_pow_mul(pows: int) -> None:
    if pows:
        trc = _obs.get_tracer()
        if trc is not None:
            trc.add("pow.mul", pows)


def raw_mul_many(
    public_key,
    pairs: Sequence[tuple[int, int]],
    parallel: ParallelContext | None = None,
) -> list[int]:
    """``c^m mod n^2`` for every ``(ciphertext, mantissa residue)`` pair.

    Residues in the top half of the ring are negative plaintexts: their
    ciphertexts are inverted (all of them in one batch inversion) so the
    exponents stay mantissa-sized, the ``phe`` trick.  Dispatches to the
    parallel context when one is active and the batch clears its gate.
    """
    n, nsq = public_key.n, public_key.nsquare
    half = n // 2
    jobs = list(pairs)
    negative = [i for i, (_, m) in enumerate(jobs) if m >= half]
    if negative:
        inverses = batch_invert([jobs[i][0] for i in negative], nsq)
        for i, c in zip(negative, inverses):
            jobs[i] = (c, n - jobs[i][1])
    out = _run(parallel, public_key, partial(_pow_pairs, nsq), jobs, len(jobs))
    _count_pow_mul(sum(1 for _, e in jobs if e > 1))
    return out


# ---------------------------------------------------------------------------
# Multi-exponentiation.


def _sliding_digits(e: int, w: int) -> list[tuple[int, int]]:
    """``e = sum d * 2**p`` with odd ``d < 2**w``: ``[(p, d >> 1)]``, low first."""
    mask = (1 << w) - 1
    out = []
    p = 0
    while e:
        skip = (e & -e).bit_length() - 1
        e >>= skip
        p += skip
        out.append((p, (e & mask) >> 1))
        e >>= w
        p += w
    return out


def _positive_terms(modulus: int, bases: Sequence[int], rows: Rows, width: int):
    """Drop zero exponents; re-point negative terms at inverted bases."""
    negative = sorted({r for row in rows for r, e in row if e < 0})
    inverse_of = {r: len(bases) // width + i for i, r in enumerate(negative)}
    if negative:
        lanes = [bases[r * width + j] for r in negative for j in range(width)]
        bases = [*bases, *batch_invert(lanes, modulus)]
    return bases, [
        [(r, e) if e > 0 else (inverse_of[r], -e) for r, e in row if e]
        for row in rows
    ]


def _digits(rows: Rows) -> tuple[int, dict[int, list[tuple[int, int]]]]:
    """The window width of positive-exponent ``rows`` (from the largest
    exponent) and every distinct exponent's decomposition under it."""
    exponents = {e for row in rows for _, e in row}
    w = _window(max(exponents, default=1).bit_length())
    return w, {e: _sliding_digits(e, w) for e in exponents}


def mulmods(rows: Rows) -> int:
    """Mulmods one lane of positive-exponent ``rows`` costs the engine:
    one per digit, one squaring chain per output, one odd-power table per
    base some multi-bit digit touches.  Inversions are left out."""
    w, digits = _digits(rows)
    count = sum(len(digits[e]) for row in rows for _, e in row)
    count += sum(max((digits[e][-1][0] for _, e in row), default=0) for row in rows)
    tabled = {r for row in rows for r, e in row if any(i for _, i in digits[e])}
    return count + (len(tabled) << (w - 1))


def _interleaved(modulus, bases, width: int, w: int, digits: dict, rows: Rows) -> list[int]:
    """Straus evaluation of positive-exponent ``rows``; the pool's chunk kernel."""
    modulus = to_mpz(modulus)
    bases = [to_mpz(b) for b in bases]
    tables: dict[int, list[int]] = {}
    out: list[int] = []
    for row in rows:
        # Bit position -> [(first lane's base index, odd-power index)].
        schedule: dict[int, list[tuple[int, int]]] = {}
        for r, e in row:
            at = r * width
            for p, i in digits[e]:
                schedule.setdefault(p, []).append((at, i))
        order = sorted(schedule, reverse=True)
        for j in range(width):
            acc = 1
            prev = order[0] if order else 0
            for p in order:
                if p != prev:
                    acc = pow(acc, 1 << (prev - p), modulus)
                    prev = p
                for at, i in schedule[p]:
                    if i:
                        table = tables.get(at + j)
                        if table is None:
                            table = tables[at + j] = _odd_powers(bases[at + j], w, modulus)
                        acc = acc * table[i] % modulus
                    else:
                        acc = acc * bases[at + j] % modulus
            if prev:
                acc = pow(acc, 1 << prev, modulus)
            out.append(int(acc))
    return out


def _odd_powers(base: int, w: int, modulus: int) -> list[int]:
    """``[base, base^3, ..., base^(2^w - 1)]``."""
    square = base * base % modulus
    table = [base]
    for _ in range((1 << (w - 1)) - 1):
        table.append(table[-1] * square % modulus)
    return table


def multi_pow(
    public_key,
    bases: Sequence[int],
    rows: Rows,
    width: int = 1,
    parallel: ParallelContext | None = None,
) -> list[int]:
    """``len(rows) * width`` products of powers mod ``n^2`` (see the module
    docstring for the term-list contract)."""
    if len(bases) % width:
        raise ValueError("bases must hold whole rows of `width` lanes")
    nsq = public_key.nsquare
    bases, rows = _positive_terms(nsq, bases, rows, width)
    w, digits = _digits(rows)
    out = _run(
        parallel, public_key, partial(_interleaved, nsq, bases, width, w, digits),
        rows, width * sum(map(len, rows)),
    )
    _count_pow_mul(width * len({t for row in rows for t in row if t[1] > 1}))
    return out


# ---------------------------------------------------------------------------
# Fixed-base exponentiation.


class FixedBaseTable:
    """Windowed powers of one base: ``base ** x`` without a single squaring.

    Row ``p`` holds ``base ** (d * 2**(w*p))`` for every ``w``-bit digit
    ``d``, so an exponent of up to ``bits`` bits costs at most
    ``ceil(bits / w)`` mulmods.  Building the table is ``2**w - 1`` mulmods
    per row — about nine plain exponentiations at λ = 128 — which the
    blinding refills of a key amortise within their first batch.
    """

    def __init__(self, base: int, modulus: int, bits: int):
        self.base = base
        self.modulus = modulus
        self.bits = bits
        self._w = w = 4 if bits <= 48 else 5 if bits <= 96 else 6
        m = to_mpz(modulus)
        g = to_mpz(base)
        self._rows = rows = []
        for _ in range(-(-bits // w)):
            row = [1, g]
            for _ in range((1 << w) - 2):
                row.append(row[-1] * g % m)
            rows.append(row)
            g = row[-1] * g % m

    def pow_many(self, exponents: Sequence[int]) -> list[int]:
        """``[base ** x]`` for exponents of at most ``bits`` bits."""
        w, rows, m = self._w, self._rows, self.modulus
        mask = (1 << w) - 1
        top = 1 << self.bits
        out = []
        for x in exponents:
            if not 0 <= x < top:
                raise ValueError(f"exponent outside the table's {self.bits} bits")
            acc = 1
            for row in rows:
                d = x & mask
                if d:
                    acc = acc * row[d] % m
                x >>= w
            out.append(int(acc))
        return out


@lru_cache(maxsize=1)
def _worker_table(base: int, modulus: int, bits: int) -> FixedBaseTable:
    return FixedBaseTable(base, modulus, bits)


def fixed_base_chunk(base: int, modulus: int, bits: int, exponents: Sequence[int]) -> list[int]:
    """The pool's chunk kernel for a fixed-base batch: only ``base`` crosses
    the pipe, and each worker builds the table once and keeps it."""
    return _worker_table(base, modulus, bits).pow_many(exponents)
