"""Shared-squaring exponentiation engine over ``Z_{n^2}``.

Every structured exponentiation of the protocols runs here, written once
against the ring seam of :mod:`repro.crypto.bigint` (``ring_for(n^2)``: a
chain of handles per call, or its one-shot ``pow`` / ``inv_many``).  This
module *plans*; the ring executes.  A plan is a batch of accumulate
programs ``[(handles to multiply in, squarings after), ...]``, one per
output, handed to the chain's ``run`` in one call — so the cost unit on the
native ring is the foreign call, and a long run of squarings is three.
Entry points:

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
One planner serves every term list: ``_recode`` cuts the exponents into
digits — all of them at once when they fit a machine word (the fixed-point
mantissas do), per distinct exponent otherwise (the lane lift's, a digit or
two each) — and ``_plan`` sorts the digits into steps, array-at-a-time, so
the Python work per call is per step, not per mulmod.  Pool workers plan
their own chunk of rows.  Tables live for one call; the fixed-base table
lives with its key.  :func:`mulmods` prices the same plan — in mulmods, or
in foreign calls — for the counted benchmark rows.

Counters stay *logical*: ``pow.mul`` is the number of distinct
``(ciphertext, exponent)`` scalar multiplications with ``|e| >= 2`` — what
the protocol asked for after deduplication — not the mulmods the engine
spent on them, so counted benchmark rows do not depend on the schedule.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from repro.crypto.bigint import ring_for
from repro.crypto.parallel import ParallelContext, get_default_context
from repro.obs import tracer as _obs

__all__ = [
    "FixedBaseTable",
    "batch_invert",
    "fixed_base_chunk",
    "mulmods",
    "multi_pow",
    "pow_each",
    "pow_signed",
    "raw_mul_many",
]

Rows = Sequence[Sequence[tuple[int, int]]]


def _window(bits: int) -> int:
    """Sliding-window width for exponents of at most ``bits`` bits."""
    return next((w for w, cap in enumerate((4, 12, 24, 96), 1) if bits <= cap), 5)


def batch_invert(values: Sequence[int], modulus: int) -> list[int]:
    """Modular inverses of ``values`` for the price of one (Montgomery).

    Raises the ``ValueError`` of a lone ``pow(v, -1, modulus)`` when any
    value shares a factor with ``modulus``.
    """
    return ring_for(modulus).inv_many(values)


def pow_signed(base: int, e: int, modulus: int) -> int:
    """``base ** e`` for a signed exponent (one inversion when ``e < 0``)."""
    if e < 0:
        base, e = ring_for(modulus).inv(base), -e
    return pow_each(modulus, (base,), (e,))[0]


def pow_each(modulus: int, bases: Sequence[int], exponents: Sequence[int]) -> list[int]:
    """``[b ** e]`` over unrelated pairs, exponents non-negative: ``e <= 1``
    costs nothing, the rest one ring batch per distinct exponent."""
    out = [b if e else 1 for b, e in zip(bases, exponents)]
    slots: dict[int, list[int]] = {}
    for i, e in enumerate(exponents):
        if e > 1:
            slots.setdefault(e, []).append(i)
    ring = ring_for(modulus)
    for e, where in slots.items():
        for i, power in zip(where, ring.pow_many([bases[i] for i in where], e)):
            out[i] = power
    return out


def _pow_pairs(modulus: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """:func:`pow_each` over ``(c, e)`` pairs; the pool's chunk kernel."""
    return pow_each(modulus, [c for c, _ in pairs], [e for _, e in pairs])


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


def _recode(exponents: Sequence[int], w: int):
    """Odd sliding-window digits of positive ``exponents`` as three parallel
    arrays, one entry per digit: which exponent, bit position, odd-power
    index.  Array-at-a-time when every exponent fits a machine word (the
    fixed-point mantissas do); per distinct exponent otherwise."""
    if max(exponents, default=0) >> 63:
        cut = {e: _sliding_digits(e, w) for e in set(exponents)}
        digits = [(k, p, i) for k, e in enumerate(exponents) for p, i in cut[e]]
        return np.array(digits, np.int64).reshape(-1, 3).T
    e = np.array(exponents, np.int64)
    which, pos, rounds = np.arange(len(e)), np.zeros(len(e), np.int64), []
    while len(e):
        # The lowest set bit is a power of two, so frexp counts the zeros under it.
        skip = np.frexp((e & -e).astype(np.float64))[1] - 1
        e, pos = e >> skip, pos + skip
        rounds.append((which, pos, (e & ((1 << w) - 1)) >> 1))
        e, pos = e >> w, pos + w
        live = np.flatnonzero(e)
        e, pos, which = e[live], pos[live], which[live]
    return [np.concatenate(column) for column in zip(*rounds)] or [e, e, e]


def _plan(rows: Rows, w: int):
    """The accumulate schedule of positive-exponent ``rows``, flat: one entry
    per digit, sorted by (output, bit position falling) — ``r`` the logical
    row and ``idx`` the odd-power index of the factor to multiply in —
    with ``starts`` cutting the entries into steps (the factors of one bit
    position of one output; ``gaps[s]`` squarings follow step ``s``) and
    ``bounds`` cutting the steps into outputs."""
    which, pos, idx = _recode([e for row in rows for _, e in row], w)
    out = np.repeat(np.arange(len(rows)), [len(row) for row in rows])[which]
    order = np.lexsort((-pos, out))
    out, pos, idx = out[order], pos[order], idx[order]
    r = np.fromiter((r for row in rows for r, _ in row), np.int64)[which][order]
    first = np.ones(len(out), bool)
    first[1:] = (out[1:] != out[:-1]) | (pos[1:] != pos[:-1])
    starts = np.flatnonzero(first)
    out, pos = out[starts], pos[starts]
    below = np.append(np.where(out[1:] == out[:-1], pos[1:], 0), 0)[: len(starts)]
    return r, idx, starts, pos - below, np.searchsorted(out, np.arange(len(rows) + 1))


def mulmods(rows: Rows, native_run: int | None = None) -> int:
    """Mulmods one lane of positive-exponent ``rows`` costs the engine:
    one per digit, one squaring chain per output, one odd-power table per
    base some multi-bit digit touches.  Inversions are left out.

    With ``native_run`` — the native ring's squaring-run threshold at some
    modulus size — the *foreign calls* of the same programs instead: a run
    that long is three calls however long, and every output opens with one.
    """
    w = _window(max((e for row in rows for _, e in row), default=1).bit_length())
    r, idx, _, squarings, _ = _plan(rows, w)
    count = len(r) + (len(set(r[idx > 0].tolist())) << (w - 1))
    if native_run is not None:
        squarings, count = np.where(squarings < native_run, squarings, 3), count + len(rows)
    return count + int(squarings.sum())


def _interleaved(modulus, bases, width: int, w: int, rows: Rows) -> list[int]:
    """Straus evaluation of positive-exponent ``rows``; the pool's chunk kernel.

    Plans, then lets the ring execute: the bases some row uses are imported
    once, every output lane becomes one accumulate program over their
    odd-power tables, and one ``run`` evaluates the whole batch.
    """
    r, idx, starts, gaps, bounds = _plan(rows, w)
    touched, tabled = sorted(set(r.tolist())), set(r[idx > 0].tolist())
    with ring_for(modulus).chain() as z:
        loaded = iter(z.load([bases[t * width + j] for t in touched for j in range(width)]))
        # Each lane's odd-power tables end to end; offset[t] is where row t's starts.
        lanes: list[list] = [[] for _ in range(width)]
        offset = [0] * (max(touched, default=0) + 1)
        for t in touched:
            offset[t] = len(lanes[0])
            for lane in lanes:
                lane += _odd_powers(z, next(loaded), w) if t in tabled else [next(loaded)]
        at = np.array(offset)[r] + idx
        cuts = list(zip(starts.tolist(), [*starts[1:].tolist(), len(r)], gaps.tolist()))
        programs: list = [None] * (len(rows) * width)
        for j, lane in enumerate(lanes):
            factors = np.array(lane, object)[at].tolist()
            steps = [(factors[a:b], gap) for a, b, gap in cuts]
            programs[j::width] = [steps[a:b] for a, b in zip(bounds, bounds[1:])]
        return z.dump(z.run(programs))


def _odd_powers(z, base, w: int) -> list:
    """``[base, base^3, ..., base^(2^w - 1)]`` as handles of chain ``z``."""
    square = z.mul(base, base)
    table = [base]
    for _ in range((1 << (w - 1)) - 1):
        table.append(z.mul(table[-1], square))
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
    w = _window(max((e for row in rows for _, e in row), default=1).bit_length())
    out = _run(
        parallel, public_key, partial(_interleaved, nsq, bases, width, w),
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
        self._w = 4 if bits <= 48 else 5 if bits <= 96 else 6
        # (ring, chain, entries): the entries are handles of a chain that
        # lives and dies with the table, built at first use — so a table
        # that crossed a pickle arrives empty and rebuilds in its new
        # process.  One attribute, so whoever reads the entries holds their
        # chain too.
        self._built: tuple | None = None

    def __reduce__(self):
        return type(self), (self.base, self.modulus, self.bits)

    def _build(self) -> tuple:
        ring = ring_for(self.modulus)
        z = ring.chain()
        (g,) = z.load((self.base,))
        flat = []  # row p's 2**w entries at [p << w, (p + 1) << w)
        for _ in range(-(-self.bits // self._w)):
            row = [z.one, g]
            for _ in range((1 << self._w) - 2):
                row.append(z.mul(row[-1], g))
            flat += row
            g = z.mul(row[-1], g)
        self._built = built = (ring, z, flat)
        return built

    def pow_many(self, exponents: Sequence[int]) -> list[int]:
        """``[base ** x]`` for exponents of at most ``bits`` bits: one
        squaring-free program per exponent — the table entries its digits
        pick."""
        ring, _owner, flat = self._built or self._build()
        if any(x >> self.bits for x in exponents):
            raise ValueError(f"exponent outside the table's {self.bits} bits")
        w, mask = self._w, (1 << self._w) - 1
        picked = [
            [flat[(p << w) + d] for p in range(len(flat) >> w) if (d := x >> p * w & mask)]
            for x in exponents
        ]
        with ring.chain() as z:
            return z.dump(z.run([[(factors, 0)] for factors in picked]))


@lru_cache(maxsize=1)
def _worker_table(base: int, modulus: int, bits: int) -> FixedBaseTable:
    return FixedBaseTable(base, modulus, bits)


def fixed_base_chunk(base: int, modulus: int, bits: int, exponents: Sequence[int]) -> list[int]:
    """The pool's chunk kernel for a fixed-base batch: only ``base`` crosses
    the pipe, and each worker builds the table once and keeps it."""
    return _worker_table(base, modulus, bits).pow_many(exponents)
