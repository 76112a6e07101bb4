"""Exponentiation-engine properties: every structured power is ``pow``.

``multi_pow`` evaluates a term list under shared squarings and shards its
outputs across a worker pool; ``FixedBaseTable`` replaces a pow by table lookups; ``raw_mul_many`` batches
its inversions.  All of them must return exactly the residues of the naive
``prod pow(b, e, n^2)`` — the golden transcripts depend on it.
"""

from __future__ import annotations

import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import modexp
from repro.crypto.paillier import PaillierPublicKey, generate_paillier_keypair
from repro.crypto.parallel import ParallelContext
from repro.obs import Tracer, counter_totals, use_tracer

KEY_BITS = [128, 192, 256]

# Every test here runs once per big-int ring (libcrypto forced onto these
# short keys, then the reference ring alone): same residues either way.
pytestmark = pytest.mark.usefixtures("ring_backend")


@pytest.fixture(scope="module", params=KEY_BITS)
def sized_keypair(request, ring_backend):
    return generate_paillier_keypair(request.param, seed=2000 + request.param)


def _naive(pk, bases, rows, width=1):
    nsq = pk.nsquare
    return [
        math.prod(pow(bases[r * width + j], e, nsq) for r, e in row) % nsq
        for row in rows
        for j in range(width)
    ]


# Exponents that straddle every window boundary of the width table, both
# signs, plus the 0 / +-1 shortcuts.
_EDGES = [0, 1, -1, 2, 15, 16, -17, 4095, 4096, -(2**24), 2**24 + 1, 2**32,
          -(2**33 - 1), 2**96 - 1, 2**96, -(2**97 + 5)]
exponents = st.one_of(
    st.sampled_from(_EDGES),
    st.integers(min_value=-(2**40), max_value=2**40),
)


@st.composite
def term_lists(draw):
    n_rows = draw(st.integers(1, 4))  # logical cipher rows
    width = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, n_rows - 1), exponents), max_size=5
            ),
            max_size=5,
        )
    )
    seeds = draw(
        st.lists(
            st.integers(1, 2**64), min_size=n_rows * width, max_size=n_rows * width
        )
    )
    return rows, width, seeds


@given(term_lists())
@settings(max_examples=60, deadline=None)
def test_multi_pow_is_product_of_pows(keypair, case):
    pk, _ = keypair
    rows, width, seeds = case
    bases = [pk.raw_encrypt(s, obfuscate=False) for s in seeds]
    expected = _naive(pk, bases, rows, width)
    assert modexp.multi_pow(pk, bases, rows, width) == expected


def test_multi_pow_shapes_across_key_sizes(sized_keypair):
    pk, _ = sized_keypair
    bases = [pk.raw_encrypt(7 * i + 3) for i in range(6)]
    shared = [[(2, e)] for e in (5, -5, 2**33, 1, 0)]  # one base, every output
    all_negative = [[(0, -3), (1, -(2**20)), (5, -1)], [(4, -9)]]
    with_empty = [[], [(3, 12345)], []]
    dense = [[(r, (-1) ** r * (2**31 + 7919 * i + r)) for r in range(6)] for i in range(24)]
    for rows in (shared, all_negative, with_empty, [], dense):
        expected = _naive(pk, bases, rows)
        assert modexp.multi_pow(pk, bases, rows) == expected
    assert modexp.multi_pow(pk, bases, with_empty) == [1, pow(bases[3], 12345, pk.nsquare), 1]


def test_multi_pow_lanes_and_bad_width(keypair):
    pk, _ = keypair
    bases = [pk.raw_encrypt(i + 2) for i in range(6)]
    rows = [[(0, 9), (2, -4)], [(1, 2**32)]]
    assert modexp.multi_pow(pk, bases, rows, 2) == _naive(pk, bases, rows, 2)
    with pytest.raises(ValueError, match="whole rows"):
        modexp.multi_pow(pk, bases[:5], rows, 2)


def test_non_invertible_base_raises_like_invert(keypair):
    pk, sk = keypair
    bad = sk.p  # shares a factor with n^2
    with pytest.raises(ValueError) as lone:
        pow(bad, -1, pk.nsquare)
    good = pk.raw_encrypt(5)
    for call in (
        lambda: modexp.multi_pow(pk, [good, bad], [[(0, 3), (1, -2)]]),
        lambda: modexp.raw_mul_many(pk, [(good, 3), (bad, pk.n - 2)]),
        lambda: modexp.pow_signed(bad, -2, pk.nsquare),
        lambda: modexp.batch_invert([good, bad, good], pk.nsquare),
    ):
        with pytest.raises(ValueError) as batched:
            call()
        assert str(batched.value) == str(lone.value)
    # Positive exponents never invert, so a non-unit base is just a number.
    assert modexp.multi_pow(pk, [bad], [[(0, 3)]]) == [pow(bad, 3, pk.nsquare)]


def test_mulmods_counts_the_schedule():
    """One mulmod per digit, one squaring chain per output, one table per base."""
    assert modexp.mulmods([]) == modexp.mulmods([[], []]) == 0
    assert modexp.mulmods([[(0, 1)], [(0, 1), (1, 1)]]) == 3  # no squaring, no table
    # 2**32: one digit at bit 32 per term, 32 squarings per output, no table.
    assert modexp.mulmods([[(t, 2**32) for t in range(3)] for _ in range(4)]) == 4 * (3 + 32)
    # 0b1011 at w=1 (<= 4 bits): digits at bits 0, 1, 3; chain of 3 squarings.
    assert modexp.mulmods([[(0, 0b1011)]]) == 3 + 3
    # 0b10111 at w=2: digits 0b11 @ 0, 0b1 @ 2, 0b1 @ 4 + 4 squarings + a 2-entry table.
    assert modexp.mulmods([[(0, 0b10111)]]) == 3 + 4 + 2
    # Digits come out the same cut one exponent at a time or all at once.
    many = [(0b1011 * 977**k) % 2**63 or 1 for k in range(256)]
    for w in (1, 4, 5):
        at_once = [column.tolist() for column in modexp._recode(many, w)]
        one_by_one = [(k, p, i) for k, e in enumerate(many) for p, i in modexp._sliding_digits(e, w)]
        assert sorted(zip(*at_once)) == one_by_one
    # Exponents past a machine word are cut one by one, to the same digits.
    wide = (0b10111 << 70) | 0b1011
    assert modexp._recode([wide, 5], 4)[1].tolist() == [p for p, _ in modexp._sliding_digits(wide, 4)] + [0]
    assert modexp.mulmods([[(0, wide)], [(1, 5)]]) == (3 + 74 + 8) + (1 + 8)  # 75 bits: w=4


def test_foreign_calls_count_the_programs():
    """Same plan, priced in calls: a long squaring run is three, and every
    output opens with one."""
    assert modexp.mulmods([], 8) == 0
    assert modexp.mulmods([[], [(0, 1)]], 8) == 2 + 1
    # 3 digits; runs of 7 and 8 squarings: 7 calls below the threshold, 3 from it.
    rows = [[(0, (1 << 15) | (1 << 8) | 1)]]
    assert modexp.mulmods(rows) == 3 + 15
    assert modexp.mulmods(rows, 8) == 1 + 3 + 7 + 3
    assert modexp.mulmods(rows, 16) == 1 + 3 + 15
    # The lane lift of pack_rows: all runs, so calls stay far below mulmods.
    horner = [[(j, 1 << (113 * j)) for j in range(18)]]
    assert (modexp.mulmods(horner), modexp.mulmods(horner, 64)) == (18 + 17 * 113, 1 + 18 + 17 * 3)


@given(
    st.lists(
        st.tuples(st.integers(1, 2**64), st.integers(-(2**40), 2**40)), max_size=8
    )
)
@settings(max_examples=40, deadline=None)
def test_raw_mul_many_matches_raw_mul(keypair, pairs):
    pk, _ = keypair
    jobs = [(pk.raw_encrypt(s, obfuscate=False), e % pk.n) for s, e in pairs]
    expected = [pk.raw_mul(c, m) for c, m in jobs]
    assert modexp.raw_mul_many(pk, jobs) == expected
    assert expected == [
        pow(c, e, pk.nsquare) for (c, _), (_, e) in zip(jobs, pairs)
    ]


def test_pow_mul_counter_is_logical(keypair):
    """Distinct |e| >= 2 scalar-mults per lane, not the mulmods spent."""
    pk, _ = keypair
    bases = [pk.raw_encrypt(i + 2) for i in range(4)]
    dense = [[(0, 37), (1, -41)], [(0, 37), (1, 43)]]  # 3 distinct pairs
    binary = [[(0, 2**32)], [(0, 2**32)], [(0, 2**32), (1, 1)]]  # 1 (e=1 is free)
    for rows, expected in ((dense, 3), (binary, 1)):
        trc = Tracer()
        with use_tracer(trc):
            modexp.multi_pow(pk, bases, rows, 2)
        assert counter_totals(trc.to_dicts())["pow.mul"] == 2 * expected


def test_serial_equals_parallel(keypair):
    pk, _ = keypair
    bases = [pk.raw_encrypt(11 * i + 1) for i in range(8)]
    dense = [[(t, (-1) ** t * (2**30 + 977 * i + t)) for t in range(4)] for i in range(6)]
    binary = [[(t % 4, 2**32) for t in range(i, i + 3)] for i in range(6)]
    horner = [[(t % 4, 1 << (113 * j)) for j, t in enumerate(range(i, i + 3))] for i in range(5)]
    pairs = [(b, (5 - 3 * i) % pk.n) for i, b in enumerate(bases)]
    exps = [1, 2**32 - 1, 12345678901234567890 % 2**32]
    table = modexp.FixedBaseTable(bases[0], pk.nsquare, 32)
    with ParallelContext(workers=2, min_jobs=1) as ctx:
        for rows in (dense, binary, horner):  # short runs, 32-bit runs, 113-bit runs
            serial = modexp.multi_pow(pk, bases, rows, 2)
            assert serial == _naive(pk, bases, rows, 2)
            assert modexp.multi_pow(pk, bases, rows, 2, parallel=ctx) == serial
        assert modexp.raw_mul_many(pk, pairs, ctx) == modexp.raw_mul_many(pk, pairs)
        chunk = partial(modexp.fixed_base_chunk, bases[0], pk.nsquare, 32)
        assert ctx.map_chunks(pk, chunk, exps) == table.pow_many(exps)


@given(st.integers(min_value=0))
@settings(max_examples=25, deadline=None)
def test_fixed_base_table_is_pow(sized_keypair, x):
    pk, _ = sized_keypair
    h = pk._ensure_h()
    for bits in (32, 128):
        table = modexp.FixedBaseTable(h, pk.nsquare, bits)
        exps = [1, 2**bits - 1, x % 2**bits]
        assert table.pow_many(exps) == [pow(h, e, pk.nsquare) for e in exps]
        assert table.pow_many([0, *exps] * 3) == [pow(h, e, pk.nsquare) for e in [0, *exps] * 3]
        with pytest.raises(ValueError, match="outside the table"):
            table.pow_many([2**bits])


def test_key_rebuilds_its_table_with_the_blinding_state():
    """λ blinders are ``h^x`` from the table, and the table follows ``h``."""
    pk, _ = generate_paillier_keypair(128, seed=31)
    twin = PaillierPublicKey(pk.n)
    first = pk.blinding_factors(3)
    table = pk._h_table
    assert table is not None and table.base == pk._h and table.bits == pk.blinding_lambda
    assert all(math.gcd(b, pk.n) == 1 for b in first)
    # A restored checkpoint overwrites ``_h`` in place: the stale table must
    # not serve the new base.
    twin._h = pk._h
    twin._rng.setstate(pk._rng.getstate())
    assert twin.blinding_factors(2) == pk.blinding_factors(2)
    pk._h = pow(pk._h, 3, pk.nsquare)
    pk.blinding_factors(1)
    assert pk._h_table is not table and pk._h_table.base == pk._h
    # λ is a constructor argument: a key built with another λ sizes its table
    # to it (there is no setter to flip an existing key).
    narrow = PaillierPublicKey(pk.n, blinding_lambda=32)
    assert narrow._h is None and narrow._h_table is None  # lazy until first use
    narrow.blinding_factors(1)
    assert narrow._h_table.bits == 32
    assert not hasattr(pk, "set_blinding_lambda")
