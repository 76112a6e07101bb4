"""The batch fixed-point codec is the scalar codec, bit for bit.

``encode_flat`` / ``decrypt_flat`` / ``pack_encode_flat`` /
``pack_decrypt_flat`` encode and decode a whole batch per call; what they
must compute is defined one value at a time.  Those scalar definitions
live *here*, as oracles, and the batch functions (and the kernels' term
builders on top of them) are pinned against them over the floats where an
implementation could part from the definition: signed zeros, subnormals,
exact ``.5`` ties, mantissas past a machine word, non-finite values, the
plaintext bound, ragged exponents, mantissas past ``2**1000``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import kernels
from repro.crypto.packing import SlotLayout, _split_lanes, pack_decrypt_flat, pack_encode_flat
from repro.crypto.paillier import generate_paillier_keypair


@pytest.fixture(scope="module")
def keys():
    return generate_paillier_keypair(192, seed=515)


# -- the scalar definitions ---------------------------------------------------


def encode_oracle(max_int, value: float, exponent: int) -> int:
    if not math.isfinite(value):
        raise ValueError(f"cannot encode non-finite value {value!r}")
    try:
        mantissa = int(round(math.ldexp(value, -exponent)))
    except OverflowError:
        raise OverflowError(
            f"scalar {value} at exponent {exponent} exceeds plaintext bound"
        ) from None
    if max_int is not None and abs(mantissa) > max_int:
        raise OverflowError(f"scalar {value} at exponent {exponent} exceeds plaintext bound")
    return mantissa


def decode_oracle(n: int, max_int: int, m: int, e: int, what: str = "encoding") -> float:
    if m <= max_int:
        mantissa = m
    elif m >= n - max_int:
        mantissa = m - n
    else:
        raise OverflowError(
            f"{what} fell in the overflow guard band; increase the key "
            "size or reduce tensor magnitudes"
        )
    while abs(mantissa) > 2**1000:
        mantissa >>= 64
        e += 64
    return math.ldexp(float(mantissa), e)


def natural_exponent_oracle(value: float) -> int:
    return max(math.frexp(value)[1] - 53, -64)  # kernels.MIN_DEFAULT_EXPONENT


def outcome(fn):
    """What ``fn`` returns, or the exception it raises — type and text."""
    try:
        return fn()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


# -- encode ---------------------------------------------------------------------

_TIES = [(k + 0.5) * 2.0**e for e in (-32, -40) for k in (-3, -2, -1, 0, 1, 2, 2**20, 2**30 + 1)]
_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 0.1, 1e-13,
    2.0**30 - 2.0**-22, 2.0**31, -(2.0**31), 2.0**31 - 2.0**-21,  # around 2**63 at 2**-32
    2.0**22 + 0.5 * 2.0**-40, 2.0**23, 1e300, -1e300, 1.7976931348623157e308,
    *_TIES,
]
finite = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-8.0, max_value=8.0),
)
anything = st.one_of(finite, st.sampled_from([math.nan, math.inf, -math.inf]))
exponents = st.sampled_from([kernels.PLAIN_EXPONENT, kernels.TENSOR_EXPONENT, 0, 7, -72, -1074])


@given(st.lists(anything, max_size=12), exponents)
@settings(max_examples=300, deadline=None)
def test_encode_flat_is_the_scalar_encoder(keys, values, exponent):
    pk, _ = keys
    got = outcome(lambda: kernels.encode_flat(pk, np.array(values), exponent))
    want = outcome(lambda: [encode_oracle(pk.max_int, v, exponent) % pk.n for v in values])
    assert got == want


@given(st.lists(st.tuples(anything, exponents), max_size=12))
@settings(max_examples=200, deadline=None)
def test_ragged_exponents_encode_like_the_scalar_encoder(keys, pairs):
    pk, _ = keys
    values = np.array([v for v, _ in pairs])
    each = np.array([e for _, e in pairs], dtype=np.int64)
    for max_int in (pk.max_int, None, 2**40):  # a bound under a machine word too
        got = outcome(lambda: kernels._encode_signed_flat(max_int, values, each))
        assert got == outcome(lambda: [encode_oracle(max_int, v, e) for v, e in pairs])


def test_encode_errors_are_the_scalar_ones_in_scalar_order(keys):
    pk, _ = keys
    huge = 2.0 ** (pk.max_int.bit_length() - 20)  # finite, past max_int at 2**-32
    long = [0.5] * 200
    for values in ([1.0, huge, math.nan], [1.0, math.nan, huge], [math.inf], [2.0**1000],
                   [*long, huge, math.nan], [*long, math.nan, huge]):
        got = outcome(lambda: kernels.encode_flat(pk, np.array(values), -32))
        assert got == outcome(lambda: [encode_oracle(pk.max_int, v, -32) for v in values])
        assert isinstance(got, tuple)
    assert outcome(lambda: kernels.encode_flat(pk, np.array([math.nan]), -32)) == (
        ValueError, "cannot encode non-finite value nan",
    )
    assert outcome(lambda: kernels.encode_flat(pk, np.array([huge]), -32)) == (
        OverflowError, f"scalar {huge} at exponent -32 exceeds plaintext bound",
    )


@given(st.lists(finite, min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_natural_exponents_and_term_rows_follow_the_scalar_rules(keys, values):
    pk, _ = keys
    arr = np.array(values)
    assert kernels._natural_exponents(arr).tolist() == [natural_exponent_oracle(v) for v in values]
    small = np.clip(arr, -(2.0**40), 2.0**40)
    split = len(values) // 2
    index_rows = [range(split), range(100, 100 + len(values) - split)]
    want = [
        [(i, encode_oracle(pk.max_int, v, -32)) for i, v in zip(indices, chunk) if v != 0.0]
        for indices, chunk in zip(index_rows, (small[:split].tolist(), small[split:].tolist()))
    ]
    assert kernels._term_rows(pk, index_rows, small) == want


# -- decode ---------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0, 1, -1, 2**53 + 1, -(2**53) - 1, 2**64 - 1]), st.integers()),
            st.sampled_from([-40, -72, -125, 0, 13]),
        ),
        max_size=10,
    ),
)
@settings(max_examples=100, deadline=None)
def test_decrypt_flat_is_the_scalar_decoder(keys, pairs):
    pk, sk = keys
    raw = [m % pk.n for m, _ in pairs]  # signed mantissas and guard-band residues alike
    each = [e for _, e in pairs]
    cts = [pk.raw_encrypt(m, obfuscate=False) for m in raw]
    want = outcome(lambda: bits(decode_oracle(pk.n, pk.max_int, m, e) for m, e in zip(raw, each)))
    assert outcome(lambda: bits(kernels.decrypt_flat(sk, cts, each))) == want
    uniform = outcome(lambda: bits(decode_oracle(pk.n, pk.max_int, m, -40) for m in raw))
    assert outcome(lambda: bits(kernels.decrypt_flat(sk, cts, -40))) == uniform


@given(
    st.lists(
        st.tuples(
            st.integers(-(2**1100), 2**1100) | st.sampled_from([2**1000, 2**1000 + 1, -(2**1000) - 1]),
            st.sampled_from([-1100, -1030, -64, 0, 20]),
        ),
        max_size=8,
    ),
)
@settings(max_examples=150, deadline=None)
def test_decoding_past_two_to_the_thousand_and_past_float_range(pairs):
    """Mantissas no float holds are pre-shifted exactly as the scalar loop
    shifts them; a result past the float range raises its ``math.ldexp``
    error instead of turning into ``inf``."""
    mantissas, each = [m for m, _ in pairs], [e for _, e in pairs]
    n = 2**1200 + 1
    want = outcome(lambda: bits(decode_oracle(n, 2**1101, m % n, e) for m, e in pairs))
    assert outcome(lambda: bits(kernels._decode_signed_flat(mantissas, each))) == want
    assert outcome(lambda: kernels._decode_signed_flat([2**900], 200)) == (
        OverflowError, "math range error",
    )


def test_guard_band_raises_the_scalar_error(keys):
    pk, sk = keys
    cts = [pk.raw_encrypt(m, obfuscate=False) for m in (5, pk.max_int + 1, pk.n - 5)] * 50
    want = outcome(lambda: decode_oracle(pk.n, pk.max_int, pk.max_int + 1, -40))
    assert outcome(lambda: kernels.decrypt_flat(sk, cts, -40)) == want
    assert want[0] is OverflowError and "guard band" in want[1]
    assert kernels.decrypt_flat(sk, [], -40).shape == (0,)


# -- packed ---------------------------------------------------------------------


def pack_encode_oracle(pk, values, layout, exponent, encode_exponent=None, natural=False):
    out, max_bits = [], 1
    for row in np.atleast_2d(values).tolist():
        for start in range(0, len(row), layout.slots):
            packed = 0
            for j, v in enumerate(row[start : start + layout.slots]):
                ev = natural_exponent_oracle(v) if natural else (
                    exponent if encode_exponent is None else encode_exponent
                )
                m = encode_oracle(None, v, ev) << (ev - exponent)
                if abs(m).bit_length() > layout.lane_cap_bits:
                    raise OverflowError(
                        f"value {v} needs a {abs(m).bit_length()}-bit lane but the layout "
                        f"provides {layout.lane_cap_bits} magnitude bits per "
                        f"{layout.slot_bits}-bit slot"
                    )
                max_bits = max(max_bits, abs(m).bit_length())
                packed += m << (layout.slot_bits * j)
            out.append(packed % pk.n)
    return out, max_bits


def pack_decode_oracle(pk, raw, layout, rows, cols, exponent):
    out = np.empty((rows, cols))
    cpr = layout.ct_count(cols)
    for r in range(rows):
        col = 0
        for m in raw[r * cpr : (r + 1) * cpr]:
            if pk.max_int < m < pk.n - pk.max_int:
                decode_oracle(pk.n, pk.max_int, m, exponent, "packed encoding")  # raises
            packed = m if m <= pk.max_int else m - pk.n
            for lane in _split_lanes(packed, layout, min(layout.slots, cols - col)):
                n = 2 * abs(lane) + 3  # any modulus the lane is a signed residue of
                out[r, col] = decode_oracle(n, abs(lane) + 1, lane % n, exponent)
                col += 1
    return out


def _layout(pk) -> SlotLayout:
    return SlotLayout.design(
        pk, value_frac_bits=53, value_mag_bits=4, plain_mag_bits=1,
        acc_depth=2, mask_scale=8.0, plain_frac_bits=0,
    )


lane_values = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -7.5, 2.0**-41, 1.5 * 2.0**-40, -2.5 * 2.0**-40, 2.0**40, 1e30, math.nan]
    ),
    st.floats(min_value=-8.0, max_value=8.0),
)


@given(
    st.sampled_from([1, 2, 3, 5, 47]).flatmap(
        lambda cols: st.lists(st.lists(lane_values, min_size=cols, max_size=cols), min_size=1, max_size=3)
    ),
    st.sampled_from([(-40, None, False), (-53, -40, False), (-64, None, True)]),  # natural: down to its floor
)
@settings(max_examples=200, deadline=None)
def test_packed_encode_and_decode_are_the_scalar_ones(keys, rows, mode):
    pk, sk = keys
    layout = _layout(pk)
    values = np.array(rows)
    exponent, encode_exponent, natural = mode
    got = outcome(lambda: pack_encode_flat(pk, values, layout, exponent, encode_exponent, natural))
    want = outcome(lambda: pack_encode_oracle(pk, values, layout, exponent, encode_exponent, natural))
    assert got == want
    if isinstance(got, tuple) and isinstance(got[0], type):
        return  # both raised the same error
    residues, _ = got
    cts = [pk.raw_encrypt(p, obfuscate=False) for p in residues]
    decoded = pack_decrypt_flat(sk, cts, layout, *values.shape, exponent)
    assert decoded.shape == values.shape
    want = pack_decode_oracle(pk, residues, layout, *values.shape, exponent)
    assert bits(decoded.ravel()) == bits(want.ravel())


def test_packed_decode_keeps_its_checks(keys):
    pk, sk = keys
    layout = _layout(pk)
    with pytest.raises(ValueError, match="does not match the packed shape"):
        pack_decrypt_flat(sk, [1], layout, 2, layout.slots, -40)
    guard = pk.raw_encrypt(pk.max_int + 1, obfuscate=False)
    with pytest.raises(OverflowError, match="packed encoding fell in the overflow guard band"):
        pack_decrypt_flat(sk, [guard], layout, 1, 1, -40)
    dirty = pk.raw_encrypt(1 << (layout.slot_bits * layout.slots + 3), obfuscate=False)
    with pytest.raises(OverflowError, match="borrow chain"):
        pack_decrypt_flat(sk, [dirty], layout, 1, layout.slots, -40)
    empty = pack_encode_flat(pk, np.empty((2, 0)), layout, -40)
    assert empty == ([], 1)
