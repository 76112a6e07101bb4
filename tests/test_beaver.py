"""Tests for the Z_2^64 fixed-point sharing and Beaver-triple matmul."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.beaver import (
    _truncate_share,
    ClientAidedDealer,
    PaillierTripleGenerator,
    beaver_matmul,
    decode_ring,
    encode_ring,
    reconstruct_ring,
    share_ring,
)
from repro.crypto.paillier import generate_paillier_keypair


def test_ring_encode_decode_roundtrip(rng):
    x = rng.normal(size=(5, 4)) * 100
    np.testing.assert_allclose(decode_ring(encode_ring(x)), x, atol=1e-5)


def test_ring_encode_negative_values():
    x = np.array([-1.5, -1e6, 0.0, 1e6])
    np.testing.assert_allclose(decode_ring(encode_ring(x)), x, atol=1e-5)


def test_ring_encode_overflow_guard():
    with pytest.raises(OverflowError):
        encode_ring(np.array([1e13]))


@given(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
@settings(max_examples=50)
def test_ring_roundtrip_property(x):
    assert decode_ring(encode_ring(np.array([x])))[0] == pytest.approx(x, abs=1e-5)


def test_share_ring_reconstructs(rng):
    x = encode_ring(rng.normal(size=(3, 3)) * 10)
    p0, p1 = share_ring(x, rng)
    np.testing.assert_array_equal(reconstruct_ring(p0, p1), x)


def test_share_ring_pieces_are_uniformish(rng):
    x = encode_ring(np.ones((10000,)))
    p0, _ = share_ring(x, rng)
    # Top bit of a uniform share should be ~50/50.
    top = (p0 >> np.uint64(63)).astype(float).mean()
    assert 0.45 < top < 0.55


def test_truncation_restores_scale(rng):
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    prod = encode_ring(a) * encode_ring(b)  # scale 2^40
    s0, s1 = share_ring(prod, rng)
    t0 = _truncate_share(s0, server=0)
    t1 = _truncate_share(s1, server=1)
    np.testing.assert_allclose(
        decode_ring(reconstruct_ring(t0, t1)), a * b, atol=1e-4
    )


def test_truncate_rejects_bad_server(rng):
    with pytest.raises(ValueError):
        _truncate_share(np.zeros(2, dtype=np.uint64), server=2)


def test_client_aided_matmul(rng):
    x = rng.normal(size=(6, 5))
    w = rng.normal(size=(5, 3))
    dealer = ClientAidedDealer(rng)
    triple = dealer.deal(6, 5, 3)
    x_sh = share_ring(encode_ring(x), rng)
    w_sh = share_ring(encode_ring(w), rng)
    z0, z1 = beaver_matmul(x_sh, w_sh, triple)
    np.testing.assert_allclose(
        decode_ring(reconstruct_ring(z0, z1)), x @ w, atol=1e-3
    )


def test_beaver_matmul_shape_check(rng):
    dealer = ClientAidedDealer(rng)
    triple = dealer.deal(2, 3, 1)
    x_sh = share_ring(encode_ring(rng.normal(size=(4, 3))), rng)
    w_sh = share_ring(encode_ring(rng.normal(size=(3, 1))), rng)
    with pytest.raises(ValueError):
        beaver_matmul(x_sh, w_sh, triple)


def test_paillier_triple_generation(rng):
    """The crypto offline phase produces valid triples (small shapes only)."""
    pk0, sk0 = generate_paillier_keypair(192, seed=1)
    pk1, sk1 = generate_paillier_keypair(192, seed=2)
    gen = PaillierTripleGenerator(rng, pk0, sk0, pk1, sk1)
    triple = gen.deal(2, 3, 2)
    a = reconstruct_ring(*triple.a)
    b = reconstruct_ring(*triple.b)
    c = reconstruct_ring(*triple.c)
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(c, a @ b)


def test_paillier_triple_rejects_small_keys(rng):
    pk0, sk0 = generate_paillier_keypair(128, seed=1)
    pk1, sk1 = generate_paillier_keypair(128, seed=2)
    with pytest.raises(ValueError):
        PaillierTripleGenerator(rng, pk0, sk0, pk1, sk1)


def test_paillier_triple_matmul_end_to_end(rng):
    pk0, sk0 = generate_paillier_keypair(192, seed=3)
    pk1, sk1 = generate_paillier_keypair(192, seed=4)
    gen = PaillierTripleGenerator(rng, pk0, sk0, pk1, sk1)
    x = rng.normal(size=(2, 3))
    w = rng.normal(size=(3, 2))
    triple = gen.deal(2, 3, 2)
    z0, z1 = beaver_matmul(
        share_ring(encode_ring(x), rng), share_ring(encode_ring(w), rng), triple
    )
    np.testing.assert_allclose(
        decode_ring(reconstruct_ring(z0, z1)), x @ w, atol=1e-3
    )


def test_unit_cost_estimate_monotone():
    small = PaillierTripleGenerator.unit_cost_ops(2, 4, 1)
    large = PaillierTripleGenerator.unit_cost_ops(2, 400, 1)
    assert large > small * 50
