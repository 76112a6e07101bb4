"""Decrypt-engine equivalence: parallel CRT decryption must be bit-identical
to serial on every path, and the λ-exponent blinding pool must produce valid
re-randomisations, across key sizes.

The private worker tier receives the key owner's CRT constants through the
pool initializer and mirrors ``raw_decrypt`` exactly, so every assertion
here is bit-level (``np.array_equal`` on decoded floats, ``==`` on raw
residues) — never ``allclose``.  The custody properties themselves (private
keys are unpicklable, the codec refuses them) live in
``tests/test_security_properties.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.crypto import kernels
from repro.crypto.crypto_tensor import CryptoTensor, TENSOR_EXPONENT
from repro.crypto.packing import PackedCryptoTensor, protocol_layout
from repro.crypto.paillier import PaillierPublicKey, generate_paillier_keypair
from repro.crypto.parallel import ParallelContext, use_parallel

KEY_BITS = [128, 192, 256]

# Every test here runs once per big-int ring (libcrypto forced onto these
# short keys, then the reference ring alone): same residues either way.
pytestmark = pytest.mark.usefixtures("ring_backend")


@pytest.fixture(scope="module", params=KEY_BITS)
def sized_keypair(request, ring_backend):
    return generate_paillier_keypair(request.param, seed=2000 + request.param)


@pytest.fixture(scope="module")
def parallel_ctx(ring_backend):
    """A 2-worker context with the dispatch gate forced open."""
    with ParallelContext(workers=2, min_jobs=1) as ctx:
        yield ctx


# ---------------------------------------------------------------------------
# Serial vs parallel CRT decryption.


def test_crt_decrypt_many_matches_raw_decrypt(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(0)
    cts = kernels.encrypt_flat(pk, rng.normal(size=40), TENSOR_EXPONENT)
    batched = kernels.crt_decrypt_many(sk, cts)
    assert batched == [sk.raw_decrypt(c) for c in cts]


def test_decrypt_flat_parallel_bit_identical(sized_keypair, parallel_ctx):
    pk, sk = sized_keypair
    rng = np.random.default_rng(1)
    values = rng.normal(size=(6, 7))
    cts = kernels.encrypt_flat(pk, values.ravel(), TENSOR_EXPONENT)
    serial = kernels.decrypt_flat(sk, cts, TENSOR_EXPONENT)
    parallel = kernels.decrypt_flat(sk, cts, TENSOR_EXPONENT, parallel_ctx)
    assert np.array_equal(serial, parallel)
    np.testing.assert_allclose(serial, values.ravel(), atol=2.0**TENSOR_EXPONENT)


def test_decrypt_flat_parallel_ragged_exponents(sized_keypair, parallel_ctx):
    """Per-element exponents (post mul-by-one tensors) shard identically."""
    pk, sk = sized_keypair
    rng = np.random.default_rng(2)
    values = rng.normal(size=12)
    exps = [TENSOR_EXPONENT - (i % 3) * 8 for i in range(12)]
    cts = [
        kernels.encrypt_flat(pk, np.array([v]), e)[0] for v, e in zip(values, exps)
    ]
    serial = kernels.decrypt_flat(sk, cts, exps)
    parallel = kernels.decrypt_flat(sk, cts, exps, parallel_ctx)
    assert np.array_equal(serial, parallel)


def test_tensor_decrypt_uses_default_context(sized_keypair, parallel_ctx):
    """``CryptoTensor.decrypt`` resolves the installed process default."""
    pk, sk = sized_keypair
    rng = np.random.default_rng(3)
    values = rng.normal(size=(4, 5))
    tensor = CryptoTensor.encrypt(pk, values, obfuscate=True)
    serial = tensor.decrypt(sk)
    with use_parallel(ParallelContext(workers=2, min_jobs=1)):
        via_default = tensor.decrypt(sk)
    assert np.array_equal(serial, via_default)


def test_packed_decrypt_parallel_bit_identical(sized_keypair, parallel_ctx):
    """Packed borrow-split decode after a parallel CRT pass is bit-equal."""
    pk, sk = sized_keypair
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=16)
    if layout is None:
        pytest.skip("key too small for two slots")
    rng = np.random.default_rng(4)
    values = rng.normal(size=(5, 6))
    packed = PackedCryptoTensor.encrypt(pk, values, layout, obfuscate=True)
    serial = packed.decrypt(sk)
    parallel = packed.decrypt(sk, parallel=parallel_ctx)
    assert np.array_equal(serial, parallel)
    # And the packed decode agrees bit-for-bit with the per-element path.
    unpacked = CryptoTensor.encrypt(pk, values, obfuscate=False).decrypt(sk)
    assert np.array_equal(serial, unpacked)


def test_unpack_batches_the_decrypt_loop(sized_keypair, parallel_ctx):
    """``unpack`` (the per-ciphertext raw_decrypt fallback) now routes
    through ``crt_decrypt_many`` — serial and parallel must round-trip to
    the identical per-element tensor."""
    pk, sk = sized_keypair
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=16)
    if layout is None:
        pytest.skip("key too small for two slots")
    rng = np.random.default_rng(5)
    values = rng.normal(size=(3, 5))
    tensor = CryptoTensor.encrypt(pk, values, obfuscate=False)
    packed = tensor.pack(layout)
    serial = packed.unpack(sk)
    parallel = packed.unpack(sk, parallel=parallel_ctx)
    assert np.array_equal(serial.residues, parallel.residues)
    assert np.array_equal(serial.exponents, parallel.exponents)
    assert np.array_equal(serial.decrypt(sk), tensor.decrypt(sk))


@pytest.mark.bigkey
def test_decrypt_parallel_bit_identical_production_key():
    """The 2048-bit acceptance case (opt in with ``pytest -m bigkey``)."""
    pk, sk = generate_paillier_keypair(2048, seed=4048)
    rng = np.random.default_rng(6)
    values = rng.normal(size=16)
    cts = kernels.encrypt_flat(pk, values, TENSOR_EXPONENT)
    with ParallelContext(workers=2, min_jobs=1) as ctx:
        assert np.array_equal(
            kernels.decrypt_flat(sk, cts, TENSOR_EXPONENT),
            kernels.decrypt_flat(sk, cts, TENSOR_EXPONENT, ctx),
        )
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=4096)
    packed = PackedCryptoTensor.encrypt(
        pk, values.reshape(2, 8), layout, obfuscate=True
    )
    with ParallelContext(workers=2, min_jobs=1) as ctx:
        assert np.array_equal(packed.decrypt(sk), packed.decrypt(sk, parallel=ctx))


# ---------------------------------------------------------------------------
# λ-exponent blinding pool.


def test_lambda_pool_ciphertexts_decrypt_identically(sized_keypair):
    """Pool-drawn λ blinders re-randomise without changing any decode."""
    pk, sk = sized_keypair
    assert pk.blinding_lambda > 0  # the new default
    rng = np.random.default_rng(7)
    values = rng.normal(size=(4, 4))
    pk.prefill_blinding(values.size)
    blinded = CryptoTensor.encrypt(pk, values, obfuscate=True)
    nude = CryptoTensor.encrypt(pk, values, obfuscate=False)
    assert np.array_equal(blinded.decrypt(sk), nude.decrypt(sk))
    # Re-randomised: every ciphertext differs from its unobfuscated twin.
    assert (blinded.residues != nude.residues).all()


def test_lambda_pool_stream_same_pooled_or_on_demand():
    """A seeded key draws the identical blinder stream either way."""
    n = generate_paillier_keypair(128, seed=77)[0].n
    pooled = PaillierPublicKey(n, rng=random.Random(5), blinding_lambda=128)
    pooled.prefill_blinding(6)
    on_demand = PaillierPublicKey(n, rng=random.Random(5), blinding_lambda=128)
    assert [pooled._random_blinding() for _ in range(6)] == [
        on_demand._random_blinding() for _ in range(6)
    ]


def test_lambda_blinders_are_nth_powers(sized_keypair):
    """Every λ blinder is a valid obfuscation factor: Enc(0)*b decrypts to 0."""
    pk, sk = sized_keypair
    for b in pk.blinding_factors(8):
        assert sk.raw_decrypt(b) == 0


def test_classic_mode_still_available(sized_keypair):
    """``blinding_lambda=0`` restores the fresh-r^n-per-blinder behaviour."""
    pk, sk = sized_keypair
    classic = PaillierPublicKey(pk.n, rng=random.Random(9), blinding_lambda=0)
    for b in classic.blinding_factors(4):
        assert sk.raw_decrypt(b) == 0
    assert classic.blinding_bitwork(10) == 10 * pk.key_bits
    fast = PaillierPublicKey(pk.n, rng=random.Random(9), blinding_lambda=32)
    assert fast.blinding_bitwork(10) == 10 * 32 + pk.key_bits  # one-time h
    fast._ensure_h()
    assert fast.blinding_bitwork(10) == 10 * 32  # h amortised away


@pytest.mark.parametrize("blinding_lambda", [0, 64])
def test_blinding_mode_is_a_constructor_choice(sized_keypair, blinding_lambda):
    """λ = 0 (classic) and λ = 64 keys, built that way: pooled and on-demand
    blinders are all valid encryption-of-zero factors, and a negative λ is
    rejected at construction — the only place the mode can be chosen."""
    pk, sk = sized_keypair
    key = PaillierPublicKey(
        pk.n, rng=random.Random(11), blinding_lambda=blinding_lambda
    )
    key.prefill_blinding(2)
    for b in key.blinding_factors(5):  # 2 pooled, then 3 computed on demand
        assert sk.raw_decrypt(b) == 0
    assert key.blinding_lambda == blinding_lambda
    with pytest.raises(ValueError):
        PaillierPublicKey(pk.n, blinding_lambda=-1)


def test_parallel_lambda_refill_bit_identical(sized_keypair, parallel_ctx):
    """Pool refills shard across workers without changing the stream."""
    pk, _ = sized_keypair
    serial_key = PaillierPublicKey(pk.n, rng=random.Random(13), blinding_lambda=64)
    parallel_key = PaillierPublicKey(pk.n, rng=random.Random(13), blinding_lambda=64)
    serial = serial_key._compute_blinders(8, None)
    parallel = parallel_key._compute_blinders(8, parallel_ctx)
    assert serial == parallel
