"""Decrypt-engine equivalence: batched decryption must match scalar
decryption on every path, one-prime decryption must return CRT's residue (or
fall back to it) and count the pows it ran, and λ-exponent blinders must
be valid re-randomisations, across key sizes.

The assertions on residues and decoded floats are bit-level (``==`` on raw
residues, ``np.array_equal`` on decoded floats).  The custody properties
themselves (private keys are unpicklable, the codec refuses them) live in
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
from repro.obs import Tracer, counter_totals, use_tracer

KEY_BITS = [128, 192, 256]
# Keys with a one-prime band (the 2048-bit one opt-in with -m bigkey).
BANDED_KEY_BITS = [512, 1024, pytest.param(2048, marks=pytest.mark.bigkey)]

# Every test here runs once per big-int ring (libcrypto forced onto these
# short keys, then the reference ring alone): same residues either way.
pytestmark = pytest.mark.usefixtures("ring_backend")


@pytest.fixture(scope="module", params=KEY_BITS)
def sized_keypair(request, ring_backend):
    return generate_paillier_keypair(request.param, seed=2000 + request.param)


# ---------------------------------------------------------------------------
# Batched CRT decryption.


def test_crt_decrypt_many_matches_raw_decrypt(sized_keypair):
    """A CRT batch returns the scalar residues, and ``decrypt_flat`` on the
    same batch decodes to the encrypted floats."""
    pk, sk = sized_keypair
    rng = np.random.default_rng(0)
    values = rng.normal(size=40)
    cts = kernels.encrypt_flat(pk, values, TENSOR_EXPONENT)
    batched = sk.raw_decrypt_many(cts, one_prime=False)
    assert batched == [sk.raw_decrypt(c) for c in cts]
    decoded = kernels.decrypt_flat(sk, cts, TENSOR_EXPONENT)
    encoded = np.ldexp(np.rint(np.ldexp(values, -TENSOR_EXPONENT)), TENSOR_EXPONENT)
    np.testing.assert_array_equal(decoded, encoded)


def test_unpack_batches_the_decrypt_loop(sized_keypair):
    """``unpack`` decrypts through one ``raw_decrypt_many`` batch and
    round-trips to a per-element tensor that decodes like the original;
    a packed encryption decodes bit-for-bit like the per-element one."""
    pk, sk = sized_keypair
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=16)
    if layout is None:
        pytest.skip("key too small for two slots")
    rng = np.random.default_rng(5)
    values = rng.normal(size=(3, 5))
    tensor = CryptoTensor.encrypt(pk, values, obfuscate=False)
    packed = tensor.pack(layout)
    assert np.array_equal(packed.unpack(sk).decrypt(sk), tensor.decrypt(sk))
    direct = PackedCryptoTensor.encrypt(pk, values, layout, obfuscate=True)
    assert np.array_equal(direct.decrypt(sk), tensor.decrypt(sk))


# ---------------------------------------------------------------------------
# One-prime decryption: every residue is CRT's, every pow is counted.


@pytest.fixture(scope="module", params=BANDED_KEY_BITS)
def banded_keypair(request, ring_backend):
    return generate_paillier_keypair(request.param, seed=3000 + request.param)


def _counted(fn) -> tuple[object, int, int]:
    """``(result, pow.crt, ct.decrypted)`` of one call of ``fn``."""
    trc = Tracer()
    with use_tracer(trc):
        out = fn()
    totals = counter_totals(trc.to_dicts())
    return out, totals.get("pow.crt", 0), totals.get("ct.decrypted", 0)


def _band_plaintexts(sk, seed: int) -> tuple[list[int], list[int]]:
    """Signed plaintexts inside the band (random, protocol-sized, and the
    edge ``±(2^band - 1)``) and the first ones outside it, ``±2^band``."""
    bound = 1 << sk.one_prime_bits
    rng = random.Random(seed)
    inside = [rng.randrange(1 - bound, bound) for _ in range(24)]
    inside += [rng.randrange(-(1 << b), 1 << b) for b in (40, 88, 128)]
    return inside + [bound - 1, 1 - bound, 0], [bound, -bound]


def test_one_prime_matches_crt_up_to_the_band_edge(banded_keypair):
    pk, sk = banded_keypair
    assert sk.one_prime_bits == sk.p.bit_length() - 1 - 40 >= 128
    inside, outside = _band_plaintexts(sk, 1)
    cts = [pk.raw_encrypt(m % pk.n) for m in inside + outside]
    got, pows, decrypted = _counted(lambda: sk.raw_decrypt_many(cts))
    assert got == sk.raw_decrypt_many(cts, one_prime=False) == [m % pk.n for m in inside + outside]
    # One pow inside the band; at ±2^band that pow, then CRT's two.
    assert (pows, decrypted) == (len(cts) + 2 * len(outside), len(cts))
    # A lone ``raw_decrypt`` takes the same route, and is counted too.
    assert _counted(lambda: sk.raw_decrypt(cts[0]))[1:] == (1, 1)


def test_plaintexts_past_half_p_fall_back_to_crt(banded_keypair):
    pk, sk = banded_keypair
    p, bound = sk.p, 1 << sk.one_prime_bits
    plaintexts = [p // 2, p // 2 + 1, -(p // 2), p - bound, 3 * p // 2 + 7, pk.max_int]
    cts = [pk.raw_encrypt(m % pk.n) for m in plaintexts]
    got, pows, decrypted = _counted(lambda: sk.raw_decrypt_many(cts))
    assert got == sk.raw_decrypt_many(cts, one_prime=False) == [m % pk.n for m in plaintexts]
    assert (pows, decrypted) == (3 * len(cts), len(cts))


def test_overflow_window_still_raises(banded_keypair):
    """The middle third of the ring is the encoder's overflow guard band;
    a decrypt landing there still raises, whatever route it took."""
    pk, sk = banded_keypair
    for m in (pk.max_int + 1, pk.n // 2, pk.n - pk.max_int - 1):
        with pytest.raises(OverflowError, match="guard band"):
            kernels.decrypt_flat(sk, [pk.raw_encrypt(m)], TENSOR_EXPONENT)
    # ±max_int, the edges of the encoder's range, still decode (by CRT).
    edges = [pk.raw_encrypt(pk.max_int), pk.raw_encrypt(pk.n - pk.max_int)]
    assert np.sign(kernels.decrypt_flat(sk, edges, -pk.key_bits)).tolist() == [1.0, -1.0]


def test_short_keys_count_two_pows_per_ciphertext(sized_keypair):
    """Below 512 bits the band would be narrower than 128 bits: CRT only."""
    pk, sk = sized_keypair
    assert sk.one_prime_bits == 0
    cts = kernels.encrypt_flat(pk, np.random.default_rng(8).normal(size=10), TENSOR_EXPONENT)
    got, pows, decrypted = _counted(lambda: sk.raw_decrypt_many(cts))
    assert got == sk.raw_decrypt_many(cts, one_prime=False)
    assert (pows, decrypted) == (20, 10)
    assert _counted(lambda: sk.raw_decrypt(cts[0]))[1:] == (2, 1)


def test_packed_ciphertexts_keep_crt(banded_keypair):
    """Lanes fill n, so a packed decrypt is CRT: two pows a ciphertext."""
    pk, sk = banded_keypair
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=16)
    values = np.random.default_rng(9).normal(size=(3, 5))
    packed = PackedCryptoTensor.encrypt(pk, values, layout)
    decoded, pows, decrypted = _counted(lambda: packed.decrypt(sk))
    assert (pows, decrypted) == (2 * packed.n_ciphertexts, packed.n_ciphertexts)
    np.testing.assert_allclose(decoded, values, atol=1e-9)


# ---------------------------------------------------------------------------
# λ-exponent blinding, the one obfuscation path.


def test_lambda_ciphertexts_decrypt_identically(sized_keypair):
    """λ blinders re-randomise without changing any decode."""
    pk, sk = sized_keypair
    rng = np.random.default_rng(7)
    values = rng.normal(size=(4, 4))
    blinded = CryptoTensor.encrypt(pk, values, obfuscate=True)
    nude = CryptoTensor.encrypt(pk, values, obfuscate=False)
    assert np.array_equal(blinded.decrypt(sk), nude.decrypt(sk))
    # Re-randomised: every ciphertext differs from its unobfuscated twin.
    assert (blinded.residues != nude.residues).all()


def test_lambda_blinders_are_nth_powers(sized_keypair):
    """Every λ blinder is a valid obfuscation factor: Enc(0)*b decrypts to 0.
    A fresh key pays one full ``r0^n`` pow for ``h``, then one λ-bit pow per
    blinder, and a batch draws the same stream as single draws."""
    pk, sk = sized_keypair
    key = PaillierPublicKey(pk.n, rng=random.Random(11))
    trc = Tracer()
    with use_tracer(trc):
        blinders = key.blinding_factors(8) + [key._random_blinding()]
    totals = counter_totals(trc.to_dicts())
    assert (totals["pow.blind.classic"], totals["pow.blind.lambda"]) == (1, 9)
    assert all(sk.raw_decrypt(b) == 0 for b in blinders)
    twin = PaillierPublicKey(pk.n, rng=random.Random(11))
    assert [twin._random_blinding() for _ in range(9)] == blinders
    assert key.blinding_factors(0) == []
