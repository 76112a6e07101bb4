"""Tests for additive sharing and the HE2SS / SS2HE conversions."""

import numpy as np
import pytest

from repro.comm.message import MessageKind
from repro.crypto.crypto_tensor import CryptoTensor
from repro.crypto.secret_sharing import (
    additive_share,
    he2ss_receive,
    he2ss_split,
    reconstruct,
    ss2he_combine,
    ss2he_send,
)


def test_additive_share_reconstructs(rng):
    values = rng.normal(size=(4, 3))
    a, b = additive_share(values, rng, scale=1000.0)
    np.testing.assert_allclose(reconstruct(a, b), values, atol=1e-9)


def test_additive_share_pieces_hide_values(rng):
    """Each piece alone is uncorrelated with the secret."""
    values = np.ones((2000,))
    a, b = additive_share(values, rng, scale=1000.0)
    # piece magnitudes dwarf the secret and correlation with it is ~0
    assert np.abs(a).mean() > 100
    corr = np.corrcoef(a, values + rng.normal(size=2000))[0, 1]
    assert abs(corr) < 0.1


def test_additive_share_rejects_bad_scale(rng):
    with pytest.raises(ValueError):
        additive_share(np.ones(3), rng, scale=0.0)


def test_he2ss_roundtrip(ctx):
    """Algorithm 1: [[v]] at A (under B's key) -> shares summing to v."""
    a, b, channel = ctx.A, ctx.B, ctx.channel
    values = a.rng.normal(size=(3, 2))
    ct = CryptoTensor.encrypt(b.public_key, values)  # [[v]]_B held by A
    phi = he2ss_split(ct, a, "B", channel, tag="t", mask_scale=2.0**16)
    other = he2ss_receive(b, channel, tag="t")
    np.testing.assert_allclose(phi + other, values, atol=1e-6)


def test_he2ss_message_is_ciphertext_kind(ctx):
    a, b, channel = ctx.A, ctx.B, ctx.channel
    ct = CryptoTensor.encrypt(b.public_key, np.ones((2, 2)))
    he2ss_split(ct, a, "B", channel, tag="t", mask_scale=2.0**16)
    assert channel.transcript[-1].kind is MessageKind.CIPHERTEXT
    he2ss_receive(b, channel, tag="t")


def test_he2ss_rerandomises_ciphertexts(ctx):
    """The wire ciphertexts must differ from the held ones (fresh blinding)."""
    a, b, channel = ctx.A, ctx.B, ctx.channel
    ct = CryptoTensor.encrypt(b.public_key, np.ones((2, 2)), obfuscate=False)
    he2ss_split(ct, a, "B", channel, tag="t", mask_scale=2.0**16)
    wire = channel.transcript[-1].payload
    held = set(ct.residues.ravel())
    assert held.isdisjoint(wire.residues.ravel())
    he2ss_receive(b, channel, tag="t")


def test_he2ss_wrong_key_rejected(ctx):
    a = ctx.A
    ct = CryptoTensor.encrypt(a.public_key, np.ones(2))  # own key: invalid
    with pytest.raises(ValueError):
        he2ss_split(ct, a, "B", ctx.channel, tag="t", mask_scale=1.0)


def test_ss2he_roundtrip(ctx):
    """Algorithm 2: shares <v_a, v_b> -> [[v]] under the peer's key."""
    a, b, channel = ctx.A, ctx.B, ctx.channel
    values = a.rng.normal(size=(2, 3))
    piece_a, piece_b = additive_share(values, a.rng, scale=100.0)
    # Both parties send their encrypted piece; each combines with its own.
    ss2he_send(piece_a, a, "B", channel, tag="s")
    ss2he_send(piece_b, b, "A", channel, tag="s")
    ct_at_a = ss2he_combine(piece_a, a, channel, tag="s")  # under B's key
    ct_at_b = ss2he_combine(piece_b, b, channel, tag="s")  # under A's key
    np.testing.assert_allclose(ct_at_a.decrypt(b.private_key), values, atol=1e-6)
    np.testing.assert_allclose(ct_at_b.decrypt(a.private_key), values, atol=1e-6)


def test_ss2he_then_he2ss_composes(ctx):
    """SS -> HE -> SS keeps the secret intact (used in Appendix B tops)."""
    a, b, channel = ctx.A, ctx.B, ctx.channel
    values = b.rng.normal(size=(2, 2))
    piece_a, piece_b = additive_share(values, b.rng, scale=50.0)
    ss2he_send(piece_b, b, "A", channel, tag="x")
    ct_at_a = ss2he_combine(piece_a, a, channel, tag="x")  # [[v]]_B at A
    phi = he2ss_split(ct_at_a, a, "B", channel, tag="y", mask_scale=2.0**16)
    rest = he2ss_receive(b, channel, tag="y")
    np.testing.assert_allclose(phi + rest, values, atol=1e-5)
