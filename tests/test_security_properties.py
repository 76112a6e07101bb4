"""Security-property tests: the empirical counterpart of §5.3/§6.3.

We cannot run the ideal-real simulation proof mechanically, but we can
verify its observable consequences on real protocol transcripts:

* structural invariants — every message is ciphertext / share / public;
* statistical invariants — shares on the wire are uncorrelated with the
  secrets they carry (hypothesis-driven over random instances);
* the attack suite fails against BlindFL while succeeding against split
  learning (the paper's §7.2 experiments in miniature).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_transcript import message_summary, split_payload
from repro.attacks.activation_attack import activation_attack_score
from repro.attacks.feature_similarity import pairwise_distance_correlation
from repro.attacks.model_attack import piece_vs_weight_stats
from repro.comm.message import MessageKind
from repro.comm.party import VFLConfig, VFLContext
from repro.core.embed_matmul_layer import EmbedMatMulSource
from repro.core.matmul_layer import MatMulSource
from repro.core.models import FederatedLR
from repro.core.optimizer import FederatedSGD
from repro.data.loader import BatchLoader
from repro.data.partition import split_vertical
from repro.data.synthetic import make_dense_classification
from repro.tensor.losses import bce_with_logits

KEY_BITS = 128


def fresh_ctx(seed=0):
    return VFLContext(VFLConfig(key_bits=KEY_BITS), seed=seed)


ALLOWED_KINDS = {MessageKind.CIPHERTEXT, MessageKind.SHARE, MessageKind.OUTPUT_SHARE,
                 MessageKind.PUBLIC}


def test_full_training_transcript_is_classified(rng):
    """Every message of a full LR training run is a permitted kind."""
    full = make_dense_classification(64, 6, seed=50)
    vd = split_vertical(full)
    ctx = fresh_ctx()
    model = FederatedLR(ctx, 3, 3)
    opt = FederatedSGD(model, lr=0.05, momentum=0.9)
    for batch in BatchLoader(vd, 16, rng=np.random.default_rng(0)):
        out = model.forward(batch, train=True)
        opt.zero_grad()
        loss = bce_with_logits(out, batch.y)
        loss.backward()
        model.backward_sources()
        opt.step()
    assert len(ctx.channel.transcript) > 20
    assert {m.kind for m in ctx.channel.transcript} <= ALLOWED_KINDS


def test_party_a_never_receives_label_dependent_plaintext(rng):
    """Everything A receives is either a ciphertext or a masked share."""
    full = make_dense_classification(48, 6, seed=51)
    vd = split_vertical(full)
    ctx = fresh_ctx()
    model = FederatedLR(ctx, 3, 3)
    opt = FederatedSGD(model, lr=0.05, momentum=0.9)
    for batch in BatchLoader(vd, 16, rng=np.random.default_rng(0)):
        out = model.forward(batch, train=True)
        opt.zero_grad()
        loss = bce_with_logits(out, batch.y)
        loss.backward()
        model.backward_sources()
        opt.step()
    from repro.crypto.crypto_tensor import CryptoTensor

    for msg in ctx.channel.view_of("A"):
        assert isinstance(msg.payload, (CryptoTensor, np.ndarray))
        if isinstance(msg.payload, np.ndarray):
            # Only masked shares reach A as arrays; they must dwarf any
            # data-scale values (masks are >= 2^16 scaled).
            assert msg.kind in (MessageKind.SHARE, MessageKind.OUTPUT_SHARE,
                                MessageKind.PUBLIC)


def test_wire_share_uncorrelated_with_activation(rng):
    """The X_A V_A - eps share B receives carries no X_A W_A signal."""
    ctx = fresh_ctx(seed=3)
    layer = MatMulSource(ctx, 8, 4, 1, name="sec")
    w = layer.reveal_weights()
    x_a = rng.normal(size=(64, 8))
    x_b = rng.normal(size=(64, 4))
    layer.forward(x_a, x_b)
    za = (x_a @ w["W_A"]).ravel()
    # B's received share of A's contribution is the decrypted HE2SS output;
    # reproduce B's view: the only array message for B is Z'_A.
    arrays = [
        m.payload
        for m in ctx.channel.view_of("B")
        if isinstance(m.payload, np.ndarray)
    ]
    assert arrays, "B received output shares"
    for arr in arrays:
        corr = np.corrcoef(arr.ravel(), za)[0, 1]
        assert abs(corr) < 0.25


def test_fused_cross_share_uncorrelated_with_its_summands(rng):
    """Embed-MatMul's one forward crossing a direction carries ``psi V + e U
    - eps`` where Figure 7 sent ``psi V - eps_1`` and ``e U - eps_2``: what
    the key owner decrypts is uncorrelated with either summand and with
    their sum — one mask at ``mask_scale`` hides the sum as two hid the
    terms."""
    ctx = fresh_ctx(seed=3)
    layer = EmbedMatMulSource(ctx, [6, 5], [4, 7], emb_dim=2, out_dim=1, name="fsec")
    x_a = rng.integers(0, [6, 5], size=(128, 2))
    x_b = rng.integers(0, [4, 7], size=(128, 2))
    layer.forward(x_a, x_b)
    sent = {m.tag: m.payload for m in ctx.channel.transcript}
    ends = (("A", layer._a, layer._b, ctx.B), ("B", layer._b, layer._a, ctx.A))
    for who, end, peer_end, owner in ends:
        own = end.u.shape[0]
        psi_v = end.cross[:, :own] @ peer_end.v_peer
        e_u = end.cross[:, own:] @ peer_end.u
        seen = sent[f"fsec.1.fwd.cross_{who}"].decrypt(owner.private_key)
        for secret in (psi_v, e_u, psi_v + e_u):
            assert abs(np.corrcoef(seen.ravel(), secret.ravel())[0, 1]) < 0.25


def test_b_cannot_rank_feature_similarity_from_its_view(rng):
    """Req 2, empirically: B's received arrays carry no X_A structure."""
    ctx = fresh_ctx(seed=4)
    layer = MatMulSource(ctx, 10, 4, 2, name="sim")
    x_a = rng.normal(size=(40, 10))
    x_b = rng.normal(size=(40, 4))
    layer.forward(x_a, x_b)
    for msg in ctx.channel.view_of("B"):
        if isinstance(msg.payload, np.ndarray) and msg.payload.shape[0] == 40:
            corr = pairwise_distance_correlation(x_a, msg.payload)
            assert abs(corr) < 0.2


def test_activation_attack_fails_against_blindfl(rng):
    """Figure 9's BlindFL curve: X_A U_A is a coin flip on the labels."""
    full = make_dense_classification(160, 24, seed=52, flip=0.02, nonlinear=False)
    vd = split_vertical(full)
    ctx = fresh_ctx(seed=5)
    model = FederatedLR(ctx, 12, 12)
    opt = FederatedSGD(model, lr=0.1, momentum=0.9)
    for _ in range(2):
        for batch in BatchLoader(vd, 16, rng=np.random.default_rng(1)):
            out = model.forward(batch, train=True)
            opt.zero_grad()
            loss = bce_with_logits(out, batch.y)
            loss.backward()
            model.backward_sources()
            opt.step()
    x_a_all = vd.party("A").x_dense
    za_attack = x_a_all @ model.source._a.u  # all A can compute alone
    score = activation_attack_score(za_attack, vd.y)
    # Sanity: the full federated model *does* fit the labels.
    w = model.source.reveal_weights()
    z_full = x_a_all @ w["W_A"] + vd.party("B").x_dense @ w["W_B"]
    full_score = activation_attack_score(z_full, vd.y)
    assert full_score > 0.8
    assert abs(score - 0.5) < 0.17  # chance level (U_A is a random walk)
    assert score < full_score - 0.25  # far from the real model's skill


def test_model_pieces_leak_nothing_after_training(rng):
    """Figure 11's property on a trained layer: pieces >> weights, corr ~ 0."""
    ctx = fresh_ctx(seed=6)
    layer = MatMulSource(ctx, 12, 6, 1, name="f11")
    for step in range(8):
        x_a = rng.normal(size=(16, 12))
        x_b = rng.normal(size=(16, 6))
        layer.forward(x_a, x_b)
        layer.backward(rng.normal(size=(16, 1)) * 0.05)
        layer.apply_updates(lr=0.05, momentum=0.9)
    w = layer.reveal_weights()
    stats = piece_vs_weight_stats(layer.piece_views()["A.U_A"], w["W_A"])
    assert stats.magnitude_ratio > 3
    assert not stats.leaks(corr_tol=0.5, sign_tol=0.35)


def test_embed_layer_transcript_classified(rng):
    ctx = fresh_ctx(seed=7)
    layer = EmbedMatMulSource(ctx, [6], [5], emb_dim=2, out_dim=1, name="esec")
    x_a = rng.integers(0, 6, size=(4, 1))
    x_b = rng.integers(0, 5, size=(4, 1))
    layer.forward(x_a, x_b)
    layer.backward(rng.normal(size=(4, 1)))
    layer.apply_updates(lr=0.05, momentum=0.9)
    assert {m.kind for m in ctx.channel.transcript} <= ALLOWED_KINDS


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
@settings(max_examples=6, deadline=None)
def test_matmul_lossless_property(batch, out_dim):
    """Property: forward is lossless for random shapes and inputs."""
    rng = np.random.default_rng(batch * 10 + out_dim)
    ctx = fresh_ctx(seed=batch * 7 + out_dim)
    layer = MatMulSource(ctx, 3, 2, out_dim, name="prop")
    w = layer.reveal_weights()
    x_a = rng.normal(size=(batch, 3))
    x_b = rng.normal(size=(batch, 2))
    z = layer.forward(x_a, x_b)
    np.testing.assert_allclose(z, x_a @ w["W_A"] + x_b @ w["W_B"], atol=1e-4)


def _transcript_headers(ctx):
    """``(tag, kind, type code, header bytes)`` of every message sent.

    The header is everything :func:`golden_transcript.split_payload` returns
    before the ciphertext body — key fingerprint, slot layout, ``seg_cols``,
    shapes, exponents, ``value_bits``.
    """
    from repro.comm import codec

    headers = []
    for msg in ctx.channel.transcript:
        code, header, _body = split_payload(codec.encode_payload(msg.payload))
        headers.append((msg.tag, msg.kind.value, code, header))
    return headers


def _packed_step_headers(seed, data_scale, sparsity_mask, key_bits=256):
    """Wire headers of every message in one packed MatMul training step.

    ``data_scale`` and ``sparsity_mask`` vary the *private* operands
    between runs; headers must not notice.
    """
    ctx = VFLContext(
        VFLConfig(key_bits=key_bits, packing=True, channel="serializing"),
        seed=seed,
    )
    layer = MatMulSource(ctx, 4, 3, 2, name="wl")
    rng = np.random.default_rng(77)
    x_a = rng.normal(size=(5, 4)) * data_scale
    x_a *= sparsity_mask
    x_b = rng.normal(size=(5, 3)) * data_scale
    layer.forward(x_a, x_b)
    layer.backward(rng.normal(size=(5, 2)) * 0.01 * data_scale)
    layer.apply_updates(lr=0.05, momentum=0.9)
    return _transcript_headers(ctx)


def _packed_embed_step(key_bits, data_seed, grad_scale):
    """The context after layer init plus one packed Embed-MatMul step.

    ``data_seed`` picks the private categorical ids (and so which table rows
    repeat within the batch) and ``grad_scale`` the size of the private
    derivatives; ``out_dim = emb_dim = 2`` is full rows at 256 bits (two
    slots) and rows narrower than half a ciphertext at 512 (four slots),
    where every HE2SS transfer is a merged one.
    """
    ctx = VFLContext(
        VFLConfig(key_bits=key_bits, packing=True, channel="serializing"), seed=8
    )
    layer = EmbedMatMulSource(ctx, [4, 3], [5, 2], emb_dim=2, out_dim=2, name="we")
    rng = np.random.default_rng(data_seed)
    layer.forward(rng.integers(0, [4, 3], size=(5, 2)), rng.integers(0, [5, 2], size=(5, 2)))
    layer.backward(rng.normal(size=(5, 2)) * grad_scale)
    layer.apply_updates(lr=0.05, momentum=0.9)
    return ctx


def _assert_headers_equal(run1, run2):
    assert len(run1) == len(run2)
    for (tag1, kind1, code1, header1), (tag2, kind2, code2, header2) in zip(run1, run2):
        assert (tag1, kind1, code1) == (tag2, kind2, code2)
        assert header1 == header2, f"wire header for {tag1!r} depends on private operands"


def test_packed_wire_headers_carry_only_layout_constants():
    """Serialized packed headers are byte-equal across private inputs.

    Two training steps with different feature magnitudes and a different
    sparsity pattern must produce byte-identical wire *headers* at every
    transcript position: the packed metadata (slot layout, ``seg_cols``,
    ``value_bits``, exponents, shapes) is canonicalised to public layout
    constants, so the only thing that varies on the wire is ciphertext
    bodies and masked share values — exactly what the unpacked protocol
    reveals.  A data-dependent ``value_bits`` (derived from private
    magnitudes or per-row fan-in) would fail this byte-for-byte check.
    """
    from repro.comm import codec

    mask_dense = np.ones((5, 4))
    mask_sparse = np.ones((5, 4))
    mask_sparse[1:4, 1:3] = 0.0  # different sparsity pattern
    run1 = _packed_step_headers(seed=8, data_scale=0.05, sparsity_mask=mask_dense)
    run2 = _packed_step_headers(seed=8, data_scale=4.0, sparsity_mask=mask_sparse)
    _assert_headers_equal(run1, run2)
    packed = {tag.split(".", 2)[2] for tag, _, code, _ in run1 if code == codec.T_PACKED_TENSOR}
    # [[gZ]] and the packed product X_A.T @ [[gZ]] travel in lanes too.
    assert {"fwd.XV_A", "fwd.XV_B", "bwd.gZ", "bwd.gW_A", "upd.encV_A"} <= packed


@pytest.mark.parametrize("key_bits", [256, 512], ids=["2slots", "4slots-merged"])
def test_packed_embed_wire_headers_carry_only_layout_constants(key_bits):
    """The same byte-for-byte pin for every payload the Embed-MatMul layer
    sends in lanes: both forms of ``[[gZ]]``, ``[[gZ V_A^T]]`` as gradient
    rows, the stacked cross operands and B's ``[[V_B^T]]`` (init and
    refresh), the one fused crossing per direction per phase and, at four
    slots, the row-merged HE2SS transfers."""
    from repro.comm import codec

    ctx = _packed_embed_step(key_bits, data_seed=21, grad_scale=0.001)
    other = _packed_embed_step(key_bits, data_seed=22, grad_scale=2.0)
    _assert_headers_equal(_transcript_headers(ctx), _transcript_headers(other))
    by_tag = {
        msg.tag.split(".", 1)[1]: message_summary(msg)["payload"]
        for msg in ctx.channel.transcript
    }
    lanes = (
        "1.bwd.gZ.lanes", "1.bwd.gZVA", "init.VU_A", "init.VU_B", "init.Vt_B",
        "1.upd.VU_A", "1.upd.VU_B", "1.upd.Vt_B",
    )
    transfers = (
        "1.fwd.lkT_A", "1.fwd.lkT_B", "1.fwd.cross_A", "1.fwd.cross_B", "1.bwd.crossT",
        "1.bwd.gQ_A", "1.bwd.gQ_B",
    )
    # Nothing else crosses in ciphertext: A's end is sent no transposed form.
    assert set(by_tag) == {*lanes, *transfers, "1.bwd.gZ", "init.T_A", "init.T_B",
                           "1.upd.T_A", "1.upd.T_B", "1.fwd.Z_A"}
    for tag in lanes + transfers:
        assert by_tag[tag]["type"] == "packed_crypto_tensor", tag
    assert by_tag["1.bwd.gZ"]["type"] == "crypto_tensor"  # A's cipher @ plain operand
    for tag in lanes:
        assert not by_tag[tag]["contiguous"], tag
    for tag in transfers:  # narrow rows leave merged, as one contiguous lane stream
        assert by_tag[tag]["contiguous"] == (key_bits == 512), tag


def _blinders(private_key, residues):
    """The ``r^n`` factor of each ciphertext: ``c / (1 + m n) mod n^2``."""
    n, nsq = private_key.public_key.n, private_key.public_key.nsquare
    plain = private_key.raw_decrypt_many(residues)
    return [c * pow(1 + m * n, -1, nsq) % nsq for c, m in zip(residues, plain)]


def test_two_forms_of_one_secret_are_independent_encryptions():
    """``[[gZ]]`` and B's ``V_B`` travel in two forms where lanes pay
    (``V_B`` as the top rows of the stacked cross operand and as
    ``[[V_B^T]]``).  Each form is encrypted from the plaintext under
    blinders of its own: no residue and no blinding factor appears in
    both, no form is lifted out of the other's ciphertexts (``ct.packed``
    stays 0 at the sender), and the key owner decrypts both to the same
    values.  A's end holds no transposed form at all: B computes ``gZ
    V_A^T`` in the clear."""
    from repro.obs import Tracer, counter_totals, use_tracer

    ctx = VFLContext(VFLConfig(key_bits=256, packing=True), seed=14)
    tracer = Tracer()
    with use_tracer(tracer):
        layer = EmbedMatMulSource(ctx, [4, 3], [5, 2], emb_dim=2, out_dim=2, name="tf")
    rng = np.random.default_rng(15)
    layer.forward(rng.integers(0, [4, 3], size=(4, 2)), rng.integers(0, [5, 2], size=(4, 2)))
    grad = rng.normal(size=(4, 2)) * 0.1
    with use_tracer(tracer):
        layer.backward(grad)
    tracer.close()
    spans = tracer.to_dicts()
    encrypting = [sp for sp in spans if sp["phase"] == "encrypt" and sp["party"] == "B"]
    assert encrypting and all("ct.packed" not in sp["counters"] for sp in encrypting)
    # 8 per-element + 4 in lanes for [[gZ]], 8 gradient rows for [[gZ V_A^T]].
    assert sum(sp["counters"]["ct.encrypted"] for sp in encrypting) == 8 + 4 + 8
    assert counter_totals(spans).get("ct.packed", 0) == 8  # A's own [[gZ]] U_A^T rows

    sent = {m.tag.split(".", 1)[1]: m.payload for m in ctx.channel.transcript}
    assert layer._a.enc_vt_own is None and not any("Vt_A" in tag for tag in sent)
    pairs = {
        "B": (sent["1.bwd.gZ"], sent["1.bwd.gZ.lanes"], grad),
        "A": (sent["init.VU_B"], sent["init.Vt_B"], None),
    }
    for owner, (first, second, values) in pairs.items():
        key = ctx.parties[owner].private_key
        res1 = first.residues.ravel().tolist() if hasattr(first, "residues") else first.cts
        res2 = second.cts
        assert not set(res1) & set(res2)
        blinders = _blinders(key, res1) + _blinders(key, res2)
        assert 1 not in blinders and len(set(blinders)) == len(blinders)
        one, two = first.decrypt(key), second.decrypt(key)
        if values is not None:
            assert np.array_equal(one, two)
            np.testing.assert_allclose(one, values, atol=1e-11)
        else:  # [V_B ; U_A] stacked: V_B is its top flat_in_b rows
            assert np.array_equal(one[: layer.flat_in_b], two.T)


@given(st.integers(min_value=2, max_value=6))
@settings(max_examples=5, deadline=None)
def test_embed_lossless_property(vocab):
    rng = np.random.default_rng(vocab)
    ctx = fresh_ctx(seed=vocab)
    layer = EmbedMatMulSource(ctx, [vocab], [vocab], emb_dim=2, out_dim=1, name="eprop")
    w = layer.reveal_weights()
    x_a = rng.integers(0, vocab, size=(3, 1))
    x_b = rng.integers(0, vocab, size=(3, 1))
    z = layer.forward(x_a, x_b)
    e_a = w["Q_A"][x_a.ravel()].reshape(3, -1)
    e_b = w["Q_B"][x_b.ravel()].reshape(3, -1)
    np.testing.assert_allclose(z, e_a @ w["W_A"] + e_b @ w["W_B"], atol=1e-4)


# ---------------------------------------------------------------------------
# Key custody: private-key material must be unable to leave its process.
#
# These runtime refusals are complemented statically by rule BF001 in
# repro.analysis (gated in tests/test_analysis.py): the linter flags any
# *source-level* flow of PaillierPrivateKey / (p, q) / its CRT constants into
# Channel.send, codec encode_*, pickle, checkpoint writers, or
# multiprocessing args — including paths no test executes.


def test_codec_refuses_private_key():
    """There is deliberately no wire format for (p, q): encoding a private
    key — the catastrophic leak of the whole trust model — fails loudly."""
    from repro.comm import codec

    ctx = fresh_ctx(seed=60)
    with pytest.raises(codec.UnsupportedWireType, match="private-key material"):
        codec.encode_payload(ctx.B.private_key)


def test_codec_refuses_private_key_carriers():
    """Any object exposing a private key (e.g. a whole Party) is refused
    with the custody error, not the generic unknown-type one."""
    from repro.comm import codec

    ctx = fresh_ctx(seed=61)
    with pytest.raises(codec.UnsupportedWireType, match="key owner's"):
        codec.encode_payload(ctx.A)


def test_channel_send_refuses_private_key():
    """A private key cannot cross even an in-process serializing channel."""
    from repro.comm import codec

    cfg = VFLConfig(key_bits=KEY_BITS, channel="serializing")
    ctx = VFLContext(cfg, seed=62)
    with pytest.raises(codec.UnsupportedWireType):
        ctx.channel.send("A", "B", "leak", ctx.A.private_key, MessageKind.PUBLIC)


def test_private_key_is_unpicklable():
    """Pickle (multiprocessing tasks, caches, copies) refuses private keys,
    and nothing is exempt: every decryption runs in the key owner's
    process."""
    import pickle

    ctx = fresh_ctx(seed=63)
    with pytest.raises(TypeError, match="custody|unpicklable"):
        pickle.dumps(ctx.B.private_key)
    # The public key ships fine — that is the one key material peers need.
    from repro.comm import codec

    assert codec.decode_payload(codec.encode_payload(ctx.B.public_key)) is not None
