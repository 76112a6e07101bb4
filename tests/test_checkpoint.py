"""Checkpoint/resume: bit-identity, key custody, and corruption detection.

The contract under test (see :mod:`repro.core.checkpoint`):

* a run that crashes mid-epoch and resumes from its checkpoint finishes
  **bit-identical** to a run that was never interrupted — same losses,
  same revealed weights, because every RNG/blinding/momentum stream was
  captured;
* a checkpoint file **never** contains private-key material — the codec's
  structural refusal guards the disk boundary, and a byte-level scan of a
  real checkpoint confirms the primes are absent (while stored ciphertext
  residues are demonstrably present, so the scan reads real crypto state);
* a corrupted/truncated/foreign checkpoint fails loudly at load time.
"""

import re

import numpy as np
import pytest

from repro.comm import codec
from repro.comm.party import VFLConfig, VFLContext
from repro.core.checkpoint import (
    CheckpointError,
    TrainingInterrupted,
    load_checkpoint,
    model_key_ring,
    save_checkpoint,
)
from repro.core.embed_matmul_layer import EmbedMatMulSource
from repro.core.models import FederatedLR
from repro.core.trainer import TrainConfig, train_federated
from repro.crypto.crypto_tensor import CryptoTensor
from repro.data.partition import split_vertical
from repro.data.synthetic import make_dense_classification

KEY_BITS = 128


@pytest.fixture(scope="module")
def train_vd():
    full = make_dense_classification(48, 6, seed=50, flip=0.02, nonlinear=False)
    return split_vertical(full)


def _make_model():
    """Rebuild the *same* model every call: identical seeds, identical keys.

    This reconstruction is also the custody story: the key owner's private
    key comes back from the federation seed, never from the checkpoint.
    """
    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=3)
    return FederatedLR(ctx, 3, 3)


def _config(**overrides):
    base = dict(epochs=2, batch_size=16, lr=0.1, momentum=0.9, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def _weights(model):
    return {
        f"{layer.name}.{name}": value
        for layer in model.source_layers()
        for name, value in layer.reveal_weights().items()
    }


def _train_to_checkpoint(train_vd, path, crash_after=4):
    """Run until the injected crash; returns the interrupted model."""
    model = _make_model()
    with pytest.raises(TrainingInterrupted) as excinfo:
        train_federated(
            model, train_vd,
            _config(checkpoint_path=path, checkpoint_every=1,
                    crash_after_batches=crash_after),
        )
    assert excinfo.value.checkpoint_path == path
    return model


# --------------------------------------------------------------------------
# bit-identity


def test_crash_and_resume_is_bit_identical(train_vd, tmp_path):
    """Kill after 4 of 6 batches (mid-epoch 1), resume, match exactly."""
    reference_model = _make_model()
    reference = train_federated(reference_model, train_vd, _config())
    assert len(reference.losses) == 6  # 2 epochs x 3 batches

    path = str(tmp_path / "lr.ckpt")
    _train_to_checkpoint(train_vd, path, crash_after=4)

    resumed_model = _make_model()
    resumed = train_federated(resumed_model, train_vd, _config(),
                              resume_from=path)
    assert resumed.losses == reference.losses  # float-exact, all 6
    ref_w, res_w = _weights(reference_model), _weights(resumed_model)
    assert set(ref_w) == set(res_w)
    for name, value in ref_w.items():
        np.testing.assert_array_equal(res_w[name], value)


def test_resume_at_epoch_boundary(train_vd, tmp_path):
    """Crash exactly at the end of epoch 0; epoch 1 must replay exactly."""
    reference = train_federated(_make_model(), train_vd, _config())
    path = str(tmp_path / "boundary.ckpt")
    _train_to_checkpoint(train_vd, path, crash_after=3)
    resumed = train_federated(_make_model(), train_vd, _config(),
                              resume_from=path)
    assert resumed.losses == reference.losses


def test_checkpoint_interval_respected(train_vd, tmp_path):
    """``checkpoint_every=3`` writes at batches 3 and 6 only."""
    path = str(tmp_path / "sparse.ckpt")
    model = _make_model()
    train_federated(model, train_vd,
                    _config(checkpoint_path=path, checkpoint_every=3))
    sections = load_checkpoint(path, key_ring=model_key_ring(model))
    epoch, next_batch, order, _ = sections["trainer"]
    assert (epoch, next_batch) == (1, 3)  # written after the final batch
    assert sorted(order.tolist()) == list(range(48))
    losses, _, metric = sections["history"]
    assert len(losses) == 6 and metric == "auc"


# --------------------------------------------------------------------------
# key custody


def _prime_bytes(private_key):
    return [
        v.to_bytes((v.bit_length() + 7) // 8, "big")
        for v in (private_key.p, private_key.q)
    ]


def _residue_bytes(tensor):
    """The fixed-width wire bytes of a tensor's ciphertext residues."""
    width = (tensor.public_key.nsquare.bit_length() + 7) // 8
    return [int(c).to_bytes(width, "big") for c in tensor.residues.ravel()]


def _stored_tensors(tree):
    if isinstance(tree, CryptoTensor):
        yield tree
    elif isinstance(tree, (list, tuple)):
        for item in tree:
            yield from _stored_tensors(item)


def test_checkpoint_file_contains_no_private_key_material(train_vd, tmp_path):
    """Byte-level scan: the primes never reach disk, the stored ciphertexts do.

    The residue check keeps the scan honest — every encrypted piece the
    checkpoint restores is visibly present byte for byte, so an absent
    prime is a real absence, not a scan that matches nothing.
    """
    path = str(tmp_path / "custody.ckpt")
    model = _train_to_checkpoint(train_vd, path)
    blob = open(path, "rb").read()
    ring = model_key_ring(model)
    stored = list(_stored_tensors(load_checkpoint(path, key_ring=ring)["layers"]))
    assert {t.public_key.n for t in stored} == set(ring)  # both parties' pieces
    for tensor in stored:
        assert all(residue in blob for residue in _residue_bytes(tensor))

    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=3)  # same seeds
    for party in ctx.parties.values():
        for secret in _prime_bytes(party.private_key):
            assert secret not in blob
    # Scan machinery sanity: a deliberately leaked prime *is* found.
    leaked = blob + _prime_bytes(ctx.B.private_key)[0]
    assert _prime_bytes(ctx.B.private_key)[0] in leaked


def test_checkpoint_frame_encoder_refuses_private_keys():
    """The disk format is codec frames, so the codec's refusal IS the
    custody guard: a private key (or carrier) cannot be framed at all."""
    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=7)
    with pytest.raises(codec.UnsupportedWireType, match="private-key material"):
        codec.encode_payload_frame(ctx.B.private_key)
    with pytest.raises(codec.UnsupportedWireType, match="key owner's"):
        codec.encode_payload_frame(("ckpt", ctx.B))


def test_resend_buffer_never_holds_private_key_material():
    """The reliability layer buffers *frames*; since no frame can encode a
    private key, the resend buffer inherits the custody guarantee.  Scan
    a live buffer holding ciphertext traffic to confirm."""
    import socket

    from repro.comm.transport import ReliableLink

    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=8)
    ct = CryptoTensor.encrypt(ctx.A.public_key, np.arange(6.0).reshape(2, 3))
    raw_a, raw_b = socket.socketpair()
    raw_a.settimeout(0.5)
    link = ReliableLink(raw_a)
    try:
        for i in range(3):
            link.send_frame(codec.encode_payload_frame((f"ct{i}", ct)))
        assert len(link._resend) == 3  # nothing acked yet: all buffered
        buffered = b"".join(link._resend.values())
        assert all(residue in buffered for residue in _residue_bytes(ct))
        for secret in _prime_bytes(ctx.A.private_key):
            assert secret not in buffered
    finally:
        raw_a.close()
        raw_b.close()


# --------------------------------------------------------------------------
# corruption / mismatch detection at load time


def _checkpoint_on_disk(train_vd, tmp_path):
    path = str(tmp_path / "victim.ckpt")
    model = _train_to_checkpoint(train_vd, path)
    return path, model


def test_truncated_checkpoint_raises(train_vd, tmp_path):
    path, model = _checkpoint_on_disk(train_vd, tmp_path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) - 7])
    with pytest.raises(codec.WireFormatError, match="truncated frame stream"):
        load_checkpoint(path, key_ring=model_key_ring(model))


def test_bit_flipped_checkpoint_raises_integrity_error(train_vd, tmp_path):
    path, model = _checkpoint_on_disk(train_vd, tmp_path)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0x08  # one flipped bit, anywhere in a body
    open(path, "wb").write(bytes(blob))
    with pytest.raises(codec.FrameIntegrityError, match="CRC32"):
        load_checkpoint(path, key_ring=model_key_ring(model))


def test_foreign_file_raises_checkpoint_error(tmp_path):
    path = str(tmp_path / "not-a-checkpoint.ckpt")
    open(path, "wb").write(codec.encode_payload_frame(("something", "else")))
    with pytest.raises(CheckpointError, match="not a BlindFL checkpoint"):
        load_checkpoint(path)
    open(path, "wb").write(
        codec.encode_payload_frame(("blindfl-checkpoint", 999))
    )
    with pytest.raises(CheckpointError, match="version 999 not supported"):
        load_checkpoint(path)
    open(path, "wb").write(b"")
    with pytest.raises(CheckpointError, match="is empty"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "frame", [("layers", [], "extra"), 7], ids=["three-tuple", "int"]
)
def test_malformed_section_frame_raises_checkpoint_error(tmp_path, frame):
    """A section frame that is not a ``(name, section)`` pair is refused by
    frame index, not by a bare unpacking error."""
    from repro.core.checkpoint import CHECKPOINT_MAGIC, CHECKPOINT_VERSION

    path = tmp_path / "malformed.ckpt"
    path.write_bytes(
        codec.encode_payload_frame((CHECKPOINT_MAGIC, CHECKPOINT_VERSION))
        + codec.encode_payload_frame(("trainer", None))
        + codec.encode_payload_frame(frame)
    )
    with pytest.raises(CheckpointError, match="frame 2 is not a"):
        load_checkpoint(str(path))


def test_missing_section_raises(train_vd, tmp_path):
    path, model = _checkpoint_on_disk(train_vd, tmp_path)
    ring = model_key_ring(model)
    blob = open(path, "rb").read()
    # Walk the frame stream, dropping the layers section byte-identically.
    offset, out = 0, []
    for _, body in codec.iter_frames(blob):
        size = codec.PREAMBLE_SIZE + len(body) + codec.CRC_SIZE
        frame = blob[offset : offset + size]
        offset += size
        payload = codec.decode_payload(body, ring)
        if not (isinstance(payload, tuple) and payload and payload[0] == "layers"):
            out.append(frame)
    open(path, "wb").write(b"".join(out))
    with pytest.raises(CheckpointError, match="missing sections.*layers"):
        load_checkpoint(path, key_ring=model_key_ring(model))


def test_resume_onto_mismatched_model_raises(train_vd, tmp_path):
    path, _ = _checkpoint_on_disk(train_vd, tmp_path)
    wrong = FederatedLR(VFLContext(VFLConfig(key_bits=KEY_BITS), seed=3), 4, 2)
    with pytest.raises(CheckpointError):
        train_federated(wrong, train_vd, _config(), resume_from=path)


# --------------------------------------------------------------------------
# resume disagreeing with the (frozen) run configuration


def test_endpoint_resume_is_bit_identical(tmp_path):
    """An endpoint checkpoint (RNG and blinding streams, model pieces)
    resumes a multi-party run onto the uninterrupted losses."""
    from repro.core.multiparty import MultiPartyLR
    from repro.core.trainer import train_multiparty

    rng = np.random.default_rng(4)
    x = {p: rng.normal(size=(8, 2)) for p in ("A1", "A2", "B")}
    y = (rng.random(8) < 0.5).astype(np.float64)

    def build():
        ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=3, n_a_parties=2)
        return MultiPartyLR(ctx, {"A1": 2, "A2": 2}, 2)

    path = str(tmp_path / "endpoint.ckpt")
    saved = train_multiparty(
        build(), x, y, TrainConfig(checkpoint_path=path, checkpoint_every=1),
        steps=2,
    )
    whole = train_multiparty(build(), x, y, TrainConfig(), steps=3)
    resumed = train_multiparty(
        build(), x, y, TrainConfig(), steps=3, resume_from=path
    )
    assert resumed == whole and resumed[:2] == saved


@pytest.mark.parametrize("saved_packing", [True, False])
def test_resume_with_the_other_packing_raises(tmp_path, saved_packing):
    """A resident piece's form (packed vs per-element) is fixed by
    ``VFLConfig.packing`` when the model is built; a checkpoint holding the
    other form is refused instead of being migrated at the next refresh."""
    from repro.core.models import FederatedMLR

    vd = split_vertical(make_dense_classification(48, 6, n_classes=3, seed=9))

    def build(packing):
        ctx = VFLContext(VFLConfig(key_bits=256, packing=packing), seed=3)
        return FederatedMLR(ctx, 3, 3, n_classes=3)

    path = str(tmp_path / "form.ckpt")
    cfg = _config(epochs=1, checkpoint_path=path, checkpoint_every=1)
    reference = train_federated(build(saved_packing), vd, cfg, max_batches_per_epoch=2)
    same = train_federated(
        build(saved_packing), vd, _config(epochs=1), max_batches_per_epoch=2,
        resume_from=path,
    )
    assert same.losses == reference.losses  # matching config still resumes
    with pytest.raises(CheckpointError, match=r"\[\[V\]\].*VFLConfig.packing"):
        train_federated(
            build(not saved_packing), vd, _config(epochs=1), resume_from=path
        )


# --------------------------------------------------------------------------
# Embed-MatMul checkpoints across the change that stacked the cross operand.


def _refused_parent_fixture(packing):
    import checkpoint_fixtures as fx

    vd = fx.dataset()
    # The fixture is in the current wire format: decoding and re-encoding
    # every frame writes it again byte for byte, so the refusal below is
    # by name, never by wire version.
    blob = fx.fixture_path(packing).read_bytes()
    ring = model_key_ring(fx.build(packing, vd))
    assert blob == b"".join(
        codec.encode_payload_frame(codec.decode_payload(body, ring))
        for _, body in codec.iter_frames(blob)
    )
    with pytest.raises(
        CheckpointError, match=r"wdl.deep'.*\[\[U\]\] and \[\[V\]\] as separate pieces"
    ):
        train_federated(
            fx.build(packing, vd), vd, fx.config(), resume_from=str(fx.fixture_path(packing))
        )


def test_unpacked_embed_checkpoint_of_the_parent_commit_is_refused_by_name(tmp_path):
    """The parent's Embed-MatMul section holds ``[[U]]`` and ``[[V]]`` as two
    pieces where this code holds the stacked ``[[V ; U]]``: the load names
    the layer and the pieces.  What this code writes at the same point
    resumes to the uninterrupted losses."""
    import checkpoint_fixtures as fx

    _refused_parent_fixture(packing=False)
    vd = fx.dataset()
    path = str(tmp_path / "now.ckpt")
    saved = fx.write(path, packing=False)
    whole = train_federated(fx.build(False, vd), vd, fx.config())
    resumed = train_federated(fx.build(False, vd), vd, fx.config(), resume_from=path)
    assert resumed.losses == whole.losses and len(whole.losses) > fx.SAVED_BATCHES
    assert resumed.losses[: fx.SAVED_BATCHES] == saved.losses


def test_packed_embed_checkpoint_of_the_parent_commit_is_refused_by_name():
    """The parent's packed section (``[[U]]``, and ``[[V]]`` as its pair of
    forms) is refused the same way, not by failing to unpack a tuple."""
    _refused_parent_fixture(packing=True)


def test_embed_restore_checks_both_forms_of_v(tmp_path):
    """A packed Embed-MatMul checkpoint round-trips with the stacked cross
    operand and B's ``[[V^T]]``; A's end holds no transposed form; and a
    saved piece that does not match the rebuilt model's — any of the eight
    plaintext or the encrypted pieces, in shape or in form — is refused by
    name instead of dying in a broadcast at the first forward."""
    import checkpoint_fixtures as fx

    vd = fx.dataset()
    path = str(tmp_path / "pair.ckpt")
    saved = fx.write(path, packing=True)
    whole = train_federated(fx.build(True, vd), vd, fx.config())
    resumed = train_federated(fx.build(True, vd), vd, fx.config(), resume_from=path)
    assert resumed.losses == whole.losses and resumed.losses[:2] == saved.losses

    layer = fx.build(True, vd).deep
    kind, step, side_a, side_b = layer.checkpoint_state()
    slots = ("s", "t_peer", "u", "v_peer", "vel_s", "vel_t_peer", "vel_u", "vel_v_peer",
             "[[T]]", "[[V ; U]]", "[[V]]", "[[V^T]]")
    assert len(side_a) == len(side_b) == len(slots)
    assert side_a[-2:] == (None, None)  # A never transposes [[V_A]]
    assert (side_b[-3].shape, side_b[-2], side_b[-1].shape) == ((8, 2), None, (2, 4))
    unpacked = fx.build(False, vd).deep.checkpoint_state()[3]
    other_ctx = VFLContext(VFLConfig(key_bits=256, packing=True), seed=17)
    wider = EmbedMatMulSource(
        other_ctx, vd.party("A").vocab_sizes, vd.party("B").vocab_sizes, emb_dim=4, out_dim=2
    ).checkpoint_state()[3]

    def refused(index, bad, message):
        index %= len(side_b)
        broken = (*side_b[:index], bad, *side_b[index + 1 :])
        with pytest.raises(ValueError, match=message):
            layer.load_checkpoint_state((kind, step, side_a, broken))
        assert layer._step == 0 and layer.checkpoint_state()[3][0] is side_b[0]

    refused(-1, None, r"\[\[V\^T\]\] as NoneType.*VFLConfig.packing=True")
    refused(-3, unpacked[-3], r"\[\[V ; U\]\] as CryptoTensor.*VFLConfig.packing=True")
    refused(-2, unpacked[-3], r"\[\[V\]\] as CryptoTensor.*builds it as NoneType")
    for index, name in enumerate(slots):  # every piece B's end holds
        if side_b[index] is not None:
            assert wider[index].shape != side_b[index].shape
            refused(index, wider[index], "piece " + re.escape(name) + " has shape")
    layer.load_checkpoint_state((kind, 7, side_a, side_b))
    assert layer._step == 7
