"""Tests for the appendix extensions: multi-party (Alg. 3) and SS tops (App. B)."""

import numpy as np
import pytest

from repro.comm.codec import message_summary
from repro.comm.message import MessageKind
from repro.comm.party import VFLConfig, VFLContext
from repro.core.federated_top import (
    IdealSSTop,
    matmul_backward_from_shares,
    train_lr_with_ss_top,
)
from repro.core.matmul_layer import MatMulSource
from repro.core.multiparty import MultiPartyLR, MultiPartyMatMulSource
from repro.core.trainer import TrainConfig
from repro.data.partition import split_vertical
from repro.data.synthetic import make_dense_classification
from repro.obs import Tracer, span, use_tracer
from repro.obs.collect import critical_path, merge_traces

KEY_BITS = 128


def mp_ctx(m=2, seed=8):
    return VFLContext(VFLConfig(key_bits=KEY_BITS), seed=seed, n_a_parties=m)


def two_ctx(seed=8):
    return VFLContext(VFLConfig(key_bits=KEY_BITS), seed=seed)


# ---------- Algorithm 3: multi-party ----------


def test_multiparty_forward_lossless(rng):
    ctx = mp_ctx(m=2)
    layer = MultiPartyMatMulSource(ctx, {"A1": 4, "A2": 3}, in_b=5, out_dim=2)
    w = layer.reveal_weights()
    x = {
        "A1": rng.normal(size=(6, 4)),
        "A2": rng.normal(size=(6, 3)),
        "B": rng.normal(size=(6, 5)),
    }
    z = layer.forward(x)
    expected = x["A1"] @ w["W_A1"] + x["A2"] @ w["W_A2"] + x["B"] @ w["W_B"]
    np.testing.assert_allclose(z, expected, atol=1e-4)


def test_multiparty_three_a_parties(rng):
    ctx = mp_ctx(m=3)
    dims = {"A1": 3, "A2": 3, "A3": 2}
    layer = MultiPartyMatMulSource(ctx, dims, in_b=4, out_dim=1)
    w = layer.reveal_weights()
    x = {name: rng.normal(size=(5, d)) for name, d in dims.items()}
    x["B"] = rng.normal(size=(5, 4))
    z = layer.forward(x)
    expected = sum(x[n] @ w[f"W_{n}"] for n in dims) + x["B"] @ w["W_B"]
    np.testing.assert_allclose(z, expected, atol=1e-4)


def test_multiparty_backward_matches_plaintext(rng):
    ctx = mp_ctx(m=2)
    layer = MultiPartyMatMulSource(ctx, {"A1": 4, "A2": 3}, in_b=5, out_dim=1)
    w0 = layer.reveal_weights()
    x = {
        "A1": rng.normal(size=(6, 4)),
        "A2": rng.normal(size=(6, 3)),
        "B": rng.normal(size=(6, 5)),
    }
    layer.forward(x)
    grad_z = rng.normal(size=(6, 1)) * 0.1
    layer.backward(grad_z)
    layer.apply_updates(lr=0.1, momentum=0.0)
    w1 = layer.reveal_weights()
    for name in ("A1", "A2", "B"):
        np.testing.assert_allclose(
            w1[f"W_{name}"],
            w0[f"W_{name}"] - 0.1 * (x[name].T @ grad_z),
            atol=1e-4,
        )


def test_multiparty_no_plaintext_messages(rng):
    ctx = mp_ctx(m=2)
    layer = MultiPartyMatMulSource(ctx, {"A1": 3, "A2": 3}, in_b=3, out_dim=1)
    x = {n: rng.normal(size=(4, 3)) for n in ("A1", "A2", "B")}
    layer.forward(x)
    layer.backward(rng.normal(size=(4, 1)))
    layer.apply_updates(lr=0.05, momentum=0.9)
    assert MessageKind.PLAINTEXT not in {m.kind for m in ctx.channel.transcript}


def test_multiparty_validation():
    mctx = mp_ctx(m=2)
    with pytest.raises(ValueError, match="cover"):
        MultiPartyMatMulSource(mctx, {"A1": 3}, in_b=3, out_dim=1)
    with pytest.raises(ValueError, match="positive"):
        MultiPartyMatMulSource(mctx, {"A1": 3, "A2": 0}, in_b=3, out_dim=1)
    # One spoke is Figure 6: accepted, no "use MatMulSource" refusal.
    layer = MultiPartyMatMulSource(two_ctx(), {"A": 3}, in_b=3, out_dim=1)
    assert set(layer.reveal_weights()) == {"W_A", "W_B"}
    # Delta refresh needs hub and spokes in one process (B learns from the
    # driver whether a spoke's batch was sparse): a split endpoint refuses it.
    split = VFLContext(
        VFLConfig(key_bits=KEY_BITS, share_refresh="delta"), seed=8, local_parties={"B"}
    )
    for build in (
        lambda: MultiPartyMatMulSource(split, {"A": 3}, in_b=3, out_dim=1),
        lambda: MatMulSource(split, 3, 3, 1),
    ):
        with pytest.raises(ValueError, match="share_refresh='delta' needs every party"):
            build()


def test_one_spoke_multiparty_is_the_two_party_program(rng):
    """Figure 6 is Algorithm 3 at M = 1: on identically seeded contexts the
    two public classes put the same frames on the wire — tag for tag up to
    the three B-side spellings — and hold float-identical pieces."""
    spelling = {"init.encVB_A": "init.encV_B", "fwd.XVB_A": "fwd.XV_B", "bwd.gZ_A": "bwd.gZ"}
    batches = [
        (rng.normal(size=(4, 3)), rng.normal(size=(4, 2)), rng.normal(size=(4, 2)) * 0.1)
        for _ in range(3)
    ]
    runs = {}
    for cls in (MatMulSource, MultiPartyMatMulSource):
        ctx = VFLContext(VFLConfig(key_bits=KEY_BITS, channel="serializing"), seed=31)
        dims = 3 if cls is MatMulSource else {"A": 3}
        layer = cls(ctx, dims, 2, 2, name="same")
        outs = []
        for x_a, x_b, gz in batches:
            z = layer.forward(x_a, x_b) if cls is MatMulSource else layer.forward({"A": x_a, "B": x_b})
            outs.append(z)
            layer.backward(gz)
            layer.apply_updates(lr=0.05, momentum=0.9)
        records = [message_summary(m) for m in ctx.channel.transcript]
        for rec in records:  # a frame carries its tag: length net of it
            rec["nbytes"] -= len(rec["tag"])
            for theirs, figure6 in spelling.items():
                if rec["tag"].endswith(theirs):
                    rec["tag"] = rec["tag"][: -len(theirs)] + figure6
        pieces = (layer._a if cls is MatMulSource else layer._a["A"], layer._b)
        runs[cls] = (records, outs, pieces)
    (rec2, out2, (a2, b2)), (rec1, out1, (a1, b1)) = runs[MatMulSource], runs[MultiPartyMatMulSource]
    assert rec1 == rec2 and len(rec2) == 2 + 3 * 6
    for z1, z2 in zip(out1, out2):  # same terms, summed in each class's own order
        np.testing.assert_allclose(z1, z2, rtol=0, atol=1e-9)
    for piece in ("u", "v_b"):
        assert np.array_equal(getattr(a1, piece), getattr(a2, piece))
    assert np.array_equal(b1.u, b2.u) and np.array_equal(b1.v_a["A"], b2.v_a["A"])


def test_multiparty_federated_parameters():
    ctx = mp_ctx(m=2)
    layer = MultiPartyMatMulSource(ctx, {"A1": 3, "A2": 4}, in_b=5, out_dim=1)
    params = {p.name: p for p in layer.federated_parameters()}
    assert set(params) == {"mp-matmul.W_A1", "mp-matmul.W_A2", "mp-matmul.W_B"}
    assert params["mp-matmul.W_B"].holders == {"U": "B", "V(A1)": "A1", "V(A2)": "A2"}


def test_multiparty_momentum_training_steps(rng):
    ctx = mp_ctx(m=2)
    layer = MultiPartyMatMulSource(ctx, {"A1": 3, "A2": 3}, in_b=3, out_dim=1)
    w = layer.reveal_weights()
    ref = {k: v.copy() for k, v in w.items()}
    vel = {k: np.zeros_like(v) for k, v in w.items()}
    for _ in range(2):
        x = {n: rng.normal(size=(4, 3)) for n in ("A1", "A2", "B")}
        layer.forward(x)
        gz = rng.normal(size=(4, 1)) * 0.1
        layer.backward(gz)
        layer.apply_updates(lr=0.05, momentum=0.9)
        for n in ("A1", "A2", "B"):
            vel[f"W_{n}"] = 0.9 * vel[f"W_{n}"] + x[n].T @ gz
            ref[f"W_{n}"] -= 0.05 * vel[f"W_{n}"]
    w1 = layer.reveal_weights()
    for k in ref:
        np.testing.assert_allclose(w1[k], ref[k], atol=1e-4)


def test_multiparty_second_backward_is_refused_before_anything_is_sent(rng):
    """Like both two-party layers: a second ``backward`` used to put a
    second ``gZ`` round on the wire and overwrite the pending shares, and a
    ``backward`` after an inference-only forward used to contract ``gZ``
    with the *previous* training batch (the shared program clears the batch
    cache on inference).  Both are refused before anything is drawn or sent."""
    ctx = mp_ctx(m=2)
    layer = MultiPartyMatMulSource(ctx, {"A1": 3, "A2": 3}, in_b=3, out_dim=1)
    x = {n: rng.normal(size=(4, 3)) for n in ("A1", "A2", "B")}
    layer.forward(x)
    grad_z = rng.normal(size=(4, 1)) * 0.1
    layer.backward(grad_z)
    channel = ctx.channel

    def observable():
        return (
            {p: channel.pending(p) for p in ("A1", "A2", "B")},
            len(channel.transcript),
            {p: party.rng.bit_generator.state for p, party in ctx.parties.items()},
        )

    before = observable()
    with pytest.raises(RuntimeError, match="pending updates not applied"):
        layer.backward(grad_z)
    assert before == observable()
    layer.apply_updates(lr=0.05, momentum=0.9)  # the step still completes
    layer.forward(x, train=False)
    before = observable()
    with pytest.raises(RuntimeError, match="inference-only forward"):
        layer.backward(grad_z)
    assert before == observable()


def _traced_depth(step, n_steps=2):
    tracer = Tracer()
    with use_tracer(tracer):
        for k in range(n_steps):
            with span("batch", batch=k):
                step()
    return critical_path(merge_traces({"local": tracer.to_dicts()}))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_multiparty_step_is_five_messages_deep(m):
    """The counted gate of the send-early order: Appendix C's data
    dependencies need 5 dependent messages per ``train_step`` at any M —
    ``XVB_i -> Z_i -> gZ_i -> gW_i -> upd.encV_i`` — where the program
    order of Algorithm 3 as written chained 4M + 1 (9 and 13 at M = 2, 3)."""
    ctx = mp_ctx(m=m)
    model = MultiPartyLR(ctx, {a: 2 for a in ctx.a_names}, 2)
    data = np.random.default_rng(0)
    x = {p: data.normal(size=(4, 2)) for p in (*ctx.a_names, "B")}
    y = (data.random(4) < 0.5).astype(np.float64)
    report = _traced_depth(lambda: model.train_step(x, y, lr=0.1))
    assert [step["depth"] for step in report] == [5, 5]
    for step in report:
        assert len(step["messages"]) == 6 * m
        # All-local nothing ever blocks: one busy segment, the whole step.
        assert all(
            msg["wait_s"] == 0.0 and msg["slack_s"] > 0.0 for msg in step["messages"]
        )
        (segment,) = step["segments"]
        assert segment["busy_s"] == step["wall_s"] and segment["wait_s"] == 0.0


def test_two_party_matmul_step_is_five_messages_deep(rng):
    """The same program at M = 1 under its Figure 6 name: a ``MatMulSource``
    step is 6 messages, 5 deep (``XV_B -> Z_A -> gZ -> gW_A -> upd.encV_A``)."""
    layer = MatMulSource(two_ctx(), 3, 2, 2, name="d")
    x_a, x_b, gz = rng.normal(size=(4, 3)), rng.normal(size=(4, 2)), rng.normal(size=(4, 2))

    def step():
        layer.forward(x_a, x_b)
        layer.backward(gz)
        layer.apply_updates(lr=0.05, momentum=0.9)

    report = _traced_depth(step)
    assert [(s["depth"], len(s["messages"])) for s in report] == [(5, 6), (5, 6)]
    deepest = max(report[0]["messages"], key=lambda msg: msg["depth"])
    assert deepest["tag"] == "d.1.upd.encV_A"


# ---------- Appendix B: SS-based top model ----------


def test_ss_top_backward_matches_plaintext(rng):
    """Figure 13 backward must equal the plaintext update exactly."""
    ctx = two_ctx()
    layer = MatMulSource(ctx, 4, 3, 1, name="sst")
    w0 = layer.reveal_weights()
    x_a = rng.normal(size=(6, 4))
    x_b = rng.normal(size=(6, 3))
    z_a, z_b = layer.forward_shares(x_a, x_b)
    w = layer.reveal_weights()
    np.testing.assert_allclose(
        z_a + z_b, x_a @ w["W_A"] + x_b @ w["W_B"], atol=1e-5
    )
    grad_z = rng.normal(size=(6, 1)) * 0.1
    eps = rng.uniform(-100, 100, size=(6, 1))
    matmul_backward_from_shares(layer, eps, grad_z - eps, lr=0.1, momentum=0.0)
    w1 = layer.reveal_weights()
    np.testing.assert_allclose(w1["W_A"], w0["W_A"] - 0.1 * x_a.T @ grad_z, atol=1e-4)
    np.testing.assert_allclose(w1["W_B"], w0["W_B"] - 0.1 * x_b.T @ grad_z, atol=1e-4)


def test_ss_top_second_iteration_consistent(rng):
    """After the dual refresh, the next forward uses the updated weights."""
    ctx = two_ctx()
    layer = MatMulSource(ctx, 3, 3, 1, name="sst2")
    x_a, x_b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    layer.forward_shares(x_a, x_b)
    grad_z = rng.normal(size=(4, 1)) * 0.1
    eps = rng.uniform(-10, 10, size=(4, 1))
    matmul_backward_from_shares(layer, eps, grad_z - eps, lr=0.1, momentum=0.0)
    w1 = layer.reveal_weights()
    z_a, z_b = layer.forward_shares(x_a, x_b)
    np.testing.assert_allclose(
        z_a + z_b, x_a @ w1["W_A"] + x_b @ w1["W_B"], atol=1e-4
    )


def test_ss_top_backward_keeps_the_resident_form():
    """The Appendix B backward follows the layer's packing policy: packed
    [[V]] caches stay packed under one layout, the gW transfers ship packed,
    and the trajectory equals the unpacked one float-exactly."""
    from repro.crypto.packing import PackedCryptoTensor

    def run(packing):
        ctx = VFLContext(VFLConfig(key_bits=256, packing=packing), seed=8)
        layer = MatMulSource(ctx, 3, 3, 4, name="sst3")
        top = IdealSSTop(np.random.default_rng(3))
        rng = np.random.default_rng(4)
        forms, losses = [], []
        for _ in range(3):
            x_a, x_b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
            z_a, z_b = layer.forward_shares(x_a, x_b)
            eps, rest, _ = top.backward_shares(
                z_a.sum(axis=1, keepdims=True), z_b.sum(axis=1, keepdims=True),
                rng.integers(0, 2, size=(4, 1)),
            )
            matmul_backward_from_shares(
                layer, np.tile(eps, 4), np.tile(rest, 4), lr=0.1, momentum=0.9
            )
            forms.append((layer._a.enc_v_own, layer._b.enc_v_b["A"]))
            losses.append(float((z_a + z_b).sum()))
        return ctx, layer, forms, losses

    ctx, layer, forms, packed_losses = run(packing=True)
    layouts = {"A": layer._piece_layout(ctx.B.public_key), "B": layer._piece_layout(ctx.A.public_key)}
    assert None not in layouts.values()
    for enc_a, enc_b in forms:
        assert type(enc_a) is type(enc_b) is PackedCryptoTensor
        assert (enc_a.layout, enc_b.layout) == (layouts["A"], layouts["B"])
    transfers = [m.payload for m in ctx.channel.transcript if ".sstop.gW_" in m.tag]
    assert len(transfers) == 6
    assert all(type(t) is PackedCryptoTensor and t.contiguous for t in transfers)
    assert [x.hex() for x in packed_losses] == [x.hex() for x in run(packing=False)[3]]


def test_ideal_ss_top_grad_is_bce_grad(rng):
    top = IdealSSTop(rng)
    z_a = rng.normal(size=(8, 1))
    z_b = rng.normal(size=(8, 1))
    y = rng.integers(0, 2, size=(8, 1)).astype(float)
    eps, rest, loss = top.backward_shares(z_a, z_b, y)
    z = z_a + z_b
    probs = 1 / (1 + np.exp(-z))
    np.testing.assert_allclose(eps + rest, (probs - y) / 8, atol=1e-9)
    assert loss > 0


def test_train_lr_with_ss_top_converges():
    full = make_dense_classification(160, 8, seed=40, flip=0.02, nonlinear=False)
    train = split_vertical(full.subset(np.arange(120)))
    test = split_vertical(full.subset(np.arange(120, 160)))
    ctx = two_ctx()
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.1, momentum=0.9)
    layer, history = train_lr_with_ss_top(ctx, train, cfg, test_data=test)
    assert history.losses[-1] < history.losses[0]
    assert history.epoch_metrics[-1] > 0.6
    # Party B never received the aggregated Z: no OUTPUT_SHARE messages.
    kinds = {m.kind for m in ctx.channel.transcript}
    assert MessageKind.OUTPUT_SHARE not in kinds
    assert MessageKind.PLAINTEXT not in kinds
