"""Tests for the appendix extensions: multi-party (Alg. 3) and SS tops (App. B)."""

import numpy as np
import pytest

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
    ctx = two_ctx()
    with pytest.raises(ValueError, match="two-party"):
        MultiPartyMatMulSource(ctx, {"A": 3}, in_b=3, out_dim=1)
    mctx = mp_ctx(m=2)
    with pytest.raises(ValueError, match="cover"):
        MultiPartyMatMulSource(mctx, {"A1": 3}, in_b=3, out_dim=1)


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
    second ``gZ`` round on the wire and overwrite the pending shares."""
    ctx = mp_ctx(m=2)
    layer = MultiPartyMatMulSource(ctx, {"A1": 3, "A2": 3}, in_b=3, out_dim=1)
    layer.forward({n: rng.normal(size=(4, 3)) for n in ("A1", "A2", "B")})
    grad_z = rng.normal(size=(4, 1)) * 0.1
    layer.backward(grad_z)
    channel = ctx.channel
    before = (
        {p: channel.pending(p) for p in ("A1", "A2", "B")},
        len(channel.transcript),
        {p: party.rng.bit_generator.state for p, party in ctx.parties.items()},
    )
    with pytest.raises(RuntimeError, match="pending updates not applied"):
        layer.backward(grad_z)
    assert before == (
        {p: channel.pending(p) for p in ("A1", "A2", "B")},
        len(channel.transcript),
        {p: party.rng.bit_generator.state for p, party in ctx.parties.items()},
    )
    layer.apply_updates(lr=0.05, momentum=0.9)  # the step still completes


@pytest.mark.parametrize("m", [2, 3])
def test_multiparty_step_is_five_messages_deep(m):
    """The counted gate of the send-early order: Appendix C's data
    dependencies need 5 dependent messages per ``train_step`` at any M —
    ``XVB_i -> Z_i -> gZ_i -> gW_i -> upd.encV_i`` — where the program
    order of Algorithm 3 as written chained 4M + 1 (9 and 13 here)."""
    ctx = mp_ctx(m=m)
    model = MultiPartyLR(ctx, {a: 2 for a in ctx.a_names}, 2)
    data = np.random.default_rng(0)
    x = {p: data.normal(size=(4, 2)) for p in (*ctx.a_names, "B")}
    y = (data.random(4) < 0.5).astype(np.float64)
    tracer = Tracer()
    with use_tracer(tracer):
        for k in range(2):
            with span("batch", batch=k):
                model.train_step(x, y, lr=0.1)
    report = critical_path(merge_traces({"local": tracer.to_dicts()}))
    assert [step["depth"] for step in report] == [5, 5]
    for step in report:
        assert len(step["messages"]) == 6 * m
        # All-local nothing ever blocks: one busy segment, the whole step.
        assert all(
            msg["wait_s"] == 0.0 and msg["slack_s"] > 0.0 for msg in step["messages"]
        )
        (segment,) = step["segments"]
        assert segment["busy_s"] == step["wall_s"] and segment["wait_s"] == 0.0


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
            forms.append((layer._a.enc_v_own, layer._b.enc_v_own))
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
