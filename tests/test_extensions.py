"""Tests for the appendix extensions: multi-party (Alg. 3) and SS tops (App. B)."""

import numpy as np
import pytest

from golden_transcript import message_summary
from repro.comm.fabric import run_federation
from repro.comm.message import MessageKind
from repro.comm.party import VFLConfig, VFLContext
from repro.core.embed_matmul_layer import EmbedMatMulSource
from repro.core.matmul_layer import MatMulSource
from repro.core.models import FederatedSSLR
from repro.core.multiparty import MultiPartyLR, MultiPartyMatMulSource
from repro.core.trainer import TrainConfig, evaluate_federated, predict, train_federated
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


@pytest.mark.parametrize("packing", [False, True], ids=["unpacked", "packed"])
@pytest.mark.parametrize("refresh", ["reencrypt", "delta"])
def test_embed_matmul_step_is_six_messages_deep(packing, refresh):
    """Figure 7's data dependencies need 6 dependent messages per step —
    ``lkT_A -> cross_B -> Z_A -> gZ -> crossT -> upd.VU_A`` — and the end
    programs' send-early passes reach that in every cell, where the one
    script that played both parties chained 9."""
    cfg = VFLConfig(key_bits=256 if packing else KEY_BITS, packing=packing, share_refresh=refresh)
    layer = EmbedMatMulSource(VFLContext(cfg, seed=8), [4, 3], [5, 2], 2, 2, name="e")
    data = np.random.default_rng(0)
    x_a, x_b = data.integers(0, [4, 3], size=(4, 2)), data.integers(0, [5, 2], size=(4, 2))
    gz = data.normal(size=(4, 2)) * 0.1

    def step():
        layer.forward(x_a, x_b)
        layer.backward(gz)
        layer.apply_updates(lr=0.05, momentum=0.9)

    report = _traced_depth(step)
    assert [s["depth"] for s in report] == [6, 6]
    depth = {m["tag"].split(".", 2)[2]: m["depth"] for m in report[0]["messages"]}
    chain = ("fwd.lkT_A", "fwd.cross_B", "fwd.Z_A", "bwd.gZ", "bwd.crossT", "upd.VU_A")
    assert [depth[tag] for tag in chain] == [1, 2, 3, 4, 5, 6]


# ---------- Appendix B: SS-based top model ----------


def ss_ctx(packing, seed=8):
    """Packed cells need 256-bit keys: 128-bit ones fit no two slots."""
    return VFLContext(VFLConfig(key_bits=256 if packing else KEY_BITS, packing=packing),
                      seed=seed)


def test_ss_top_backward_matches_plaintext(rng):
    """Figure 13 backward must equal the plaintext update exactly, packed
    or not."""
    for packing in (False, True):
        ctx = ss_ctx(packing)
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
        layer.backward_shares(eps, grad_z - eps)
        layer.apply_updates(lr=0.1, momentum=0.0)
        w1 = layer.reveal_weights()
        np.testing.assert_allclose(w1["W_A"], w0["W_A"] - 0.1 * x_a.T @ grad_z, atol=1e-4)
        np.testing.assert_allclose(w1["W_B"], w0["W_B"] - 0.1 * x_b.T @ grad_z, atol=1e-4)


def test_ss_top_second_iteration_consistent(rng):
    """After the dual refresh, the next forward uses the updated weights,
    packed or not."""
    for packing in (False, True):
        ctx = ss_ctx(packing)
        layer = MatMulSource(ctx, 3, 3, 1, name="sst2")
        x_a, x_b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        layer.forward_shares(x_a, x_b)
        grad_z = rng.normal(size=(4, 1)) * 0.1
        eps = rng.uniform(-10, 10, size=(4, 1))
        layer.backward_shares(eps, grad_z - eps)
        layer.apply_updates(lr=0.1, momentum=0.0)
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
        ctx = ss_ctx(packing)
        layer = MatMulSource(ctx, 3, 3, 4, name="sst3")
        masks = np.random.default_rng(3)
        rng = np.random.default_rng(4)
        forms, losses = [], []
        for _ in range(3):
            x_a, x_b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
            z_a, z_b = layer.forward_shares(x_a, x_b)
            # The Taylor head's shares, with an extra mask moved between them.
            y = rng.integers(0, 2, size=(4, 1))
            eps = masks.uniform(-2.0**16, 2.0**16, size=(4, 4))
            layer.backward_shares(z_a / 16 + eps, (z_b / 4 + 0.5 - y) / 4 - eps)
            layer.apply_updates(lr=0.1, momentum=0.9)
            forms.append((layer._a.enc_v_own, layer._b.enc_v_b["A"]))
            losses.append(float((z_a + z_b).sum()))
        return ctx, layer, forms, losses

    ctx, layer, forms, packed_losses = run(packing=True)
    layouts = {"A": layer._piece_layout(ctx.B.public_key), "B": layer._piece_layout(ctx.A.public_key)}
    assert None not in layouts.values()
    for enc_a, enc_b in forms:
        assert type(enc_a) is type(enc_b) is PackedCryptoTensor
        assert (enc_a.layout, enc_b.layout) == (layouts["A"], layouts["B"])
    transfers = [m.payload for m in ctx.channel.transcript if ".bwd.gW_" in m.tag]
    assert len(transfers) == 6
    assert all(type(t) is PackedCryptoTensor and t.contiguous for t in transfers)
    # Ciphertexts per step: the SS2HE pieces of the 4 x 4 grad_Z shares
    # still cross per element beside the packed gW transfers, so packing
    # them shows here as a count delta.
    per_step: dict[str, list[int]] = {}
    for m in ctx.channel.transcript:
        phase = m.tag.split(".", 2)[-1]
        if phase.startswith(("ss.gZ_", "bwd.gW_")):
            packed = isinstance(m.payload, PackedCryptoTensor)
            per_step.setdefault(phase, []).append(m.payload.n_ciphertexts if packed else m.payload.size)
    assert per_step == {"ss.gZ_A": [16] * 3, "ss.gZ_B": [16] * 3, "bwd.gW_A": [6] * 3, "bwd.gW_B": [6] * 3}
    assert [x.hex() for x in packed_losses] == [x.hex() for x in run(packing=False)[3]]


def test_ss_top_refuses_the_delta_refresh():
    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS, share_refresh="delta"), seed=8)
    layer = MatMulSource(ctx, 2, 2, 1)
    layer.forward_shares(np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError, match="share_refresh='delta' is not supported"):
        layer.backward_shares(np.zeros((2, 1)), np.zeros((2, 1)))


def _sslr_data(n, d, seed):
    return make_dense_classification(n, d, seed=seed, flip=0.02, nonlinear=False)


# What the parent's ideal (exact-sigmoid) F_TopSS box reached on this data
# and these seeds before it was replaced by the Taylor head.
IDEAL_TOP_AUC = 0.9470


def test_train_lr_with_ss_top_converges():
    """Appendix B LR trains under ``train_federated``: no party sees a
    loss, and the Taylor head keeps the ideal head's test AUC."""
    full = _sslr_data(160, 8, seed=40)
    train = split_vertical(full.subset(np.arange(120)))
    test = split_vertical(full.subset(np.arange(120, 160)))
    model = FederatedSSLR(two_ctx(), 4, 4)
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.1, momentum=0.9)
    history = train_federated(model, train, cfg, test_data=test)
    assert history.losses == [None] * 14
    assert history.epoch_metrics[-1] >= IDEAL_TOP_AUC - 0.01


def _taylor_lr(w_a, w_b, data, cfg):
    """Float64 numpy Taylor-LR with the trainer's batch order and momentum."""
    x_a, x_b = data.party("A").numeric_block(), data.party("B").numeric_block()
    y, order_rng = data.y.reshape(-1, 1), np.random.default_rng(cfg.seed)
    vel_a, vel_b = np.zeros_like(w_a), np.zeros_like(w_b)
    for _ in range(cfg.epochs):
        order = np.arange(data.n)
        order_rng.shuffle(order)
        for lo in range(0, data.n - cfg.batch_size + 1, cfg.batch_size):
            i = order[lo:lo + cfg.batch_size]
            g = ((x_a[i] @ w_a + x_b[i] @ w_b) / 4 + 0.5 - y[i]) / cfg.batch_size
            vel_a, vel_b = cfg.momentum * vel_a + x_a[i].T @ g, cfg.momentum * vel_b + x_b[i].T @ g
            w_a, w_b = w_a - cfg.lr * vel_a, w_b - cfg.lr * vel_b
    return w_a, w_b


def test_sslr_weights_match_a_plaintext_taylor_lr():
    train = split_vertical(_sslr_data(120, 8, seed=40))
    model = FederatedSSLR(two_ctx(), 4, 4)
    w0 = model.source.reveal_weights()
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.1, momentum=0.9)
    train_federated(model, train, cfg)
    w_a, w_b = _taylor_lr(w0["W_A"], w0["W_B"], train, cfg)
    w = model.source.reveal_weights()
    np.testing.assert_allclose(w["W_A"], w_a, rtol=0, atol=1e-6)
    np.testing.assert_allclose(w["W_B"], w_b, rtol=0, atol=1e-6)


def test_sslr_training_never_shows_b_z_or_grad_z():
    """While training, nothing B receives is an output share or plaintext;
    only inference releases Z to B."""
    ctx = two_ctx()
    data = split_vertical(_sslr_data(64, 6, seed=41))
    model = FederatedSSLR(ctx, 3, 3)
    train_federated(model, data, TrainConfig(epochs=1, batch_size=16, lr=0.1))
    to_b = [m for m in ctx.channel.transcript if m.receiver == "B"]
    assert to_b and {m.kind for m in to_b} == {MessageKind.CIPHERTEXT}
    sent = len(ctx.channel.transcript)
    predict(model, data, batch_size=64)
    released = [m for m in ctx.channel.transcript[sent:] if m.kind == MessageKind.OUTPUT_SHARE]
    assert [(m.sender, m.receiver) for m in released] == [("A", "B")]


def sslr_program(channel=None):
    """Four Appendix B steps, then B's scores; each endpoint reports the
    plaintext pieces and velocities it hosts."""
    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=8, channel=channel)
    data = split_vertical(_sslr_data(64, 6, seed=41))
    model = FederatedSSLR(ctx, 3, 3)
    history = train_federated(model, data, TrainConfig(epochs=1, batch_size=16, lr=0.1))
    spoke, hub = model.source._a, model.source._b
    pieces = {}
    if spoke is not None:
        pieces.update(U_A=spoke.u, VB_A=spoke.v_b, velU_A=spoke.vel_u, velVB_A=spoke.vel_v_b)
    if hub is not None:
        pieces.update(U_B=hub.u, V_A=hub.v_a["A"], velU_B=hub.vel_u, velVA_B=hub.vel_v_a["A"])
    return {"losses": history.losses, "scores": predict(model, data),
            "auc": evaluate_federated(model, data)["auc"], "pieces": pieces}


def test_sslr_trains_split_across_a_two_role_fabric():
    """Appendix B runs per endpoint: split across two processes, B's
    scores and every hosted piece equal the all-local run's bit for bit."""
    local = sslr_program()
    assert local["losses"] == [None] * 4
    split = run_federation(
        sslr_program, roles={"ep_a": ("A",), "ep_b": ("B",)}, timeout=90.0
    )["results"]
    a, b = split["ep_a"], split["ep_b"]
    assert a["scores"] is None and a["auc"] is None
    np.testing.assert_array_equal(b["scores"], local["scores"])
    assert b["auc"] == local["auc"]
    assert (set(a["pieces"]), set(b["pieces"])) == (
        {"U_A", "VB_A", "velU_A", "velVB_A"}, {"U_B", "V_A", "velU_B", "velVA_B"}
    )
    for name, arr in {**a["pieces"], **b["pieces"]}.items():
        np.testing.assert_array_equal(arr, local["pieces"][name], err_msg=name)
