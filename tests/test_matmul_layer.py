"""Protocol tests for the MatMul federated source layer (Figure 6).

The key properties, each tested directly:

* **lossless forward**: Z equals the plaintext ``X_A W_A + X_B W_B`` to
  fixed-point precision (the paper's obfuscation-cancellation identity);
* **lossless backward**: after ``apply_updates`` the reconstructed weights
  equal a plaintext SGD step exactly (including momentum, including the
  sparse "delta" mode);
* **security invariants**: no PLAINTEXT message ever crosses the wire, no
  party's view contains the other's features/weights, Party A sees no
  forward activation or derivative in the clear.
"""

import numpy as np
import pytest

from repro.comm.message import MessageKind
from repro.comm.party import VFLConfig, VFLContext
from repro.core.matmul_layer import MatMulSource
from repro.core.multiparty import MultiPartyMatMulSource
from repro.tensor.sparse import CSRMatrix

KEY_BITS = 128


def make_ctx(**kwargs) -> VFLContext:
    return VFLContext(VFLConfig(key_bits=KEY_BITS, **kwargs), seed=5)


@pytest.fixture()
def layer_and_data(rng):
    ctx = make_ctx()
    layer = MatMulSource(ctx, in_a=6, in_b=4, out_dim=3, name="t")
    x_a = rng.normal(size=(8, 6))
    x_b = rng.normal(size=(8, 4))
    return ctx, layer, x_a, x_b


def test_forward_is_lossless(layer_and_data):
    ctx, layer, x_a, x_b = layer_and_data
    w = layer.reveal_weights()
    z = layer.forward(x_a, x_b)
    np.testing.assert_allclose(z, x_a @ w["W_A"] + x_b @ w["W_B"], atol=1e-5)


def test_forward_output_at_party_b_only(layer_and_data):
    """The aggregated Z is assembled at B; A's share alone is not Z."""
    ctx, layer, x_a, x_b = layer_and_data
    z = layer.forward(x_a, x_b)
    share_msgs = [
        m for m in ctx.channel.view_of("B") if m.kind is MessageKind.OUTPUT_SHARE
    ]
    assert len(share_msgs) == 1
    assert not np.allclose(share_msgs[0].payload, z, atol=1.0)


def test_backward_matches_plaintext_sgd(layer_and_data, rng):
    ctx, layer, x_a, x_b = layer_and_data
    w0 = layer.reveal_weights()
    layer.forward(x_a, x_b)
    grad_z = rng.normal(size=(8, 3)) * 0.1
    layer.backward(grad_z)
    layer.apply_updates(lr=0.1, momentum=0.0)
    w1 = layer.reveal_weights()
    np.testing.assert_allclose(
        w1["W_A"], w0["W_A"] - 0.1 * (x_a.T @ grad_z), atol=1e-5
    )
    np.testing.assert_allclose(
        w1["W_B"], w0["W_B"] - 0.1 * (x_b.T @ grad_z), atol=1e-9
    )


def test_momentum_updates_match_plaintext(rng):
    """Three momentum steps on shares == three momentum steps on plaintext."""
    ctx = make_ctx()
    layer = MatMulSource(ctx, 5, 3, 2, name="m")
    w = layer.reveal_weights()
    ref_wa, ref_wb = w["W_A"].copy(), w["W_B"].copy()
    vel_a = np.zeros_like(ref_wa)
    vel_b = np.zeros_like(ref_wb)
    for step in range(3):
        x_a = rng.normal(size=(4, 5))
        x_b = rng.normal(size=(4, 3))
        layer.forward(x_a, x_b)
        grad_z = rng.normal(size=(4, 2)) * 0.1
        layer.backward(grad_z)
        layer.apply_updates(lr=0.05, momentum=0.9)
        vel_a = 0.9 * vel_a + x_a.T @ grad_z
        vel_b = 0.9 * vel_b + x_b.T @ grad_z
        ref_wa -= 0.05 * vel_a
        ref_wb -= 0.05 * vel_b
    w = layer.reveal_weights()
    np.testing.assert_allclose(w["W_A"], ref_wa, atol=1e-4)
    np.testing.assert_allclose(w["W_B"], ref_wb, atol=1e-6)


def test_sparse_inputs_supported(rng):
    ctx = make_ctx()
    layer = MatMulSource(ctx, 10, 8, 1, name="s")
    w0 = layer.reveal_weights()
    dense_a = rng.normal(size=(6, 10))
    dense_a[rng.random(dense_a.shape) < 0.7] = 0
    dense_b = rng.normal(size=(6, 8))
    dense_b[rng.random(dense_b.shape) < 0.7] = 0
    x_a, x_b = CSRMatrix.from_dense(dense_a), CSRMatrix.from_dense(dense_b)
    z = layer.forward(x_a, x_b)
    np.testing.assert_allclose(
        z, dense_a @ w0["W_A"] + dense_b @ w0["W_B"], atol=1e-5
    )
    grad_z = rng.normal(size=(6, 1)) * 0.1
    layer.backward(grad_z)
    layer.apply_updates(lr=0.1, momentum=0.0)
    w1 = layer.reveal_weights()
    np.testing.assert_allclose(
        w1["W_A"], w0["W_A"] - 0.1 * (dense_a.T @ grad_z), atol=1e-5
    )


@pytest.mark.parametrize("cls", [MatMulSource, MultiPartyMatMulSource])
def test_delta_refresh_mode_matches_reencrypt(rng, cls):
    """Sparse-aware refresh produces the same weights as the faithful mode:
    both follow the plaintext update rule, on both public classes (the
    multi-party layer used to ignore ``share_refresh`` silently), and delta
    mode sends one ``bwd.support`` message per spoke per step."""
    spokes = ["A"] if cls is MatMulSource else ["A1", "A2"]
    dense = {a: rng.normal(size=(5, 12)) for a in spokes}
    for a in spokes:
        dense[a][rng.random(dense[a].shape) < 0.6] = 0
    dense["B"] = rng.normal(size=(5, 6))
    grad_z = rng.normal(size=(5, 1)) * 0.1
    for mode in ("reencrypt", "delta"):
        ctx = VFLContext(
            VFLConfig(key_bits=KEY_BITS, share_refresh=mode), seed=5, n_a_parties=len(spokes)
        )
        x = {a: CSRMatrix.from_dense(dense[a]) for a in spokes} | {"B": dense["B"]}
        if cls is MatMulSource:
            layer = cls(ctx, 12, 6, 1, name="d")
            forward = lambda: layer.forward(x["A"], x["B"])  # noqa: E731
        else:
            layer = cls(ctx, {a: 12 for a in spokes}, 6, 1, name="d")
            forward = lambda: layer.forward(x)  # noqa: E731
        w0 = {k: v.copy() for k, v in layer.reveal_weights().items()}
        for _ in range(2):  # the second step runs on a refreshed [[V_A]]
            forward()
            layer.backward(grad_z)
            layer.apply_updates(lr=0.1, momentum=0.0)
        w = layer.reveal_weights()
        for party in (*spokes, "B"):
            np.testing.assert_allclose(
                w[f"W_{party}"] - w0[f"W_{party}"],
                -2 * 0.1 * (dense[party].T @ grad_z),
                atol=1e-5, err_msg=f"{mode} {party}",
            )
        supports = [m.tag for m in ctx.channel.transcript if ".bwd.support" in m.tag]
        assert len(supports) == (2 * len(spokes) if mode == "delta" else 0)
        assert len(set(supports)) == len(supports)  # a tag never repeats


def test_delta_refresh_is_exact_vs_plaintext(rng):
    ctx = make_ctx(share_refresh="delta")
    layer = MatMulSource(ctx, 12, 6, 1, name="d2")
    w0 = layer.reveal_weights()
    w0a, w0b = w0["W_A"].copy(), w0["W_B"].copy()
    dense_a = rng.normal(size=(5, 12))
    dense_a[rng.random(dense_a.shape) < 0.6] = 0
    x_a = CSRMatrix.from_dense(dense_a)
    x_b = rng.normal(size=(5, 6))
    grad_z = rng.normal(size=(5, 1)) * 0.1
    layer.forward(x_a, x_b)
    layer.backward(grad_z)
    layer.apply_updates(lr=0.1, momentum=0.0)
    # Second iteration exercises the homomorphic [[V_A]] delta update.
    z2 = layer.forward(x_a, x_b)
    expected_wa = w0a - 0.1 * (dense_a.T @ grad_z)
    expected_wb = w0b - 0.1 * (x_b.T @ grad_z)
    w1 = layer.reveal_weights()
    np.testing.assert_allclose(w1["W_A"], expected_wa, atol=1e-5)
    np.testing.assert_allclose(
        z2, dense_a @ expected_wa + x_b @ expected_wb, atol=1e-4
    )


def test_delta_mode_reveals_only_support(rng):
    """Delta mode's PUBLIC message is the column support and nothing else."""
    ctx = make_ctx(share_refresh="delta")
    layer = MatMulSource(ctx, 12, 6, 1, name="d3")
    dense_a = np.zeros((4, 12))
    dense_a[:, [2, 5, 7]] = rng.normal(size=(4, 3))
    x_a = CSRMatrix.from_dense(dense_a)
    layer.forward(x_a, rng.normal(size=(4, 6)))
    layer.backward(rng.normal(size=(4, 1)))
    public = [
        m for m in ctx.channel.transcript if m.kind is MessageKind.PUBLIC
    ]
    assert len(public) == 1
    np.testing.assert_array_equal(public[0].payload, [2, 5, 7])


def test_no_plaintext_messages_ever(layer_and_data, rng):
    ctx, layer, x_a, x_b = layer_and_data
    layer.forward(x_a, x_b)
    layer.backward(rng.normal(size=(8, 3)))
    layer.apply_updates(lr=0.05, momentum=0.9)
    kinds = {m.kind for m in ctx.channel.transcript}
    assert MessageKind.PLAINTEXT not in kinds
    assert MessageKind.CIPHERTEXT in kinds


def test_party_a_view_contains_no_forward_activations(layer_and_data):
    """Req 1: nothing in A's view correlates with X_A W_A, X_B W_B or Z."""
    ctx, layer, x_a, x_b = layer_and_data
    w = layer.reveal_weights()
    z = layer.forward(x_a, x_b)
    za, zb = x_a @ w["W_A"], x_b @ w["W_B"]
    for msg in ctx.channel.view_of("A"):
        if isinstance(msg.payload, np.ndarray):
            for target in (z, za, zb):
                if msg.payload.shape == target.shape:
                    assert not np.allclose(msg.payload, target, atol=1e-3)


def test_backward_requires_forward(rng):
    ctx = make_ctx()
    layer = MatMulSource(ctx, 3, 3, 1)
    with pytest.raises(RuntimeError, match="backward before forward"):
        layer.backward(rng.normal(size=(2, 1)))


def test_double_backward_without_step_rejected(layer_and_data, rng):
    ctx, layer, x_a, x_b = layer_and_data
    layer.forward(x_a, x_b)
    layer.backward(rng.normal(size=(8, 3)))
    with pytest.raises(RuntimeError, match="pending"):
        layer.backward(rng.normal(size=(8, 3)))


def test_inference_forward_does_not_cache(layer_and_data, rng):
    """Also after a trained step: ``backward`` used to contract ``gZ`` with
    the previous training batch; now it is refused before anything is drawn
    or sent."""
    ctx, layer, x_a, x_b = layer_and_data
    layer.forward(x_a, x_b, train=False)
    with pytest.raises(RuntimeError):
        layer.backward(rng.normal(size=(8, 3)))
    layer.forward(x_a, x_b)
    layer.backward(rng.normal(size=(8, 3)))
    layer.apply_updates(lr=0.05, momentum=0.9)
    layer.forward(x_a, x_b, train=False)
    channel = ctx.channel

    def observable():
        return (
            {p: channel.pending(p) for p in ("A", "B")},
            len(channel.transcript),
            {p: party.rng.bit_generator.state for p, party in ctx.parties.items()},
        )

    before = observable()
    with pytest.raises(RuntimeError, match="inference-only forward"):
        layer.backward(rng.normal(size=(8, 3)))
    assert before == observable()


def test_apply_without_pending_is_noop(layer_and_data):
    ctx, layer, x_a, x_b = layer_and_data
    w0 = layer.reveal_weights()
    layer.apply_updates(lr=0.1, momentum=0.9)
    w1 = layer.reveal_weights()
    np.testing.assert_array_equal(w0["W_A"], w1["W_A"])


def test_federated_parameters_described(layer_and_data):
    ctx, layer, _, _ = layer_and_data
    params = layer.federated_parameters()
    assert {p.name for p in params} == {"t.W_A", "t.W_B"}
    w_a = next(p for p in params if p.name == "t.W_A")
    assert w_a.holders == {"U": "A", "V": "B"}
    assert w_a.shape == (6, 3)


def test_dimension_validation():
    ctx = make_ctx()
    with pytest.raises(ValueError):
        MatMulSource(ctx, 0, 3, 1)


def test_pieces_differ_from_weights(layer_and_data):
    """Neither party's piece equals the true weights (Req 5/6, Figure 11)."""
    ctx, layer, _, _ = layer_and_data
    w = layer.reveal_weights()
    pieces = layer.piece_views()
    assert not np.allclose(pieces["A.U_A"], w["W_A"], atol=1e-3)
    assert not np.allclose(pieces["B.V_A"], w["W_A"], atol=1e-3)
