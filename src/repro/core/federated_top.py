"""Federated (SS-based) top models — Appendix B (Figures 13/14).

With a plaintext top model, Party B sees ``Z`` and ``grad_Z``.  Appendix B
strengthens this: the source layer emits secret *shares* ``<Z'_A, Z'_B>``
(``forward_shares``) and consumes secret-shared derivatives
``<eps, grad_Z - eps>``, so not even Party B observes the aggregated
activations.

The appendix *assumes* a secure top model realising the ideal
functionality ``F_TopSS`` (input: Z shares + labels; output: grad_Z
shares) — e.g. a SecureML-style SS network — and proves the source
layer's SS-in/SS-out interface secure.  We follow the same structure:
:class:`IdealSSTop` is an explicit stand-in for that ideal functionality
(reconstruction happens only inside its sealed scope, mirroring how the
simulation proof treats F_TopSS as a black box), and
:func:`matmul_backward_from_shares` implements the real protocol of
Figure 13 lines 2-8: SS2HE both ways, then both parties' gradients are
secretly shared and both encrypted copies refreshed.
"""

from __future__ import annotations

import numpy as np

from repro.comm.message import MessageKind
from repro.core.federated import momentum_update
from repro.core.matmul_layer import MatMulSource
from repro.core.trainer import History, TrainConfig
from repro.crypto.secret_sharing import he2ss_receive, ss2he_combine, ss2he_send
from repro.data.loader import BatchLoader
from repro.data.partition import VerticalDataset
from repro.utils.metrics import roc_auc

__all__ = ["IdealSSTop", "matmul_backward_from_shares", "train_lr_with_ss_top"]


class IdealSSTop:
    """Stand-in for the ideal functionality F_TopSS (binary LR head).

    Inputs: shares ``<Z'_A, Z'_B>`` and the labels (held by B).  Outputs:
    shares ``<eps, grad_Z - eps>`` of the loss derivative, plus the scalar
    loss for monitoring.  The reconstruction of Z happens *only inside
    this object* — it models the sealed box the simulation proof assumes;
    neither party's state ever references the plaintext Z.
    """

    def __init__(self, rng: np.random.Generator, mask_scale: float = 2.0**16):
        self._rng = rng
        self._mask_scale = mask_scale

    def backward_shares(
        self, z_a: np.ndarray, z_b: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Return (eps for A, grad_Z - eps for B, loss value)."""
        z = z_a + z_b  # sealed-scope reconstruction (ideal functionality)
        y = np.asarray(labels, dtype=np.float64).reshape(z.shape)
        probs = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
        grad_z = (probs - y) / y.shape[0]
        loss = float(
            np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z))))
        )
        eps = self._rng.uniform(-self._mask_scale, self._mask_scale, size=z.shape)
        return eps, grad_z - eps, loss

    def predict_scores(self, z_a: np.ndarray, z_b: np.ndarray) -> np.ndarray:
        """Inference output (the VFL goal: predictions released to B)."""
        return z_a + z_b


# repro: api-ok Appendix B backward over shares, until the SS top runs as actor phases
def matmul_backward_from_shares(
    layer: MatMulSource,
    eps_at_a: np.ndarray,
    gz_share_at_b: np.ndarray,
    lr: float,
    momentum: float,
) -> None:
    """Figure 13 lines 2-8: backward when grad_Z arrives secret-shared.

    Both parties convert their share into ciphertexts under each other's
    keys (SS2HE), compute their *own* encrypted gradient under the peer's
    key, and secretly share it.  Unlike the plaintext-top backward, B's
    gradient ``grad_W_B`` is now *also* shared (B no longer knows grad_Z),
    so both parties' pieces update and both encrypted caches refresh.
    """
    ctx, cfg = layer.ctx, layer._cfg
    a, b, ch = ctx.A, ctx.B, ctx.channel
    spoke, hub = layer._a, layer._b  # all-local: both actors are here
    tag = f"{layer.name}.{layer._step}.sstop"
    eps_at_a = np.asarray(eps_at_a, dtype=np.float64).reshape(-1, layer.out_dim)
    gz_share_at_b = np.asarray(gz_share_at_b, dtype=np.float64).reshape(
        -1, layer.out_dim
    )
    # Line 3: SS2HE in both directions.
    ss2he_send(eps_at_a, a, "B", ch, f"{tag}.gZpiece_A")
    ss2he_send(gz_share_at_b, b, "A", ch, f"{tag}.gZpiece_B")
    enc_gz_under_b = ss2he_combine(eps_at_a, a, ch, f"{tag}.gZpiece_B")
    enc_gz_under_a = ss2he_combine(gz_share_at_b, b, ch, f"{tag}.gZpiece_A")

    # Lines 4-6: each party computes its encrypted gradient and shares it,
    # under the layer's own packing policy (as every other transfer of it).
    enc_gw_a = enc_gz_under_b.t_rmatmul(spoke.x_cache)
    phi_a = layer._he2ss(enc_gw_a, a, "B", f"{tag}.gW_A", cfg.grad_mask_scale)
    gw_a_share = he2ss_receive(b, ch, f"{tag}.gW_A")

    enc_gw_b = enc_gz_under_a.t_rmatmul(hub.x_cache)
    phi_b = layer._he2ss(enc_gw_b, b, "A", f"{tag}.gW_B", cfg.grad_mask_scale)
    gw_b_share = he2ss_receive(a, ch, f"{tag}.gW_B")

    # Lines 7-8: complementary updates on all four pieces.
    momentum_update(spoke.u, spoke.vel_u, phi_a, lr, momentum, None)
    momentum_update(hub.v_a[a.name], hub.vel_v_a[a.name], gw_a_share, lr, momentum, None)
    momentum_update(hub.u, hub.vel_u, phi_b, lr, momentum, None)
    momentum_update(spoke.v_b, spoke.vel_v_b, gw_b_share, lr, momentum, None)
    # Refresh both encrypted caches (V_A at A, V_B at B) in their resident form.
    fresh_va = layer._encrypt_piece(b.public_key, hub.v_a[a.name])
    ch.send(b.name, a.name, f"{tag}.upd.encV_A", fresh_va, MessageKind.CIPHERTEXT)
    spoke.enc_v_own = ch.recv(a.name, f"{tag}.upd.encV_A")
    fresh_vb = layer._encrypt_piece(a.public_key, spoke.v_b)
    ch.send(a.name, b.name, f"{tag}.upd.encV_B", fresh_vb, MessageKind.CIPHERTEXT)
    hub.enc_v_b[a.name] = ch.recv(b.name, f"{tag}.upd.encV_B")


def train_lr_with_ss_top(
    ctx,
    train_data: VerticalDataset,
    config: TrainConfig,
    test_data: VerticalDataset | None = None,
) -> tuple[MatMulSource, History]:
    """Train binary LR where even Z is hidden from Party B (Appendix B)."""
    in_a = train_data.party("A").dense_dim
    in_b = train_data.party("B").dense_dim
    layer = MatMulSource(ctx, in_a, in_b, 1, name="sstop-lr")
    top = IdealSSTop(ctx.B.rng, mask_scale=ctx.config.mask_scale)
    rng = np.random.default_rng(config.seed)
    history = History(metric_name="auc")
    for _ in range(config.epochs):
        loader = BatchLoader(train_data, config.batch_size, rng=rng)
        for batch in loader:
            z_a, z_b = layer.forward_shares(
                batch.party("A").numeric_block(), batch.party("B").numeric_block()
            )
            eps, gz_share, loss = top.backward_shares(z_a, z_b, batch.y)
            matmul_backward_from_shares(
                layer, eps, gz_share, config.lr, config.momentum
            )
            history.losses.append(loss)
        if test_data is not None:
            z_a, z_b = layer.forward_shares(
                test_data.party("A").numeric_block(),
                test_data.party("B").numeric_block(),
                train=False,
            )
            scores = top.predict_scores(z_a, z_b)
            history.epoch_metrics.append(roc_auc(test_data.y, scores.ravel()))
    return layer, history
