"""The federated models evaluated in the paper (§7.1): LR, MLR, MLP, WDL,
DLRM.

Every model follows the BlindFL architecture of Figure 4: one or more
*federated source layers* unite the two parties' features into aggregated
activations ``Z``, and a *plaintext top model at Party B* maps ``Z`` to
predictions.  The backward path hands ``grad_Z`` (computed by the top
model's autograd) to each source layer's federated backward protocol.

The ``forward(batch)`` / ``loss.backward()`` / ``backward_sources()`` /
``optimizer.step()`` cadence mirrors the Figure 8 listing.  On a fabric
endpoint where Party B is remote, ``forward`` runs the source layers' A-side
programs and returns ``None`` (the top model lives at B), and
``backward_sources`` runs their backward with no gradient.
"""

from __future__ import annotations

import numpy as np

from repro.comm.party import VFLContext
from repro.core.embed_matmul_layer import EmbedMatMulSource
from repro.core.federated import FederatedModule
from repro.core.matmul_layer import MatMulSource
from repro.data.loader import Batch
from repro.tensor.nn import Bias, ReLU, Sequential, mlp
from repro.tensor.tensor import Tensor

__all__ = [
    "FederatedLR",
    "FederatedMLR",
    "FederatedMLP",
    "FederatedWDL",
    "FederatedDLRM",
]


class _SourceBacked(FederatedModule):
    """Common forward/backward plumbing for source-layer models."""

    def __init__(self) -> None:
        super().__init__()
        self._leaves: list[tuple[object, Tensor]] = []

    def _leaf(self, source: object, z: np.ndarray | None, train: bool) -> Tensor | None:
        """Wrap a source-layer output as an autograd leaf at Party B
        (``None`` where B is remote: the source returned no Z)."""
        leaf = None if z is None else Tensor(z, requires_grad=train)
        if train:
            self._leaves.append((source, leaf))
        return leaf

    def backward_sources(self) -> None:
        """After ``loss.backward()``: run each source layer's backward."""
        if not self._leaves:
            raise RuntimeError("no cached activations; run a training forward first")
        for source, leaf in self._leaves:
            if leaf is not None and leaf.grad is None:
                raise RuntimeError("top model backward did not reach the source output")
            source.backward(None if leaf is None else leaf.grad)
        self._leaves = []


class FederatedLR(_SourceBacked):
    """Logistic regression: MatMul source (OUT=1) + bias + sigmoid at B.

    ``y_hat = sigmoid((X_A W_A + X_B W_B) + bias)`` — the worked example of
    §4.1 and Figure 8 (the sigmoid lives in the loss for stability).
    """

    def __init__(self, ctx: VFLContext, in_a: int, in_b: int):
        super().__init__()
        self.source = MatMulSource(ctx, in_a, in_b, 1, name="lr")
        self.top = Bias(1)

    def forward(self, batch: Batch, train: bool = True) -> Tensor | None:
        z = self.source.forward(batch.numeric("A"), batch.numeric("B"), train=train)
        leaf = self._leaf(self.source, z, train)
        return None if leaf is None else self.top(leaf)


class FederatedMLR(_SourceBacked):
    """Multinomial LR: MatMul source with OUT = n_classes."""

    def __init__(self, ctx: VFLContext, in_a: int, in_b: int, n_classes: int):
        super().__init__()
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        self.source = MatMulSource(ctx, in_a, in_b, n_classes, name="mlr")
        self.top = Bias(n_classes)

    def forward(self, batch: Batch, train: bool = True) -> Tensor | None:
        z = self.source.forward(batch.numeric("A"), batch.numeric("B"), train=train)
        leaf = self._leaf(self.source, z, train)
        return None if leaf is None else self.top(leaf)


class FederatedMLP(_SourceBacked):
    """MLP: the first (widest) layer is the MatMul source; the rest run at B.

    This is the architecture behind Tables 7/8: the source layer's output
    dimensionality dominates cost, extra top layers are nearly free.
    """

    def __init__(
        self,
        ctx: VFLContext,
        in_a: int,
        in_b: int,
        hidden: list[int],
        n_out: int,
    ):
        super().__init__()
        if not hidden:
            raise ValueError("an MLP needs at least one hidden layer")
        self.source = MatMulSource(ctx, in_a, in_b, hidden[0], name="mlp")
        rng = np.random.default_rng(0)
        self.top = Sequential(ReLU(), mlp([*hidden, n_out], rng=rng))

    def forward(self, batch: Batch, train: bool = True) -> Tensor | None:
        z = self.source.forward(batch.numeric("A"), batch.numeric("B"), train=train)
        leaf = self._leaf(self.source, z, train)
        return None if leaf is None else self.top(leaf)


class FederatedWDL(_SourceBacked):
    """Wide & Deep (Figure 5): MatMul wide part + Embed-MatMul deep part.

    ``logit = (X W)_wide + MLP(E W)_deep + bias`` — the wide source handles
    the sparse numerical features, the deep source the categorical fields.
    """

    def __init__(
        self,
        ctx: VFLContext,
        in_a: int,
        in_b: int,
        vocab_a: list[int],
        vocab_b: list[int],
        emb_dim: int = 8,
        deep_hidden: list[int] | None = None,
        seed: int = 0,
    ):
        super().__init__()
        deep_hidden = deep_hidden or [16]
        self.wide = MatMulSource(ctx, in_a, in_b, 1, name="wdl.wide")
        self.deep = EmbedMatMulSource(
            ctx, vocab_a, vocab_b, emb_dim, deep_hidden[0], name="wdl.deep"
        )
        rng = np.random.default_rng(seed)
        self.deep_top = Sequential(ReLU(), mlp([*deep_hidden, 1], rng=rng))
        self.bias = Bias(1)

    def forward(self, batch: Batch, train: bool = True) -> Tensor | None:
        z_wide = self.wide.forward(batch.numeric("A"), batch.numeric("B"), train=train)
        z_deep = self.deep.forward(
            batch.categorical("A"), batch.categorical("B"), train=train
        )
        wide_leaf = self._leaf(self.wide, z_wide, train)
        deep_leaf = self._leaf(self.deep, z_deep, train)
        if wide_leaf is None:
            return None
        return self.bias(wide_leaf + self.deep_top(deep_leaf))


class FederatedDLRM(_SourceBacked):
    """DLRM-style model: dense-feature arm, embedding arm, interactions.

    The dense arm is a MatMul source (the "bottom MLP" first layer); the
    categorical arm an Embed-MatMul source projecting to the same width;
    the top model at B computes their elementwise interaction (the dot-
    product feature of DLRM) and an MLP over ``[dense, emb, dense*emb]``.
    """

    def __init__(
        self,
        ctx: VFLContext,
        in_a: int,
        in_b: int,
        vocab_a: list[int],
        vocab_b: list[int],
        emb_dim: int = 8,
        arm_dim: int = 16,
        top_hidden: list[int] | None = None,
        seed: int = 0,
    ):
        super().__init__()
        top_hidden = top_hidden or [16]
        self.dense_arm = MatMulSource(ctx, in_a, in_b, arm_dim, name="dlrm.dense")
        self.emb_arm = EmbedMatMulSource(
            ctx, vocab_a, vocab_b, emb_dim, arm_dim, name="dlrm.emb"
        )
        rng = np.random.default_rng(seed)
        self.top = Sequential(ReLU(), mlp([3 * arm_dim, *top_hidden, 1], rng=rng))

    def forward(self, batch: Batch, train: bool = True) -> Tensor | None:
        z_dense = self.dense_arm.forward(
            batch.numeric("A"), batch.numeric("B"), train=train
        )
        z_emb = self.emb_arm.forward(
            batch.categorical("A"), batch.categorical("B"), train=train
        )
        dense_leaf = self._leaf(self.dense_arm, z_dense, train)
        emb_leaf = self._leaf(self.emb_arm, z_emb, train)
        if dense_leaf is None:
            return None
        interaction = dense_leaf * emb_leaf
        return self.top(Tensor.concat([dense_leaf, emb_leaf, interaction], axis=1))
