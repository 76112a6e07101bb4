"""Federated module/parameter plumbing (the Figure 8 API surface).

``FederatedParameter`` describes one logical tensor whose pieces live on
different parties (W = U + V, Q = S + T); no single object ever holds the
reconstructed value — reconstruction exists only in the test-suite, which
is allowed to play "global observer" to check losslessness.

``FederatedModule`` mirrors ``torch.nn.Module``: it collects federated
source layers (for :class:`repro.core.optimizer.FederatedSGD`) and plain
:class:`repro.tensor.nn.Module` top-model parameters (for a plaintext
optimizer), so the Figure 8 training loop works unchanged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.tensor.nn import Module
from repro.tensor.tensor import Tensor

__all__ = ["FederatedParameter", "FederatedModule", "SourceLayer", "momentum_update"]


@dataclass
class FederatedParameter:
    """Bookkeeping for one secretly shared tensor.

    Attributes:
        name: logical name ("W_A", "Q_B", ...).
        owner: the party the parameter logically belongs to.
        shape: full tensor shape.
        holders: mapping piece-name -> party holding it, e.g.
            ``{"U": "A", "V": "B"}``.
    """

    name: str
    owner: str
    shape: tuple[int, ...]
    holders: dict[str, str] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


def momentum_update(
    weights: np.ndarray,
    velocity: np.ndarray,
    grad: np.ndarray,
    lr: float,
    momentum: float,
    support: np.ndarray | None,
) -> None:
    """Classical momentum on a piece; ``support`` enables lazy sparse mode."""
    if support is None:
        if momentum:
            velocity *= momentum
            velocity += grad
            weights -= lr * velocity
        else:
            weights -= lr * grad
        return
    if momentum:
        velocity[support] *= momentum
        velocity[support] += grad
        weights[support] -= lr * velocity[support]
    else:
        weights[support] -= lr * grad


# Each source-layer weight ``W = U + V`` starts as two independent
# N(0, PIECE_STD^2) pieces, so ``W``'s entries have standard deviation 0.05.
PIECE_STD = 0.05 / np.sqrt(2.0)


class SourceLayer:
    """Base class for federated source layers.

    Concrete layers (MatMul, Embed-MatMul) implement:

    * ``forward(batch) -> np.ndarray`` — runs the federated forward protocol
      and returns the aggregated activations Z *at Party B*;
    * ``backward(grad_z) -> None`` — runs the federated backward protocol,
      leaving secretly shared gradient pieces pending on each party;
    * ``apply_updates(lr, momentum) -> None`` — momentum update of every
      piece at its holder plus the encrypted-copy refresh protocol.

    ``federated_parameters`` describes what is shared where (used by tests
    and by the repr).
    """

    name: str = "source"
    # Set by concrete layers, beside the protocol config and the federation
    # context: the layer's output width.
    out_dim: int = 0

    def forward(self, batch: object) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_z: np.ndarray) -> None:
        raise NotImplementedError

    def apply_updates(self, lr: float, momentum: float) -> None:
        raise NotImplementedError

    def federated_parameters(self) -> list[FederatedParameter]:
        raise NotImplementedError

    def zero_pending(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------- packing policy
    #
    # Shared by every source layer so the MatMul and Embed-MatMul protocols
    # cannot silently diverge on layout parameters.  Gated by
    # ``VFLConfig.packing``; see repro.crypto.packing for the subsystem.

    # Accumulation-depth floor for slot budgets.  Backward transfers
    # (``X.T @ [[grad_Z]]``, ``psi.T @ [[grad_Z]]``) contract over the
    # *batch* dimension, which is unknown when a layout is fixed at
    # init time — so every layout budgets guard bits for
    # contractions up to this depth on top of the layer's own widest
    # feature dimension.
    PACKING_DEPTH_FLOOR: int = 4096

    def _packing_contraction(self) -> int:
        """The layer's widest forward contraction dimension (override)."""
        raise NotImplementedError

    def _packing_depth(self) -> int:
        """Designed accumulation-depth budget for this layer's layouts.

        Layers whose backward accumulates rows that are themselves
        contractions (the embedding scatter-add) override this to budget
        the compound fan-in, so ``PACKING_DEPTH_FLOOR`` keeps its meaning
        of a *batch-row* floor for every layer.
        """
        return max(self._packing_contraction(), self.PACKING_DEPTH_FLOOR)

    @functools.cached_property
    def _layouts(self) -> dict[int, object]:
        """Slot layout per party modulus ``n``; empty when packing is off.

        The config and the party keys are fixed when the context is built,
        so the layouts are designed once, at the layer's first use of one
        (its init-time piece encryption).  They derive deterministically
        from the config and the key, so both parties agree without
        negotiation; the depth budget covers the layer's contractions and
        batch-deep backward transfers up to ``PACKING_DEPTH_FLOOR`` rows
        (see :meth:`_packing_depth`).  A key too small for two slots maps
        to ``None``.
        """
        cfg = self._cfg
        if not cfg.packing:
            return {}
        from repro.crypto.packing import protocol_layout

        return {
            party.public_key.n: protocol_layout(
                party.public_key,
                mask_scale=max(cfg.mask_scale, cfg.grad_mask_scale),
                acc_depth=self._packing_depth(),
            )
            for party in self.ctx.parties.values()
        }

    def _pack_layout(self, public_key):
        """Slot layout for ciphertexts under ``public_key`` (None = off)."""
        return self._layouts.get(public_key.n)

    def _piece_layout(self, public_key, width: int | None = None):
        """Layout for resident weight/table pieces, or None when not a win.

        ``width`` is the piece's row width — the output dimension for
        weight pieces (the default), the embedding dimension for table
        pieces.  Row-aligned lanes only pay when a row spans fewer
        ciphertexts than values — for narrow rows (e.g. ``out_dim == 1``
        logistic regression) the pieces stay per-element and the HE2SS
        transfers still pack contiguously downstream.
        """
        if width is None:
            width = self.out_dim
        layout = self._pack_layout(public_key)
        if layout is not None and layout.ct_count(width) < width:
            return layout
        return None

    def _lane_layout(self, public_key, width: int | None = None):
        """:meth:`_piece_layout` for tensors whose products travel on.

        A fresh encryption consumed by ``plain @ cipher`` leaves its sender
        in lanes and the packed product goes to HE2SS as it is — unless
        that would ship more ciphertexts than the per-element product
        re-packed contiguously, a property of the row width alone
        (:meth:`SlotLayout.tiles`); such widths keep the per-element route.
        """
        layout = self._piece_layout(public_key, width)
        if layout is not None and layout.tiles(self.out_dim if width is None else width):
            return layout
        return None

    def _encrypt_piece(self, public_key, array: np.ndarray, width: int | None = None):
        """Encrypt a piece, packed along its ``width``-wide rows when it pays."""
        return self._encrypt_as(public_key, array, self._piece_layout(public_key, width))

    def _encrypt_as(self, public_key, array: np.ndarray, layout):
        """Encrypt ``array`` row-aligned under ``layout``, or per element (None)."""
        from repro.crypto.crypto_tensor import CryptoTensor
        from repro.crypto.packing import PackedCryptoTensor

        if layout is not None:
            return PackedCryptoTensor.encrypt(public_key, array, layout, obfuscate=True)
        return CryptoTensor.encrypt(public_key, array, obfuscate=True)

    def _check_restored_form(self, piece: str, saved, resident) -> None:
        """A restored encrypted piece must have the form this model gives it.

        Packing is fixed when the model is built, so a checkpoint written
        under the other ``VFLConfig.packing`` (or a different slot layout)
        cannot continue on it; ``load_checkpoint_state`` raises instead.
        """
        layouts = [getattr(t, "layout", None) for t in (saved, resident)]
        if type(saved) is not type(resident) or layouts[0] != layouts[1]:
            raise ValueError(
                f"layer {self.name!r}: checkpoint holds {piece} as "
                f"{type(saved).__name__} (layout {layouts[0]}) but "
                f"VFLConfig.packing={self._cfg.packing} builds it as "
                f"{type(resident).__name__} (layout {layouts[1]})"
            )

    def _check_packing_depth(self, batch: int, row_terms: int = 1) -> None:
        """Validate a step's worst-case lane fan-in against the layouts.

        A lane may accumulate up to ``batch`` rows this step, each itself a
        ``row_terms``-deep contraction (1 for plain ``X.T @ [[grad_Z]]``
        rows, ``out_dim + 1`` for the embedding backward's gradient rows).
        The check mirrors the packed bookkeeping's exact bit arithmetic —
        ``ceil(log2(row_terms)) + ceil(log2(batch))`` guard bits must fit
        the ``ceil(log2(acc_depth))`` the layout budgeted — so a step that
        passes here cannot die later in the backward's guard-band checks,
        and one that fails raises *before* any ciphertext is produced.
        ``PACKING_DEPTH_FLOOR`` only *floors* the designed depth;
        exceeding it would otherwise quietly cross the slot guard band and
        corrupt neighbouring lanes in ways the borrow-chain decoder cannot
        always detect.
        """
        from repro.crypto.packing import _acc_bits

        need = _acc_bits(max(row_terms, 1)) + _acc_bits(max(batch, 1))
        for layout in self._layouts.values():
            if layout is not None and need > _acc_bits(layout.acc_depth):
                raise OverflowError(
                    f"a {batch}-row batch of {row_terms}-term rows needs "
                    f"{need} lane guard bits but the layout's designed "
                    f"accumulation depth of {layout.acc_depth} budgets only "
                    f"{_acc_bits(layout.acc_depth)} (fixed at init time); "
                    f"reduce the batch size or raise {type(self).__name__}."
                    f"PACKING_DEPTH_FLOOR before building the layer"
                )

    def _he2ss(self, ciphertext, holder, owner_name: str, tag: str, scale: float):
        """HE2SS send with this layer's packing policy applied to the wire."""
        from repro.crypto.secret_sharing import he2ss_split

        return he2ss_split(
            ciphertext, holder, owner_name, self.ctx.channel, tag, scale,
            packing=self._pack_layout(ciphertext.public_key),
        )


class FederatedModule(Module):
    """A model made of federated source layers plus a plaintext top model."""

    def source_layers(self) -> Iterator[SourceLayer]:
        """Yield every source layer reachable from this module."""
        seen: set[int] = set()
        for value in self.__dict__.values():
            yield from _collect_sources(value, seen)

    def federated_parameters(self) -> list[FederatedParameter]:
        params: list[FederatedParameter] = []
        for layer in self.source_layers():
            params.extend(layer.federated_parameters())
        return params

    def federation_contexts(self) -> Iterator[object]:
        """Every distinct :class:`~repro.comm.party.VFLContext` in the model.

        Multi-source models (WDL, DLRM) usually share one context, but the
        API allows one per layer; the trainer's blinding-pool refill and the
        checkpoint code iterate this to hit each context exactly once.
        """
        seen: set[int] = set()
        for layer in self.source_layers():
            if id(layer.ctx) not in seen:
                seen.add(id(layer.ctx))
                yield layer.ctx

    def top_parameters(self) -> list[Tensor]:
        """The plaintext (Party B) parameters."""
        return list(self.parameters())


def _collect_sources(value: object, seen: set[int]) -> Iterator[SourceLayer]:
    if isinstance(value, SourceLayer):
        if id(value) not in seen:
            seen.add(id(value))
            yield value
    elif isinstance(value, FederatedModule):
        for sub in value.__dict__.values():
            yield from _collect_sources(sub, seen)
    elif isinstance(value, Module):
        for sub in value.__dict__.values():
            yield from _collect_sources(sub, seen)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _collect_sources(item, seen)
