"""Two-party additive secret sharing and the HE<->SS conversions.

Implements the paper's Algorithm 1 (``HE2SS``: turn a ciphertext [[v]] into
shares <phi, v - phi>) and Algorithm 2 (``SS2HE``: turn shares <v_a, v_b>
into a ciphertext [[v]] under the *other* party's key), plus the plain
float-tensor sharing used to split model weights (W = U + V) and embedding
tables (Q = S + T) at initialisation.

Masks are uniform in ``[-scale, scale]``.  Over the reals this is
statistical rather than perfect hiding (a value shifts the mask's support by
``|v|/scale``); the paper's fixed-point implementation has the same
property, and Figure 11's empirical check — share pieces dwarf and decorrelate
from the true values — is reproduced in the benchmark suite.

Every conversion that puts a ciphertext on the wire *re-randomises* it by
homomorphically adding a freshly-encrypted mask, so the lazily-unobfuscated
internal arithmetic (see ``repro.crypto.paillier``) never leaks ciphertext
history.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.comm.message import MessageKind
from repro.crypto.crypto_tensor import TENSOR_EXPONENT, CryptoTensor
from repro.crypto.packing import PackedCryptoTensor, SlotLayout
from repro.crypto.parallel import ParallelContext
from repro.obs import tracer as _obs

if TYPE_CHECKING:  # pragma: no cover - runtime uses duck typing to avoid
    # a circular import (comm.party needs crypto for key generation).
    from repro.comm.channel import Channel
    from repro.comm.party import Party

__all__ = [
    "additive_share",
    "reconstruct",
    "he2ss_split",
    "he2ss_receive",
    "ss2he_send",
    "ss2he_combine",
]


def additive_share(
    values: np.ndarray, rng: np.random.Generator, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``values`` into ``(mask, values - mask)`` with uniform masks."""
    values = np.asarray(values, dtype=np.float64)
    if scale <= 0:
        raise ValueError("mask scale must be positive")
    mask = rng.uniform(-scale, scale, size=values.shape)
    return mask, values - mask


def reconstruct(piece_a: np.ndarray, piece_b: np.ndarray) -> np.ndarray:
    """Rebuild the secret from its two pieces."""
    return np.asarray(piece_a) + np.asarray(piece_b)


def he2ss_split(
    ciphertext: CryptoTensor | PackedCryptoTensor,
    holder: "Party",
    key_owner_name: str,
    channel: "Channel",
    tag: str,
    mask_scale: float,
    parallel: ParallelContext | None = None,
    packing: SlotLayout | None = None,
) -> np.ndarray:
    """Algorithm 1, the branch of the party that does *not* own the key.

    ``holder`` possesses ``[[v]]`` under ``key_owner``'s key.  It draws a
    random ``phi``, ships the re-randomised ``[[v - phi]]`` to the key owner
    and keeps ``phi`` as its share piece.

    A :class:`PackedCryptoTensor` input is masked lane-wise and shipped in
    its lanes — this is how packed ``plain @ cipher`` products and the
    packed Embed-MatMul table gradient cross the wire at ``slots``-fold
    fewer ciphertexts, mask blindings and receiver decrypts.  With
    ``packing`` given (a :class:`SlotLayout`), whatever arrives sparser
    than a transfer need be is packed first, homomorphically: a per-element
    tensor (``out_dim == 1``, widths that do not tile a ciphertext) into one
    contiguous lane stream, packed rows narrower than half a ciphertext by
    merging whole rows.  Either way the masked lanes decode bit-identically
    to the unpacked protocol, and the ``value_bits`` metadata is
    canonicalised to the layout constant before sending (a scatter output's
    bound would otherwise encode the batch's per-row fan-in — a function of
    the private indices).
    """
    with _obs.span("he2ss_send", party=holder.name, tag=tag):
        phi = holder.rng.uniform(-mask_scale, mask_scale, size=ciphertext.shape)
        peer_pk = holder.peer_key(key_owner_name)
        if peer_pk != ciphertext.public_key:
            raise ValueError("ciphertext is not under the claimed key owner's key")
        if packing is not None and (
            not isinstance(ciphertext, PackedCryptoTensor)
            or ciphertext.segments_per_ct > 1
        ):
            # Transfer-only tensor: pack row-major across row boundaries (the
            # receiver only ever decrypts), so even column vectors and narrow
            # packed rows get the full slots-fold reduction.
            with _obs.span("pack", party=holder.name, tag=tag):
                ciphertext = PackedCryptoTensor.pack(
                    ciphertext, packing, parallel=parallel, contiguous=True
                )
        # A fresh obfuscated encryption of -phi re-randomises the whole sum;
        # the mask is encoded at TENSOR_EXPONENT and its plaintext mantissa
        # lifted onto each (finer) product exponent, so no fresh ciphertext
        # is exponentiated to align it.
        masked = ciphertext.add_plain(
            -phi, encode_exponent=TENSOR_EXPONENT, obfuscate=True, parallel=parallel
        )
        if isinstance(masked, PackedCryptoTensor):
            # The lane-bound bookkeeping is derived from the holder's private
            # operands (feature magnitudes, per-row sparsity) — canonicalise it
            # to the layout constant before the object crosses the trust
            # boundary, so the metadata carries nothing the unpacked protocol
            # would not.  Decryption never reads value_bits.
            masked.value_bits = masked.layout.lane_cap_bits
        channel.send(holder.name, key_owner_name, tag, masked, MessageKind.CIPHERTEXT)
        return phi


def he2ss_receive(
    key_owner: "Party",
    channel: "Channel",
    tag: str,
    parallel: ParallelContext | None = None,
) -> np.ndarray:
    """Algorithm 1, the key owner's branch: receive and decrypt ``v - phi``.

    Decryption is the key owner's dominant per-batch cost; it shards across
    the private worker tier of a configured
    :class:`~repro.crypto.parallel.ParallelContext` (explicit or the
    process default installed by ``TrainConfig.parallel_workers``) —
    workers are the key owner's own OS children, so ``(p, q)`` never leave
    its custody.
    """
    with _obs.span("decrypt", party=key_owner.name, tag=tag):
        masked = channel.recv(key_owner.name, tag)
        if not isinstance(masked, (CryptoTensor, PackedCryptoTensor)):
            raise TypeError(f"expected a CryptoTensor for tag {tag!r}")
        return masked.decrypt(key_owner.private_key, parallel=parallel)


def ss2he_send(
    own_piece: np.ndarray,
    me: "Party",
    peer_name: str,
    channel: "Channel",
    tag: str,
    parallel: ParallelContext | None = None,
) -> None:
    """Algorithm 2, line 2: encrypt own piece under *own* key and send it."""
    with _obs.span("encrypt", party=me.name, tag=tag):
        ciphertext = CryptoTensor.encrypt(
            me.public_key,
            np.asarray(own_piece, dtype=np.float64),
            obfuscate=True,
            parallel=parallel,
        )
        channel.send(me.name, peer_name, tag, ciphertext, MessageKind.CIPHERTEXT)


def ss2he_combine(
    own_piece: np.ndarray, me: "Party", channel: "Channel", tag: str
) -> CryptoTensor:
    """Algorithm 2, lines 3-4: combine into ``[[v]]`` under the peer's key."""
    other_ct = channel.recv(me.name, tag)
    if not isinstance(other_ct, CryptoTensor):
        raise TypeError(f"expected a CryptoTensor for tag {tag!r}")
    return other_ct + np.asarray(own_piece, dtype=np.float64)
