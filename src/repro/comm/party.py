"""Party state and federation context.

Per the paper's setup (§2.2): on initialisation each party generates its own
Paillier key pair and exchanges the *public* keys, so either party can
encrypt under the other's key while only the owner can decrypt.  Party B
additionally holds the labels.

:class:`VFLContext` bundles the parties, the shared channel and the protocol
configuration.  It supports the standard two-party setting and the
multi-party extension of Appendix C (several Party A's).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.channel import CHANNEL_KINDS, Channel, make_channel
from repro.crypto.paillier import (
    DEFAULT_BLINDING_LAMBDA,
    DEFAULT_KEY_BITS,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_paillier_keypair,
)
from repro.utils.rng import spawn_rngs

__all__ = ["Party", "VFLConfig", "VFLContext"]


@dataclass(frozen=True)
class VFLConfig:
    """Protocol-level knobs shared by all source layers.

    Fixed when the parties initialise (§2.2) and immutable afterwards:
    keys, channel and source layers are all built from it, so a variant
    is a new federation — ``dataclasses.replace(cfg, packing=True)`` and a
    fresh :class:`VFLContext`.

    Attributes:
        key_bits: Paillier modulus size.  Tests default to short keys for
            speed; the paper's deployment uses 2048.
        mask_scale: magnitude of the uniform masks used by forward-pass
            HE2SS conversions.  Must dwarf the protected values (Figure 11).
        grad_mask_scale: mask magnitude for gradient sharing.  Each masked
            update randomly walks the weight *pieces* apart by ~lr * mask
            per step (the drift Figure 11 plots), so this is kept moderate
            while still dwarfing the actual gradient values.
        share_refresh: how Party A's cached ``[[V_A]]`` is refreshed after
            Party B updates its plaintext piece — ``"reencrypt"`` resends
            the full encrypted tensor (faithful to Figure 6),
            ``"delta"`` sends only the encrypted update for coordinates
            touched by the batch (the sparse-aware mode).  Applies to
            every source layer, the multi-party one included; the MatMul
            layers need hub and spokes in one process for it.
        record_transcript: keep the full message transcript (the security
            tests need it; long benchmarks may disable it to save memory).
        channel: which in-process channel tier carries the protocol (see
            :mod:`repro.comm.channel`): ``"memory"`` passes live objects by
            reference, ``"serializing"`` round-trips every payload through
            the wire codec so the transcript is honest bytes and ``nbytes``
            is measured.  Both tiers produce bit-identical training
            trajectories.  The cross-process socket tier is not selected
            here — it needs a connected socket; pass a ready
            :class:`~repro.comm.transport.NetworkChannel` to
            :class:`VFLContext` instead.
        packing: SIMD-slot ciphertext batching (see
            :mod:`repro.crypto.packing`), for every source layer (MatMul,
            multi-party MatMul, Embed-MatMul).  When on, weight pieces that are
            only ever used as ``plain @ cipher`` right operands are
            encrypted in packed form, and every HE2SS transfer packs
            ``slots`` values per ciphertext before hitting the wire —
            cutting ciphertext count, blinding exponentiations and wire
            bytes by the slot factor.  Keys too small to fit two slots
            fall back to per-element ciphertexts automatically.  Results
            decode bit-identically to the unpacked protocol (with
            ``share_refresh="delta"`` the refresh replaces touched rows
            instead of homomorphically adding deltas, so trajectories may
            differ by fixed-point rounding at 2**-40).
        blinding_lambda: statistical parameter of the λ-exponent blinding
            shortcut (see :data:`repro.crypto.paillier.
            DEFAULT_BLINDING_LAMBDA`).  Each party key precomputes one
            ``h = r0^n`` and draws obfuscation blinders as ``h^x`` for
            random λ-bit ``x`` — a λ-bit exponent per blinder instead of a
            ``key_bits``-bit one (~16x less pow bit-work at 2048-bit keys).
            ``0`` restores the classic fresh ``r^n`` per blinder.
    """

    key_bits: int = DEFAULT_KEY_BITS
    mask_scale: float = 2.0**16
    grad_mask_scale: float = 128.0
    share_refresh: str = "reencrypt"
    record_transcript: bool = True
    packing: bool = False
    channel: str = "memory"
    blinding_lambda: int = DEFAULT_BLINDING_LAMBDA

    def __post_init__(self) -> None:
        if self.share_refresh not in ("reencrypt", "delta"):
            raise ValueError("share_refresh must be 'reencrypt' or 'delta'")
        if self.channel not in CHANNEL_KINDS:
            raise ValueError(f"channel must be one of {CHANNEL_KINDS}")
        if self.blinding_lambda < 0:
            raise ValueError("blinding_lambda must be non-negative (0 = classic)")


@dataclass
class Party:
    """One participant: its keys, its RNG, and (for Party B) the labels."""

    name: str
    public_key: PaillierPublicKey
    # ``None`` on fabric endpoints that do not host this party: every
    # process derives the same seeded *public* keys, but only the party's
    # home endpoint retains decryption capability.
    private_key: PaillierPrivateKey | None
    rng: np.random.Generator
    peer_public_keys: dict[str, PaillierPublicKey] = field(default_factory=dict)

    def peer_key(self, peer_name: str) -> PaillierPublicKey:
        try:
            return self.peer_public_keys[peer_name]
        except KeyError:
            raise KeyError(
                f"party {self.name!r} has no public key for peer {peer_name!r}"
            ) from None


class VFLContext:
    """A federation: parties + channel + configuration.

    ``n_a_parties=1`` gives the standard two-party setting (Party "A" and
    Party "B"); larger values create parties "A1".."Am" for the Appendix C
    multi-party protocols.
    """

    def __init__(
        self,
        config: VFLConfig | None = None,
        seed: int = 0,
        n_a_parties: int = 1,
        channel: Channel | None = None,
        local_parties: frozenset[str] | set[str] | None = None,
    ):
        if n_a_parties < 1:
            raise ValueError("need at least one Party A")
        self.config = config or VFLConfig()
        # An explicit channel instance (e.g. a connected NetworkChannel)
        # overrides the config's in-process tier selection.
        if channel is None:
            channel = make_channel(
                self.config.channel,
                record_transcript=self.config.record_transcript,
            )
        self.channel = channel
        if n_a_parties == 1:
            a_names = ["A"]
        else:
            a_names = [f"A{i + 1}" for i in range(n_a_parties)]
        names = a_names + ["B"]
        # ``local_parties`` declares which parties this *process* hosts.
        # ``None`` (the default) means all of them — the single-process
        # simulation.  A non-mirrored fabric endpoint passes only its own
        # parties: every keypair is still derived from the same per-party
        # seeds (so public keys agree across endpoints), but the private
        # keys of remote parties are dropped on the floor — this endpoint
        # must never be able to decrypt traffic it merely relays.
        if local_parties is None:
            local = frozenset(names)
        else:
            local = frozenset(local_parties)
            unknown = local - set(names)
            if unknown:
                raise ValueError(
                    f"local_parties {sorted(unknown)} not in federation "
                    f"{names}"
                )
            if not local:
                raise ValueError("local_parties must name at least one party")
        self.local_parties = local
        rngs = spawn_rngs(seed, len(names))
        self.parties: dict[str, Party] = {}
        for offset, (name, rng) in enumerate(zip(names, rngs)):
            pk, sk = generate_paillier_keypair(
                self.config.key_bits,
                seed=seed * 7919 + offset,
                blinding_lambda=self.config.blinding_lambda,
            )
            self.parties[name] = Party(
                name=name,
                public_key=pk,
                private_key=sk if name in local else None,
                rng=rng,
            )
        # Exchange public keys (the one PUBLIC broadcast of initialisation).
        for party in self.parties.values():
            for other in self.parties.values():
                if other.name != party.name:
                    party.peer_public_keys[other.name] = other.public_key
        self.a_names = a_names
        # Register every party key with the channel's codec key ring:
        # serializing tiers resolve decoded payloads against these objects,
        # so received tensors share the parties' seeded blinding RNGs and
        # transcripts stay bit-reproducible across channel implementations.
        for party in self.parties.values():
            channel.register_public_key(party.public_key)

    def is_local(self, name: str) -> bool:
        """Whether this process hosts ``name`` (executes its protocol side)."""
        return name in self.local_parties

    @property
    def A(self) -> Party:
        return self.parties[self.a_names[0]]

    @property
    def B(self) -> Party:
        return self.parties["B"]

    def a_parties(self) -> list[Party]:
        return [self.parties[name] for name in self.a_names]
