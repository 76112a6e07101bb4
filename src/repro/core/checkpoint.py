"""Checkpoint/resume for federated training — codec frames on disk.

A checkpoint must make a *resumed* run bit-identical to an uninterrupted
one, which for this protocol stack means capturing every stateful stream
the training loop consumes, not just the weights:

* the loader RNG state plus the current epoch's instance order and the
  next batch index (mini-batch schedule);
* each party's numpy RNG state (HE2SS obfuscation masks are drawn from
  these every batch);
* each party key's blinding state — the key's Python RNG and its
  blinding base ``h`` (ciphertext re-randomisation draws ``h^x`` from
  this stream);
* each source layer's secret-shared pieces, momentum velocities, cached
  *encrypted* peer pieces and step counter (protocol tags derive from it);
* the plaintext top model's parameters and optimizer velocities;
* the convergence history recorded so far.

Custody rule: a checkpoint **never** contains private-key material.  The
file format is a concatenation of wire-codec payload frames
(:func:`repro.comm.codec.encode_payload_frame`), so the codec's structural
refusal — there is deliberately no wire format for ``(p, q)`` — guards the
disk boundary exactly as it guards the network boundary, and every frame
carries a CRC32 trailer, so a corrupted checkpoint is detected at load
time instead of resuming from garbage.  On resume, the key owner
re-derives its private key from the federation seed when the model is
rebuilt; the checkpoint only restores *state around* the keys.

File layout::

    frame 0   ("blindfl-checkpoint", version)
    frame 1.. ("<section-name>", section-payload)

Sections are codec-native trees (tuples/lists/ndarrays/crypto tensors);
encrypted pieces are stored as live ciphertext payloads and re-bound to
the rebuilt model's seeded key objects through a key ring at load time, so
blinding streams continue bit-identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.comm import codec

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "TrainingInterrupted",
    "ResumePoint",
    "save_checkpoint",
    "load_checkpoint",
    "restore_checkpoint",
    "model_key_ring",
    "save_endpoint_checkpoint",
    "restore_endpoint_checkpoint",
]

CHECKPOINT_MAGIC = "blindfl-checkpoint"
CHECKPOINT_VERSION = 2


# repro: api-ok what load / restore raise on a malformed or mismatched file
class CheckpointError(RuntimeError):
    """A checkpoint file is malformed, incomplete, or does not match the
    model it is being restored onto."""


class TrainingInterrupted(RuntimeError):
    """Raised by the trainer's fault-injection knob (``crash_after_batches``)
    to simulate a mid-epoch crash after the latest checkpoint was written.

    Carries ``checkpoint_path`` so the catcher can hand it straight to
    ``train_federated(resume_from=...)``.
    """

    def __init__(self, message: str, checkpoint_path: str | None = None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


# repro: api-ok what restore_checkpoint returns
@dataclass
class ResumePoint:
    """Where a restored run picks up: mid-epoch, mid-order, mid-history."""

    epoch: int
    next_batch: int
    order: np.ndarray
    history: object  # repro.core.trainer.History (import cycle)


# ---------------------------------------------------------------------------
# RNG state flattening: the codec has no dict frame, so generator states
# travel as fixed-position tuples.


def _np_rng_state(gen: np.random.Generator) -> tuple:
    """Flatten a numpy Generator's bit-generator state to a codec tuple."""
    st = gen.bit_generator.state
    if st["bit_generator"] != "PCG64":  # pragma: no cover - repo-wide default
        raise CheckpointError(
            f"unsupported bit generator {st['bit_generator']!r}"
        )
    return (
        st["bit_generator"],
        int(st["state"]["state"]),
        int(st["state"]["inc"]),
        int(st["has_uint32"]),
        int(st["uinteger"]),
    )


def _set_np_rng_state(gen: np.random.Generator, state: tuple) -> None:
    name, inner, inc, has_uint32, uinteger = state
    gen.bit_generator.state = {
        "bit_generator": str(name),
        "state": {"state": int(inner), "inc": int(inc)},
        "has_uint32": int(has_uint32),
        "uinteger": int(uinteger),
    }


def _py_rng_state(rng) -> tuple:
    """Flatten a ``random.Random`` state (version, words, gauss-cache)."""
    version, internal, gauss_next = rng.getstate()
    return (int(version), [int(x) for x in internal], gauss_next)


def _set_py_rng_state(rng, state: tuple) -> None:
    version, internal, gauss_next = state
    rng.setstate((int(version), tuple(int(x) for x in internal), gauss_next))


def _blinding_state(public_key) -> tuple:
    """The key's obfuscation stream: its RNG and its blinding base ``h``.

    Both are *public-key-side* state (an n-th power and exponent draws);
    neither helps an adversary decrypt, but both must resume exactly for
    ciphertext transcripts to stay bit-identical.
    """
    return (
        _py_rng_state(public_key._rng),
        None if public_key._h is None else int(public_key._h),
    )


def _restore_blinding(public_key, state: tuple) -> None:
    rng_state, h = state
    _set_py_rng_state(public_key._rng, rng_state)
    public_key._h = None if h is None else int(h)


def _restore_parties(parties: dict, section, holder: str) -> None:
    """Restore each party's numpy RNG and its key's blinding stream."""
    saved = {str(name): (rng, blind) for name, rng, blind in section}
    if set(saved) != set(parties):
        raise CheckpointError(
            f"checkpoint covers parties {sorted(saved)} but {holder} holds "
            f"{sorted(parties)}"
        )
    for name, party in parties.items():
        rng_state, blind_state = saved[name]
        _set_np_rng_state(party.rng, rng_state)
        _restore_blinding(party.public_key, blind_state)


# ---------------------------------------------------------------------------
# Model traversal.


def model_key_ring(model, contexts=None) -> dict[int, object]:
    """``n -> PaillierPublicKey`` over every party key the model uses.

    Load-time decoding resolves each ciphertext frame's key fingerprint
    through this ring, so restored encrypted pieces are bound to the *same
    seeded key objects* as the rebuilt model — their blinding streams
    continue, not restart.
    """
    ring: dict[int, object] = {}
    for ctx in contexts or model.federation_contexts():
        for party in ctx.parties.values():
            codec.register_key(ring, party.public_key)
    return ring


def _model_parties(model) -> dict[str, object]:
    parties: dict[str, object] = {}
    for ctx in model.federation_contexts():
        for name, party in ctx.parties.items():
            parties.setdefault(name, party)
    return parties


def _party_section(parties: dict) -> list[tuple]:
    """Each party object's RNG and blinding-stream position in this process."""
    return [
        (name, _np_rng_state(party.rng), _blinding_state(party.public_key))
        for name, party in sorted(parties.items())
    ]


def _losses(values) -> list[float | None]:
    """A loss list as stored: ``None`` where Party B is remote."""
    return [None if x is None else float(x) for x in values]


def _collect_sections(model, optimizer, *, epoch, next_batch, order,
                      loader_rng, history) -> list[tuple[str, object]]:
    layer_section = []
    for layer in model.source_layers():
        state_fn = getattr(layer, "checkpoint_state", None)
        if state_fn is None:
            raise CheckpointError(
                f"source layer {layer.name!r} ({type(layer).__name__}) does "
                f"not support checkpointing"
            )
        layer_section.append((layer.name, state_fn()))
    top = optimizer._top
    top_section = (
        None
        if top is None
        else (
            [np.asarray(p.data) for p in top.params],
            [np.asarray(v) for v in top._velocity],
        )
    )
    return [
        (
            "trainer",
            (
                int(epoch),
                int(next_batch),
                np.asarray(order, dtype=np.int64),
                _np_rng_state(loader_rng),
            ),
        ),
        (
            "history",
            (
                _losses(history.losses),
                _losses(history.epoch_metrics),
                history.metric_name,
            ),
        ),
        ("parties", _party_section(_model_parties(model))),
        ("layers", layer_section),
        ("top", top_section),
    ]


# ---------------------------------------------------------------------------
# Save / load.


def _write_sections(path: str, sections: list[tuple[str, object]]) -> str:
    """Write the header and one codec payload frame per section; atomic replace.

    Every section goes through :func:`codec.encode_payload_frame`, so an
    object with no wire format — including anything carrying private-key
    material — fails loudly here rather than reaching disk.
    """
    frames = [codec.encode_payload_frame((CHECKPOINT_MAGIC, CHECKPOINT_VERSION))]
    frames.extend(
        codec.encode_payload_frame((name, payload)) for name, payload in sections
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        for frame in frames:
            fh.write(frame)
    os.replace(tmp, path)
    return path


def save_checkpoint(path: str, model, optimizer, *, epoch: int,
                    next_batch: int, order: np.ndarray,
                    loader_rng: np.random.Generator, history) -> str:
    """Persist this process's training state as codec frames; atomic replace.

    All-local that is the whole model; on a fabric endpoint it is the
    state of the parties that endpoint hosts (each source layer's
    ``checkpoint_state`` holds ``None`` for a remote side), so every
    endpoint writes its own file and restores only its own half.
    """
    return _write_sections(path, _collect_sections(
        model, optimizer, epoch=epoch, next_batch=next_batch, order=order,
        loader_rng=loader_rng, history=history,
    ))


def load_checkpoint(path: str, key_ring: dict | None = None) -> dict[str, object]:
    """Read and CRC-validate a checkpoint; returns ``{section: payload}``."""
    return _load_sections(
        path, key_ring, required={"trainer", "history", "parties", "layers", "top"}
    )


def _load_sections(
    path: str, key_ring: dict | None, required: set[str]
) -> dict[str, object]:
    with open(path, "rb") as fh:
        blob = fh.read()
    sections: dict[str, object] = {}
    header = None
    for index, (kind, body) in enumerate(codec.iter_frames(blob)):
        if kind != codec.FRAME_PAYLOAD:
            raise CheckpointError(
                f"checkpoint contains a non-payload frame kind 0x{kind:02x}"
            )
        payload = codec.decode_payload(body, key_ring)
        if header is None:
            header = payload
            if (
                not isinstance(header, tuple)
                or len(header) != 2
                or header[0] != CHECKPOINT_MAGIC
            ):
                raise CheckpointError(
                    f"{path!r} is not a BlindFL checkpoint (bad header frame)"
                )
            if header[1] != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"checkpoint version {header[1]} not supported "
                    f"(speaking {CHECKPOINT_VERSION})"
                )
            continue
        if not (
            isinstance(payload, tuple) and len(payload) == 2
            and isinstance(payload[0], str)
        ):
            raise CheckpointError(
                f"checkpoint frame {index} is not a (name, section) pair"
            )
        name, section = payload
        if name in sections:
            raise CheckpointError(f"duplicate checkpoint section {name!r}")
        sections[name] = section
    if header is None:
        raise CheckpointError(f"{path!r} is empty")
    missing = required - set(sections)
    if missing:
        raise CheckpointError(
            f"checkpoint is missing sections {sorted(missing)}"
        )
    return sections


def restore_checkpoint(model, optimizer, loader_rng: np.random.Generator,
                       sections: dict[str, object]) -> ResumePoint:
    """Overwrite a freshly *rebuilt* model's state from checkpoint sections.

    The caller constructs the model exactly as the original run did (same
    seeds — which is also how the key owner's private key reappears
    without ever having been serialized), then this function swaps in the
    trained state: RNGs, blinding streams, layer pieces, top parameters
    and history.
    """
    from repro.core.trainer import History

    _restore_parties(_model_parties(model), sections["parties"], "the model")

    # Source layers, matched by name.
    layers = {layer.name: layer for layer in model.source_layers()}
    saved_layers = dict(sections["layers"])
    if set(saved_layers) != set(layers):
        raise CheckpointError(
            f"checkpoint layers {sorted(saved_layers)} do not match the "
            f"model's {sorted(layers)}"
        )
    for name, layer in layers.items():
        try:
            layer.load_checkpoint_state(saved_layers[name])
        except ValueError as exc:
            raise CheckpointError(
                f"layer {name!r} rejected its checkpoint state: {exc}"
            ) from exc

    # Plaintext top model + optimizer velocities.
    top_section = sections["top"]
    top = optimizer._top
    if (top is None) != (top_section is None):
        raise CheckpointError(
            "checkpoint top-model section does not match the optimizer"
        )
    if top is not None:
        params, velocities = top_section
        if len(params) != len(top.params) or len(velocities) != len(params):
            raise CheckpointError(
                f"checkpoint holds {len(params)} top parameters, the model "
                f"has {len(top.params)}"
            )
        for tensor, data in zip(top.params, params):
            if tuple(tensor.data.shape) != tuple(np.asarray(data).shape):
                raise CheckpointError("top parameter shape mismatch")
            tensor.data = np.asarray(data, dtype=np.float64)
        top._velocity = [np.asarray(v, dtype=np.float64) for v in velocities]

    epoch, next_batch, order, rng_state = sections["trainer"]
    _set_np_rng_state(loader_rng, rng_state)
    losses, epoch_metrics, metric_name = sections["history"]
    history = History(
        losses=_losses(losses), epoch_metrics=_losses(epoch_metrics),
        metric_name=str(metric_name),
    )
    return ResumePoint(
        epoch=int(epoch),
        next_batch=int(next_batch),
        order=np.asarray(order, dtype=np.int64),
        history=history,
    )


# ---------------------------------------------------------------------------
# Per-endpoint checkpoints for the N-party fabric.
#
# A fabric run has no single process that sees all state: each endpoint
# writes its *own* file covering exactly its slice — the local model
# state plus every party object's RNG/blinding stream position *in this
# process* (each endpoint constructs all Party objects from the
# federation seed; remote parties' streams sit untouched at their seed
# state, so snapshotting them is both cheap and exact).  The custody
# rule is inherited wholesale: sections travel as codec payload frames,
# so private-key material is structurally unserialisable, and on resume
# the key owner re-derives ``(p, q)`` from the federation seed when the
# context is rebuilt.

ENDPOINT_SECTIONS = {"fabric", "parties", "model"}


def save_endpoint_checkpoint(
    path: str, model, *, step: int, losses
) -> str:
    """Persist one fabric endpoint's local training state; atomic replace.

    ``model`` is a fabric model holding a single
    :class:`~repro.comm.party.VFLContext` (e.g.
    :class:`~repro.core.multiparty.MultiPartyLR`) whose
    ``checkpoint_state()`` covers only this endpoint's local actors.
    ``losses`` is the per-step loss list (``None`` entries off Party B).
    """
    return _write_sections(path, [
        ("fabric", (int(step), _losses(losses))),
        ("parties", _party_section(model.ctx.parties)),
        ("model", model.checkpoint_state()),
    ])


def restore_endpoint_checkpoint(path: str, model) -> tuple[int, list[float]]:
    """Overwrite a freshly rebuilt fabric model from its endpoint file.

    The caller constructs the context and model exactly as the original
    run did (same federation seed — which is how the key owner's private
    key reappears without ever touching the disk), then this swaps in
    the trained state.  Returns ``(step, losses)`` — the batch boundary
    to resume from and the losses recorded up to it (``None`` entries on
    endpoints that never see a loss).
    """
    ctx = model.ctx
    ring = model_key_ring(model, [ctx])
    sections = _load_sections(path, ring, required=set(ENDPOINT_SECTIONS))
    _restore_parties(ctx.parties, sections["parties"], "this process")
    try:
        model.load_checkpoint_state(sections["model"])
    except ValueError as exc:
        raise CheckpointError(
            f"model rejected its endpoint checkpoint state: {exc}"
        ) from exc
    step, losses = sections["fabric"]
    return int(step), _losses(losses)
