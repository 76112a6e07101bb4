"""Seeded protocol transcripts for the golden conformance tests.

Each scenario runs one training step (forward + backward + update) of a
source layer on fixed seeds and summarises every transcript message with
:func:`message_summary` — tags, kinds, sender/receiver
order, frame sizes and payload headers (shapes, exponents, slot layouts),
but never ciphertext bytes, so the records are reproducible across
machines while still pinning everything a refactor could silently change
about the wire protocol.

Regenerate the checked-in golden file after an *intentional* protocol
change::

    PYTHONPATH=src python tests/golden_transcript.py

and review the diff of ``tests/data/protocol_golden.json`` like any other
protocol-design decision.  ``--only a,b`` regenerates just those scenarios
(the rest of the file is kept as recorded), and ``--diff`` writes nothing:
it prints, per scenario and directed pair, which tags changed frame length
or appeared, or ``identical``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.comm.codec import encode_message
from repro.comm.message import Message
from repro.comm.party import VFLConfig, VFLContext
from repro.core.embed_matmul_layer import EmbedMatMulSource
from repro.core.matmul_layer import MatMulSource
from repro.core.multiparty import MultiPartyMatMulSource
from repro.crypto import CryptoTensor, PackedCryptoTensor, PaillierPublicKey

GOLDEN_PATH = Path(__file__).parent / "data" / "protocol_golden.json"


def split_payload(blob: bytes) -> tuple[int, bytes, bytes]:
    """Split a codec payload blob into ``(type_code, header, body)``.

    A blob is a type byte, the header length as an unsigned LEB128 varint,
    the header (every piece of structural metadata: key fingerprint,
    shapes, exponents, slot layout) and the body (ciphertext residues or an
    array buffer).
    """
    length, shift, pos = 0, 0, 1
    while True:
        byte = blob[pos]
        pos += 1
        length |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            break
    return blob[0], blob[pos : pos + length], blob[pos + length :]


def payload_summary(payload: object) -> dict:
    """Structural summary of a payload's wire header — no ciphertext bytes.

    It captures everything a refactor could silently change about the wire
    (types, shapes, exponents, slot layouts) while staying independent of
    the ciphertext randomness.
    """
    if isinstance(payload, CryptoTensor):
        shape, cts, exponents = payload.to_wire()
        return {
            "type": "crypto_tensor",
            "key_bits": payload.public_key.key_bits,
            "shape": list(shape),
            "exponent": exponents if isinstance(exponents, int) else "mixed",
            "n_cts": len(cts),
        }
    if isinstance(payload, PackedCryptoTensor):
        wire = payload.to_wire()
        return {
            "type": "packed_crypto_tensor",
            "key_bits": payload.public_key.key_bits,
            "layout": list(wire["layout"]),
            "contiguous": wire["contiguous"],
            "seg_cols": wire["seg_cols"],
            "shape": list(wire["shape"]),
            "exponent": wire["exponent"],
            "value_bits": wire["value_bits"],
            "n_cts": len(wire["cts"]),
        }
    if isinstance(payload, PaillierPublicKey):
        return {"type": "public_key", "key_bits": payload.key_bits}
    if isinstance(payload, np.ndarray):
        return {
            "type": "ndarray",
            "dtype": np.dtype(payload.dtype).str,
            "shape": list(payload.shape),
        }
    if isinstance(payload, (list, tuple)):
        return {
            "type": "list" if isinstance(payload, list) else "tuple",
            "items": [payload_summary(item) for item in payload],
        }
    return {"type": type(payload).__name__}


def message_summary(msg: Message) -> dict:
    """Conformance record of one transcript message (golden-test row)."""
    return {
        "seq": msg.seq,
        "sender": msg.sender,
        "receiver": msg.receiver,
        "tag": msg.tag,
        "kind": msg.kind.value,
        "nbytes": len(encode_message(msg)),
        "payload": payload_summary(msg.payload),
    }


def _matmul_step(key_bits: int, packing: bool, share_refresh: str) -> VFLContext:
    cfg = VFLConfig(
        key_bits=key_bits,
        packing=packing,
        share_refresh=share_refresh,
        channel="serializing",
    )
    ctx = VFLContext(cfg, seed=123)
    layer = MatMulSource(ctx, in_a=4, in_b=3, out_dim=2, name="g")
    rng = np.random.default_rng(9)
    layer.forward(rng.normal(size=(3, 4)), rng.normal(size=(3, 3)))
    layer.backward(rng.normal(size=(3, 2)) * 0.1)
    layer.apply_updates(lr=0.05, momentum=0.9)
    return ctx


def _embed_step(key_bits: int, packing: bool, share_refresh: str) -> VFLContext:
    cfg = VFLConfig(
        key_bits=key_bits,
        packing=packing,
        share_refresh=share_refresh,
        channel="serializing",
    )
    ctx = VFLContext(cfg, seed=321)
    layer = EmbedMatMulSource(
        ctx, vocab_a=[4, 3], vocab_b=[5], emb_dim=2, out_dim=1, name="ge"
    )
    rng = np.random.default_rng(11)
    x_a = rng.integers(0, [4, 3], size=(3, 2))
    x_b = rng.integers(0, 5, size=(3, 1))
    layer.forward(x_a, x_b)
    layer.backward(rng.normal(size=(3, 1)) * 0.1)
    layer.apply_updates(lr=0.05, momentum=0.9)
    return ctx


def _multiparty_step(key_bits: int) -> VFLContext:
    """One step of the Appendix C layer — the per-endpoint fabric protocol.

    Recorded all-local on the serializing tier, which produces the exact
    per-(sender, receiver) message schedule every fabric endpoint must
    reproduce: a fabric run's transcripts are compared against this
    golden *per pair* (cross-sender arrival order at the key owner is
    scheduling-dependent; per-pair FIFO order is part of the protocol).
    """
    cfg = VFLConfig(key_bits=key_bits, channel="serializing")
    ctx = VFLContext(cfg, seed=77, n_a_parties=2)
    layer = MultiPartyMatMulSource(
        ctx, {"A1": 3, "A2": 2}, in_b=2, out_dim=2, name="gm"
    )
    rng = np.random.default_rng(13)
    x = {
        "A1": rng.normal(size=(3, 3)),
        "A2": rng.normal(size=(3, 2)),
        "B": rng.normal(size=(3, 2)),
    }
    layer.forward(x)
    layer.backward(rng.normal(size=(3, 2)) * 0.1)
    layer.apply_updates(lr=0.05, momentum=0.9)
    return ctx


# Packed scenarios need a key that fits at least two product slots
# (protocol_layout falls back to per-element below ~224 bits).
SCENARIOS = {
    "matmul": lambda: _matmul_step(128, packing=False, share_refresh="reencrypt"),
    "matmul_packed": lambda: _matmul_step(256, packing=True, share_refresh="reencrypt"),
    "embed": lambda: _embed_step(128, packing=False, share_refresh="reencrypt"),
    "embed_packed": lambda: _embed_step(256, packing=True, share_refresh="reencrypt"),
    "embed_delta": lambda: _embed_step(128, packing=False, share_refresh="delta"),
    "multiparty": lambda: _multiparty_step(128),
}


def build_transcript(scenario: str) -> list[dict]:
    """The conformance records of one seeded scenario's full transcript."""
    ctx = SCENARIOS[scenario]()
    return [message_summary(msg) for msg in ctx.channel.transcript]


def build_all() -> dict[str, list[dict]]:
    return {name: build_transcript(name) for name in SCENARIOS}


def regenerate(only: list[str] | None = None) -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    if only is None:
        golden = build_all()
    else:
        golden = json.loads(GOLDEN_PATH.read_text())
        golden.update({name: build_transcript(name) for name in only})
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


def diff_lines(recorded: dict[str, list[dict]], current: dict[str, list[dict]]) -> list[str]:
    """Per scenario and directed pair: tags whose frame length changed, that
    appeared or that are gone; ``identical`` where every record is equal."""
    lines = []
    for name in sorted(set(recorded) | set(current)):
        old, new = recorded.get(name, []), current.get(name, [])
        if old == new:
            lines.append(f"{name}: identical")
            continue
        pairs = sorted({(r["sender"], r["receiver"]) for r in old + new})
        for sender, receiver in pairs:
            was, now = (
                {r["tag"]: r for r in records if (r["sender"], r["receiver"]) == (sender, receiver)}
                for records in (old, new)
            )
            changes = [
                f"{tag} {was[tag]['nbytes']} -> {now[tag]['nbytes']} B"
                for tag in was if tag in now and was[tag]["nbytes"] != now[tag]["nbytes"]
            ]
            changes += [
                f"{tag} header only" for tag in was
                if tag in now and was[tag] != now[tag] and was[tag]["nbytes"] == now[tag]["nbytes"]
            ]
            changes += [f"{tag} appeared ({now[tag]['nbytes']} B)" for tag in now if tag not in was]
            changes += [f"{tag} gone" for tag in was if tag not in now]
            lines.append(f"{name} {sender}->{receiver}: " + ("; ".join(changes) or "identical"))
    return lines


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", help="comma-separated scenarios to regenerate")
    parser.add_argument("--diff", action="store_true", help="compare, write nothing")
    parser.add_argument(
        "--against", default=str(GOLDEN_PATH), help="recorded file --diff compares with"
    )
    args = parser.parse_args()
    if args.diff:
        print("\n".join(diff_lines(json.loads(Path(args.against).read_text()), build_all())))
    else:
        regenerate(args.only.split(",") if args.only else None)
