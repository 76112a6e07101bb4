"""Protocol-conformance golden tests.

A seeded one-step MatMul and Embed-MatMul transcript (packed and unpacked,
reencrypt and delta) is recorded in ``tests/data/protocol_golden.json`` —
tags, kinds, sender/receiver order, sequence numbers, frame sizes and
payload wire headers, but not ciphertext bytes.  These tests replay the
same seeded scenarios and require exact equality, so a refactor cannot
*silently* change what crosses the trust boundary: any intentional
protocol change must regenerate the golden file
(``PYTHONPATH=src python tests/golden_transcript.py``) and show up in
review as a JSON diff.
"""

from __future__ import annotations

import json

import pytest

import golden_transcript


@pytest.fixture(scope="module")
def golden():
    assert golden_transcript.GOLDEN_PATH.exists(), (
        "golden transcript missing; regenerate with "
        "`PYTHONPATH=src python tests/golden_transcript.py`"
    )
    return json.loads(golden_transcript.GOLDEN_PATH.read_text())


def test_golden_covers_every_scenario(golden):
    assert set(golden) == set(golden_transcript.SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(golden_transcript.SCENARIOS))
def test_transcript_matches_golden(golden, scenario):
    current = golden_transcript.build_transcript(scenario)
    recorded = golden[scenario]
    # Compare message-by-message for a reviewable failure, then whole-list
    # to catch length drift.
    for i, (cur, rec) in enumerate(zip(current, recorded)):
        assert cur == rec, (
            f"{scenario}: message {i} drifted from the recorded protocol\n"
            f"  recorded: {rec}\n  current:  {cur}\n"
            f"If this change is intentional, regenerate the golden file and "
            f"review the diff."
        )
    assert len(current) == len(recorded), (
        f"{scenario}: transcript length drifted "
        f"({len(current)} vs recorded {len(recorded)})"
    )


def test_golden_records_no_ciphertext_material(golden):
    """The checked-in file holds structure only — no residues, no arrays."""
    text = json.dumps(golden)
    for scenario in golden.values():
        for record in scenario:
            assert set(record) == {
                "seq", "sender", "receiver", "tag", "kind", "nbytes", "payload"
            }
    # A ciphertext residue would be a huge integer literal; the largest
    # numbers in the file are frame sizes and accumulation depths.
    for token in text.replace("{", " ").replace("}", " ").split():
        digits = token.strip('",:[]')
        if digits.isdigit():
            assert int(digits) < 10**9, "suspiciously large integer in golden file"


@pytest.mark.parametrize("scenario", sorted(golden_transcript.SCENARIOS))
def test_no_message_frame_carries_a_modulus(scenario):
    """Ciphertext headers name their key by an 8-byte fingerprint, so no
    party's public modulus appears in any message frame of a scenario; the
    hello, which carries the keys, is the positive control."""
    from repro.comm import codec

    ctx = golden_transcript.SCENARIOS[scenario]()
    keys = [party.public_key for party in ctx.parties.values()]
    moduli = [key.n.to_bytes((key.key_bits + 7) // 8, "big") for key in keys]
    frames = [codec.encode_message(msg) for msg in ctx.channel.transcript]
    assert any(key.fingerprint in frame for key in keys for frame in frames)
    for frame in frames:
        assert not any(modulus in frame for modulus in moduli)
    hello = codec.encode_hello(sorted(ctx.parties), keys)
    assert all(modulus in hello for modulus in moduli)
