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


def test_multiparty_golden_only_reinterleaves_the_program_order(golden):
    """The send-early order of ``core/multiparty.py`` may move *when* a
    frame is sent, never what any directed pair sees: the recorded
    transcript is a permutation of the Algorithm 3 program-order transcript
    it replaced (kept beside the golden file), with every directed pair's
    subsequence — tags, kinds, frame sizes, payload headers — identical.
    ``seq`` is dropped: it is the global interleaving itself."""
    program_order = json.loads(
        (golden_transcript.GOLDEN_PATH.parent / "multiparty_program_order.json").read_text()
    )

    def by_pair(records):
        pairs = {}
        for rec in records:
            rec = {k: v for k, v in rec.items() if k != "seq"}
            pairs.setdefault((rec["sender"], rec["receiver"]), []).append(rec)
        return pairs

    assert by_pair(golden["multiparty"]) == by_pair(program_order)
    assert [r["seq"] for r in golden["multiparty"]] == [r["seq"] for r in program_order]
    assert [r["tag"] for r in golden["multiparty"]] != [r["tag"] for r in program_order]


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
