"""The microbenchmark gates, asserted on the seeded rows of ``benchmarks/micro.py``.

Every row but one is counted, so it is pinned exactly and holds on any box.
The big-int size rule is timed: gated up to ``micro.RING_RULE_MARGIN``, and
not at all within 2x of the squaring-run crossover.  If only that row fails,
rerun it alone before suspecting the change.  ``python benchmarks/micro.py``
prints the same rows.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import micro  # noqa: E402  (path bootstrap above)

from repro.crypto import bigint  # noqa: E402


def test_kernel_pows_dedup_by_plaintext_value():
    """A product traces one pow per (ciphertext element, distinct nonzero
    multiplier), however many terms share it; a scatter-add traces none."""
    row, failures = micro.run("kernel_pows")
    assert not failures, failures
    assert {label: r["traced"] for label, r in row.items()} == {
        "matmul 8x16x4 binary": 56,
        "matmul 16x32x8 binary": 256,
        # Gaussian multipliers are all distinct: every term pays.
        "matmul 4x64x16 gaussian": 4096,
        "sparse forward 16x64x4": 256,
        # X.T @ [[gZ]]: binary X multiplies each [[gZ]] element by 1 only.
        "sparse backward 16x64x4": 64,
        "scatter-add 32x4 -> 16": 0,
    }
    assert row["matmul 4x64x16 gaussian"]["per_pair"] == 4096
    assert all(r["traced"] < r["per_pair"] for label, r in row.items()
               if "binary" in label or "sparse" in label)
    # The gate reads the counts: a per-pair product fails it.
    doctored = {**row, "matmul 8x16x4 binary": {**row["matmul 8x16x4 binary"], "traced": 152}}
    assert [msg.split(",")[0] for msg in micro.gate_kernel_pows(doctored)] == [
        "matmul 8x16x4 binary: traced 152 pows"
    ]


def test_engine_rows_match_the_recorded_ones_exactly():
    """Mulmods and foreign calls are counted from the term lists, so the
    rows in ``tests/data/engine_rows.json`` hold exactly on any machine."""
    row, failures = micro.run("engine_rows")
    assert not failures, failures
    assert row == json.loads((REPO_ROOT / "tests" / "data" / "engine_rows.json").read_text())
    # Horner chains are all squaring runs: three calls each at the 2-slot
    # shape's 512-bit modulus, one per squaring at the 18-slot shape's 4 096
    # bits, where a native run measures slower and the size rule makes none.
    horner = {r["shape"]: r for r in row["engine_calls"]}
    assert horner["pack_rows 18 slots"]["engine_calls"] == (
        horner["pack_rows 18 slots"]["engine_mulmods"] + horner["pack_rows 18 slots"]["outputs"]
    )


def test_ring_size_rule_matches_this_box():
    row, failures = micro.run("ring_rule")
    assert not failures, failures
    assert all(r["residues_match"] for r in row.values())
    if bigint.backend()[0] != "libcrypto":
        return  # the reference ring alone: no rule to hold to timings
    # Run lengths within 2x of the crossover are not gated (that row
    # flapped); one far past it is.
    r = row[256]
    assert r["selected"]["sqr_run_min"] == 8
    r["sqr_run_us"][8] = {"looped": 1.0, "native": 100.0}
    assert list(micro.gate_ring_rule({256: r})) == []
    r["sqr_run_us"][32] = {"looped": 1.0, "native": 100.0}
    (failure,) = micro.gate_ring_rule({256: r})
    assert failure.startswith("rings @ 256b: a run of 32 squarings goes native")


def test_packing_folds_ciphertexts_blinders_and_bytes():
    """``ceil(values / slots)`` ciphertexts and blinders per encryption;
    the 2048-bit HE2SS transfer clears 5x in ciphertexts, accounted bytes
    and encoded-frame bytes; ``lkup_bw`` ships at least 2x fewer."""
    row, failures = micro.run("packing")
    assert not failures, failures
    assert row["encrypt 1x48"]["packed"] == {"cts": 24, "blinders": 24}
    assert row["he2ss 32x64 @ 2048b"]["packed"]["cts"] == 114
    # Row-aligned table lanes cap the reduction at emb_dim / ceil(emb_dim /
    # slots); at 2048-bit slots the whole row fits one ciphertext.
    lkup = row["lkup_bw @ 2048b"]
    assert lkup["unpacked"]["cts"] == micro.LKUP_DIM * lkup["packed"]["cts"]


def test_decrypt_pows_per_ciphertext():
    """At 256 bits a decrypt is CRT's two pows, and packed needs the slot
    factor fewer; from 512 bits protocol-shaped plaintexts take one pow each,
    with no fallback, to CRT's residue."""
    row, failures = micro.run("decrypt")
    assert not failures, failures
    assert row["packed 8x8"] == {"unpacked": 128, "packed": 64, "slots": 2, "same_values": True}
    doctored = {**row, "one-prime @ 512b": {**row["one-prime @ 512b"], "fallbacks": 1}}
    assert "1 CRT fallbacks" in "".join(micro.gate_decrypt(doctored))


def test_fabric_is_five_messages_deep_and_recovers_every_fault_class():
    """Three endpoints with faults on A1 -> B: every step 5 messages deep on
    the merged traces, losses and pieces float-exact against all-local, the
    faulted direction's recovery in its ledgers, the A2 link untouched."""
    row, failures = micro.run("fabric")
    assert not failures, failures
    assert row["depth"] == [micro.FABRIC_MESSAGE_DEPTH] * micro.FABRIC_STEPS


def test_printer_exits_nonzero_when_a_gate_fails(monkeypatch, capsys):
    monkeypatch.setattr(micro, "ROWS", {
        "stub": (lambda: {"product": {"traced": 3, "distinct": 2}}, micro.gate_kernel_pows),
    })
    assert micro.main() == 1
    out = capsys.readouterr().out
    assert "product / traced: 3" in out
    assert "FAIL stub: product: traced 3 pows" in out
