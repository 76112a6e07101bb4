"""Tier-1 perf smoke: the benchmark gates, run at their quick sizes.

Runs the quick microbench gates from ``benchmarks/run_bench.py`` (sub-second
sizes, counted wherever possible) so a structural regression in the flat
kernels fails ``pytest -x -q`` directly, and checks the emitted benchmark
JSON is well-formed.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import run_bench  # noqa: E402  (path bootstrap above)


def test_kernel_pows_dedup_by_plaintext_value():
    """Counted: a matmul traces one pow per (ciphertext element, distinct
    nonzero multiplier), however many nonzero terms share it; a
    scatter-add traces none."""
    results = run_bench.check()
    rows = {
        (entry["s"], entry["m"], entry["k"], entry["kind"]): entry
        for entry in results["matmul_plain_cipher"]
    }
    # Gaussian multipliers are all distinct: every term pays, 4 x 64 x 16.
    dense = rows[4, 64, 16, "gaussian"]
    assert dense["pow_mul"] == dense["distinct_pows"] == dense["per_pair_pows"] == 4096
    # Binary ones share the value 1: one pow per touched ciphertext element.
    for (s, m, k, kind), entry in rows.items():
        assert entry["kernel_s"] > 0
        if kind == "binary":
            assert entry["pow_mul"] == entry["distinct_pows"] < entry["per_pair_pows"]
            assert entry["pow_mul"] <= m * k
    sp = results["sparse_matmul"]
    assert sp["fwd_pow_mul"] == sp["fwd_distinct_pows"] < sp["per_pair_pows"]
    assert sp["bwd_pow_mul"] == sp["bwd_distinct_pows"] == sp["batch"] * sp["k"]
    assert results["scatter_add"]["pows"] == 0
    # The gate reads the counts: a per-pair matmul, or a scatter that pows, fails.
    doctored = copy.deepcopy(results)
    doctored["matmul_plain_cipher"][0]["pow_mul"] = doctored["matmul_plain_cipher"][0]["per_pair_pows"]
    with pytest.raises(AssertionError, match=r"matmul 8x16x4 \(binary\): traced 152 pows"):
        run_bench.check(doctored)
    doctored = copy.deepcopy(results)
    doctored["scatter_add"]["pows"] = 1
    with pytest.raises(AssertionError, match="scatter-add traced 1 pows"):
        run_bench.check(doctored)
    # Counted, machine-independent: shared squarings on the dense LR shape,
    # never worse than power-once-then-scatter on binary features.
    dense, binary = results["engine_mulmods"]
    assert (dense["s"], dense["m"], dense["k"]) == (16, 14, 1)
    assert (binary["s"], binary["m"], binary["k"]) == (32, 64, 16)
    assert dense["engine_mulmods"] <= (
        run_bench.MAX_DENSE_ENGINE_SHARE * dense["per_pair_mulmods"]
    )
    assert binary["engine_mulmods"] <= binary["per_pair_mulmods"]
    # The squaring-run rule is gated away from its crossover only, where
    # looped and native are equal by construction (that row flapped tier-1).
    doctored = copy.deepcopy(results)
    for row in doctored["rings"]:
        if row["selected"]["sqr_run_min"] != 8 or "sqr_run_us" not in row:
            continue  # reference ring only, or a threshold no timed length sits on
        row["sqr_run_us"]["8"] = {"looped": 1.0, "native": 100.0}
        run_bench.check(doctored)
        row["sqr_run_us"]["32"] = {"looped": 1.0, "native": 100.0}
        with pytest.raises(AssertionError, match="a run of 32 squarings goes native"):
            run_bench.check(doctored)
        break


def test_counted_engine_rows_match_the_recorded_ones_exactly():
    """Mulmods and foreign calls are counted from the term lists, so the
    rows in ``BENCH_kernels.json`` are exact on any machine."""
    import bench_kernels
    from repro.crypto.paillier import generate_paillier_keypair

    recorded = json.loads((REPO_ROOT / "BENCH_kernels.json").read_text())
    meta = recorded["meta"]
    pk, _ = generate_paillier_keypair(meta["key_bits"], seed=12345)
    density = meta["binary_density"]
    assert recorded["engine_mulmods"] == [
        bench_kernels.count_engine_mulmods(pk, *shape, density)
        for shape in bench_kernels.MULMOD_SHAPES
    ]
    calls = bench_kernels.count_engine_calls(pk, density)
    assert recorded["engine_calls"] == calls
    assert [row["shape"] for row in calls] == [
        "gaussian 16x14x1", "binary 32x64x16", "pack_rows 2 slots", "pack_rows 18 slots",
    ]
    # Horner chains are all squaring runs: three calls each at the 2-slot
    # shape's 512-bit modulus, one per squaring at the 18-slot shape's 4 096
    # bits, where a native run measures slower and the size rule makes none.
    assert calls[2]["engine_calls"] <= run_bench.MAX_HORNER_CALL_SHARE * calls[2]["engine_mulmods"]
    assert calls[3]["engine_calls"] == calls[3]["engine_mulmods"] + calls[3]["outputs"]


def test_bench_json_roundtrips(tmp_path):
    import bench_kernels

    out = tmp_path / "BENCH_kernels.json"
    rc = bench_kernels.main(["--quick", "--key-bits", "128", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["key_bits"] == 128
    assert payload["matmul_plain_cipher"]
    assert payload["scatter_add"]["kernel_s"] > 0 and payload["scatter_add"]["pows"] == 0


def test_packing_gate_holds():
    """Packed encrypt makes ceil(values / slots) ciphertexts; the 2048-bit
    grid must clear 5x."""
    results = run_bench.check_packing()
    enc = results["encrypt"]
    assert enc["slots"] >= 2 and enc["packed_cts"] * enc["slots"] >= enc["unpacked_cts"]
    assert enc["packed_cts"] < enc["unpacked_cts"]
    production = [
        row
        for row in results["bandwidth"]
        if row["key_bits"] == 2048 and (row["rows"], row["cols"]) == (32, 64)
    ]
    assert production, "the 32x64 @ 2048-bit acceptance row must be in the grid"
    assert production[0]["ct_reduction"] >= run_bench.MIN_PRODUCTION_REDUCTION
    assert production[0]["byte_reduction"] >= run_bench.MIN_PRODUCTION_REDUCTION
    # The packed embedding backward acceptance rows: >= 2x fewer lkup_bw
    # ciphertexts at the bench key, slots-fold at the production key.
    lkup = {row["key_bits"]: row for row in results["lkup_bw"]}
    assert run_bench.PACKING_KEY_BITS in lkup and 2048 in lkup
    for row in lkup.values():
        assert row["ct_reduction"] >= run_bench.MIN_LKUP_BW_REDUCTION
        assert row["lkup_ct_reduction"] >= run_bench.MIN_LKUP_BW_REDUCTION
    # Row-aligned table lanes cap the reduction at emb_dim / ceil(emb_dim /
    # slots); at 2048-bit production slots the whole row fits one ciphertext.
    assert lkup[2048]["ct_reduction"] == lkup[2048]["emb_dim"]


def test_bench_packing_json_roundtrips(tmp_path):
    import bench_packing

    out = tmp_path / "BENCH_packing.json"
    rc = bench_packing.main(["--quick", "--key-bits", "256", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["key_bits"] == 256
    assert payload["meta"]["slots"] >= 2
    assert payload["encrypt"]["packed_cts"] < payload["encrypt"]["unpacked_cts"]
    assert payload["bandwidth"]


def test_decrypt_gate_holds():
    """Decrypt-engine counting gates: decrypts equal to their encoded
    plaintexts, packed equal to per-element, a blinder refill counted as
    one λ-bit pow per blinder plus one for ``h``, packed decrypt ≥
    slot-fold fewer CRT pows.

    All assertions are counting-only; timed rows stay informational.
    """
    results = run_bench.check_decrypt()
    bl = results["blinding"]
    assert (bl["key_bits"], bl["blinding_lambda"]) == (256, 128)
    assert (bl["pow_blind_lambda"], bl["pow_blind_classic"]) == (bl["count"], 1)
    assert bl["blinders_valid"]
    # The gate reads the counts: a refill that paid a second full pow fails.
    doctored = copy.deepcopy(results)
    doctored["blinding"]["pow_blind_classic"] = 2
    with pytest.raises(AssertionError, match="and 2 full pows"):
        run_bench.check_decrypt(doctored)
    pd = results["packed_decrypt"]
    assert pd["crt_pow_reduction"] >= run_bench.MIN_PACKED_DECRYPT_REDUCTION
    assert pd["packed_cts"] < pd["unpacked_cts"]
    for entry in results["decrypt_flat"]:
        assert entry["matches_encoding"]
        assert entry["crt_pows"] == 2 * entry["size"]  # 256 bits: no band, CRT
    doctored = copy.deepcopy(results)
    doctored["decrypt_flat"][0]["matches_encoding"] = False
    with pytest.raises(AssertionError, match="plaintexts differ from their encodings"):
        run_bench.check_decrypt(doctored)
    # One-prime rows: one pow per ciphertext, no fallback, CRT's residues,
    # at the timed 512-bit key and the counting-only 2048-bit one.
    rows = {row["key_bits"]: row for row in results["one_prime"]}
    assert set(rows) == {512, 2048} and "counting_only" in rows[2048]
    for row in rows.values():
        assert row["one_prime_bits"] >= 128
        assert (row["pows_per_ct"], row["fallbacks"], row["matches_crt"]) == (1.0, 0, True)
    # The gate reads the counts: one fallback fails it.
    doctored = copy.deepcopy(results)
    doctored["one_prime"][1]["fallbacks"] = 1
    with pytest.raises(AssertionError, match="1 CRT fallbacks"):
        run_bench.check_decrypt(doctored)


def test_transport_gate_holds():
    """Retransmission-overhead gate: at fault rate 0 the reliability layer
    counts nothing — zero retransmits, zero NAKs, zero duplicates, zero
    extra frames, exactly one fixed envelope per codec frame — and the
    seeded faulted row still delivers every frame with its recovery
    traffic visible in the counters."""
    results = run_bench.check_transport()
    env = results["meta"]["env_overhead"]
    for row in results["clean"]:
        for side in ("sender", "receiver"):
            stats = row[side]
            assert stats["retransmits"] == 0
            assert stats["naks_sent"] == 0
            assert stats["duplicates_dropped"] == 0
            assert stats["retransmits"] + stats["naks_sent"] + stats["resumes"] == 0
            assert stats["envelope_bytes"] == stats["data_sent"] * env
    faulted = results["faulted"]
    assert faulted["echoed"] == faulted["rounds"]
    assert faulted["sender"]["retransmits"] + faulted["receiver"]["naks_sent"] > 0


def test_bench_transport_json_roundtrips(tmp_path):
    import bench_transport

    out = tmp_path / "BENCH_transport.json"
    rc = bench_transport.main(["--quick", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["env_overhead"] == 27
    assert payload["clean"] and payload["faulted"]["fault_plan"]["events"] > 0
    # The cross-process row reads its counters from run_federation's
    # link_stats return value, not a side channel.
    assert payload["two_party"]["guest"]["data_sent"] >= payload["two_party"]["rounds"]


def test_fabric_gate_holds():
    """Fabric gate: the clean 3-endpoint run bit-identical to the
    in-memory reference, clean per-peer link ledgers with exact envelope
    accounting, star grid around the key owner.  Counting-only — wall
    clock stays informational."""
    results = run_bench.check_fabric()
    row = results["blocking"]
    assert row["losses_match_memory"] and row["pieces_match_memory"]
    for role, per_peer in row["link_stats"].items():
        for ledger in per_peer.values():
            assert all(ledger[c] == 0 for c in run_bench.FABRIC_CLEAN_ZERO)
            assert ledger["envelope_bytes"] == (
                ledger["data_sent"] + ledger["fins"]
            ) * results["meta"]["env_overhead"]
    assert set(row["link_stats"]["ep_b"]) == {"ep_a1", "ep_a2"}
    # Counted from the merged traces: every step is 5 messages deep, and
    # the critical path accounts for the key owner's whole wall clock.
    path = row["critical_path"]
    assert path["message_depth"] == [run_bench.FABRIC_MESSAGE_DEPTH] * results["meta"]["steps"]
    assert path["closure_error"] <= 0.01
    assert set(path["recv_wait_share"]) == set(path["path_share"]) == set(row["link_stats"])


def test_bench_fabric_json_roundtrips(tmp_path):
    import bench_fabric

    out = tmp_path / "BENCH_fabric.json"
    rc = bench_fabric.main(["--quick", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["steps"] == 3
    assert payload["blocking"]["losses_match_memory"] is True
    assert payload["blocking"]["pieces_match_memory"] is True
    assert payload["n_spans_merged"] > 0


def test_trace_gate_holds():
    """Telemetry gate: traced counters reconcile exactly with the channel's
    own ledgers, seeded runs trace identically, the packing fold is visible
    in ``ct.encrypted``, and a clean traced link mirrors its LinkStats with
    zero reliability events.  Counting-only — no wall clock is gated."""
    results = run_bench.check_trace()
    up, rep, pk = (
        results["unpacked"], results["unpacked_repeat"], results["packed"]
    )
    assert up["totals"] == rep["totals"]
    assert up["skeleton"] == rep["skeleton"]
    assert pk["totals"]["ct.encrypted"] < up["totals"]["ct.encrypted"]
    assert "ct.packed" in pk["totals"] and "ct.packed" not in up["totals"]
    for row in (up, pk):
        assert row["totals"]["bytes.sent"] == sum(row["bytes_by_sender"].values())
        assert row["totals"]["frames.sent"] == row["n_messages"]
    link = results["clean_link"]
    assert link["totals"]["link.data_sent"] == 2 * link["rounds"]
    assert all(
        link["totals"].get(f"link.{c}", 0) == 0
        for c in run_bench.bench_trace.LINK_RELIABILITY_EVENTS
    )


def test_bench_trace_json_roundtrips(tmp_path):
    import bench_trace

    out = tmp_path / "BENCH_trace.json"
    rc = bench_trace.main(["--quick", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["key_bits"] == 256
    assert payload["unpacked"]["n_spans"] > 0
    assert payload["unpacked"]["fold"]["rows"]
    assert payload["packed"]["totals"]["ct.packed"] > 0
    assert payload["clean_link"]["totals"]["link.data_sent"] > 0


def test_analysis_gate_holds():
    """Static-invariant gate: the tree lints clean under repro.analysis and
    every rule still flags its known-bad probe.  Counting-only — the sweep
    is stdlib ast over the source tree, no timing is gated."""
    results = run_bench.check_analysis()
    assert tuple(results["rules_registered"]) == run_bench.ANALYSIS_RULES
    assert results["files_scanned"] >= run_bench.MIN_ANALYSIS_FILES
    assert results["zero_findings"] and results["findings"] == 0
    assert all(row["detected"] for row in results["detection"].values())
    # The custody rule has no exception, and the gate reads that fact.
    assert results["custody_allowlist"] == []
    doctored = copy.deepcopy(results)
    doctored["custody_allowlist"] = [["crypto/pool.py", "_ensure_pool", "initargs"]]
    with pytest.raises(AssertionError, match="custody allowlist"):
        run_bench.check_analysis(doctored)


def test_bench_analysis_json_roundtrips(tmp_path):
    import bench_analysis

    out = tmp_path / "BENCH_analysis.json"
    rc = bench_analysis.main(["--quick", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["zero_findings"] is True
    assert payload["findings_by_rule"] == {
        code: 0 for code in run_bench.ANALYSIS_RULES
    }
    assert payload["wall_s"] > 0


def test_bench_decrypt_json_roundtrips(tmp_path):
    import bench_decrypt

    out = tmp_path / "BENCH_decrypt.json"
    rc = bench_decrypt.main(["--quick", "--key-bits", "256", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["key_bits"] == 256
    assert payload["decrypt_flat"]
    assert payload["blinding"]["blinders_valid"] is True
    assert payload["packed_decrypt"]["crt_pow_reduction"] >= 2.0


def test_table8_training_iteration_runs():
    """One Table 8 training step at 3 layers with 128-bit keys: the paper
    script builds its batch the way the loader does and its model trains
    on it (the script went unrun while ``forward`` took a dataset)."""
    import bench_table8_scale_depth as table8

    assert table8.KEY_BITS == 128
    iteration, timer = table8.training_iteration(3)
    assert np.isfinite(iteration())
    assert 0 < timer.elapsed < 2.0
