"""Microbenchmark for SIMD-slot ciphertext packing vs per-element ciphertexts.

Measures the three places packing pays:

* **encrypt** — obfuscated encryption of a tensor: the packed path spends
  one blinding exponentiation per ``slots`` values instead of one per
  value (the dominant cost of leaving a party);
* **add** — lane-wise homomorphic addition: one mulmod covers ``slots``
  lanes;
* **bandwidth** — ciphertext count and accounted wire bytes for
  HE2SS-style forward transfers across a shape grid, including the
  paper's 2048-bit production keys.  The 2048-bit rows use a synthetic
  modulus and unobfuscated encryption (pure mulmods), because the point
  there is *counting* — the layout math and ``payload_nbytes`` accounting
  are exact regardless — while pure-python 2048-bit blinding would take
  minutes.

Emits ``BENCH_packing.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_packing.py            # full grid
    PYTHONPATH=src python benchmarks/bench_packing.py --quick    # CI sizes
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

import run_bench
from repro.comm import codec
from repro.comm.channel import payload_nbytes
from repro.crypto.crypto_tensor import CryptoTensor
from repro.crypto.packing import PackedCryptoTensor, protocol_layout
from repro.crypto.paillier import PaillierPublicKey, generate_paillier_keypair

REPO_ROOT = Path(__file__).resolve().parent.parent

# The paper's production key size; synthetic modulus — see module docstring.
PRODUCTION_KEY_BITS = 2048


def _timeit(fn, repeat: int = 1) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _production_key() -> PaillierPublicKey:
    """A 2048-bit modulus for layout/accounting runs (no decryption here)."""
    return PaillierPublicKey((1 << (PRODUCTION_KEY_BITS - 1)) + 9)


def bench_encrypt(pk, sk, layout, size: int, repeat: int) -> dict:
    """Obfuscated encryption: per-element vs packed."""
    rng = np.random.default_rng(0)
    values = rng.normal(size=(1, size))
    t_unpacked, u = _timeit(
        lambda: CryptoTensor.encrypt(pk, values, obfuscate=True), repeat
    )
    t_packed, p = _timeit(
        lambda: PackedCryptoTensor.encrypt(pk, values, layout, obfuscate=True),
        repeat,
    )
    if not np.array_equal(p.decrypt(sk), u.decrypt(sk)):  # pragma: no cover
        raise AssertionError("packed and unpacked encryption decode differently")
    return {
        "size": size,
        "slots": layout.slots,
        "unpacked_s": t_unpacked,
        "packed_s": t_packed,
        "unpacked_ops_per_s": size / t_unpacked,
        "packed_ops_per_s": size / t_packed,
        "speedup_packed": t_unpacked / t_packed,
        "unpacked_cts": u.size,
        "packed_cts": p.n_ciphertexts,
    }


def bench_add(pk, sk, layout, shape: tuple[int, int], repeat: int) -> dict:
    """Lane-wise add vs per-element add on equal logical shapes."""
    rng = np.random.default_rng(1)
    a = rng.normal(size=shape)
    b = rng.normal(size=shape)
    ua = CryptoTensor.encrypt(pk, a, obfuscate=False)
    ub = CryptoTensor.encrypt(pk, b, obfuscate=False)
    pa = PackedCryptoTensor.encrypt(pk, a, layout, obfuscate=False)
    pb = PackedCryptoTensor.encrypt(pk, b, layout, obfuscate=False)
    t_unpacked, us = _timeit(lambda: ua + ub, repeat)
    t_packed, ps = _timeit(lambda: pa + pb, repeat)
    if not np.array_equal(ps.decrypt(sk), us.decrypt(sk)):  # pragma: no cover
        raise AssertionError("packed and unpacked add decode differently")
    return {
        "shape": list(shape),
        "unpacked_s": t_unpacked,
        "packed_s": t_packed,
        "speedup_packed": t_unpacked / t_packed,
    }


def _frame_bytes(payload) -> int:
    """Measured wire size: the payload's actual encoded frame length.

    This is what :class:`repro.comm.channel.SerializingChannel` records per
    message — body bytes (the ``payload_nbytes`` estimate) plus the codec's
    framing header — so the benchmark's wire rows report reality, not just
    the estimator.
    """
    return len(codec.encode_payload(payload))


def bench_bandwidth(key_bits: int, shapes: list[tuple[int, int]]) -> list[dict]:
    """Ciphertext count + accounted wire bytes for forward-transfer shapes."""
    if key_bits == PRODUCTION_KEY_BITS:
        pk = _production_key()
    else:
        pk, _ = generate_paillier_keypair(key_bits, seed=777)
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=1024)
    out = []
    for rows, cols in shapes:
        values = np.zeros((rows, cols))
        unpacked = CryptoTensor.encrypt(pk, values, obfuscate=False)
        entry = {
            "key_bits": key_bits,
            "rows": rows,
            "cols": cols,
            "unpacked_cts": unpacked.size,
            "unpacked_bytes": payload_nbytes(unpacked),
            "unpacked_frame_bytes": _frame_bytes(unpacked),
        }
        if layout is None:
            entry.update(
                {"slots": 1, "packed_cts": None, "packed_bytes": None,
                 "packed_frame_bytes": None,
                 "ct_reduction": 1.0, "byte_reduction": 1.0,
                 "frame_byte_reduction": 1.0,
                 "note": "key too small for packing; per-element fallback"}
            )
        else:
            # HE2SS transfers pack contiguously (transfer-only tensors need
            # no row alignment), so the grid models exactly that.
            packed = PackedCryptoTensor.encrypt(
                pk, values, layout, obfuscate=False, contiguous=True
            )
            entry.update(
                {
                    "slots": layout.slots,
                    "slot_bits": layout.slot_bits,
                    "packed_cts": packed.n_ciphertexts,
                    "packed_bytes": payload_nbytes(packed),
                    "packed_frame_bytes": _frame_bytes(packed),
                    "ct_reduction": unpacked.size / packed.n_ciphertexts,
                    "byte_reduction": payload_nbytes(unpacked)
                    / payload_nbytes(packed),
                    "frame_byte_reduction": _frame_bytes(unpacked)
                    / _frame_bytes(packed),
                }
            )
        out.append(entry)
    return out


def bench_lkup_bw(
    key_bits: int,
    batch: int,
    fields: int,
    emb_dim: int,
    vocab_total: int,
    repeat: int,
) -> dict:
    """Embedding forward lookup + backward ``lkup_bw`` transfer costs.

    The packed path keeps the table piece ``[[T]]`` packed through
    ``take_rows -> reshape`` (pure ciphertext-slice bookkeeping, zero
    crypto) and runs the scatter-add on *packed* gradient rows, so both
    hot embedding transfers ship ``slots``-fold fewer ciphertexts.  The
    timing contrast is scatter-then-pack (the pre-segment-aware pipeline:
    per-element scatter over the whole table, then a table-sized
    homomorphic pack before the wire) vs pack-then-scatter (the new
    pipeline: pack only the ``batch * fields`` gradient rows, then
    lane-wise mulmod scatter) — the pow count drops from one per table
    entry to one per batch-gradient entry.

    At the production key size the modulus is synthetic (no decryption;
    unobfuscated counting run, like the bandwidth grid) — the ciphertext
    counts and accounted bytes are exact either way.
    """
    real = key_bits != PRODUCTION_KEY_BITS
    if real:
        pk, sk = generate_paillier_keypair(key_bits, seed=4242)
    else:
        pk, sk = _production_key(), None
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=1024)
    if layout is None:
        raise ValueError(f"{key_bits}-bit keys cannot fit two slots")
    rng = np.random.default_rng(5)
    flat_idx = rng.integers(0, vocab_total, size=batch * fields)
    grads = rng.normal(size=(batch * fields, emb_dim)) * 0.1 if real else np.zeros(
        (batch * fields, emb_dim)
    )
    table = np.zeros((vocab_total, emb_dim))

    # Forward lookup: packed table -> take_rows -> reshape, no repack.
    packed_table = PackedCryptoTensor.encrypt(pk, table, layout, obfuscate=False)
    unpacked_table = CryptoTensor.encrypt(pk, table, obfuscate=False)
    lk_packed = packed_table.take_rows(flat_idx).reshape(batch, fields * emb_dim)
    lk_unpacked = unpacked_table.take_rows(flat_idx).reshape(batch, -1)

    # Backward lkup_bw: the gradient rows arrive per-element (matmul
    # products); untouched rows are blinded on demand inside the timed
    # region, as in production.  The synthetic production-key run skips
    # blinding entirely (counting only — pure python 2048-bit pows would
    # take minutes).
    enc = CryptoTensor.encrypt(pk, grads, obfuscate=False)

    def pack_then_scatter():
        return enc.pack(layout, value_bits=layout.acc_operand_bits).scatter_add_rows(
            flat_idx, num_rows=vocab_total, obfuscate_empty=real
        )

    if real:
        t_old, _ = _timeit(
            lambda: enc.scatter_add_rows(
                flat_idx, num_rows=vocab_total, obfuscate_empty=real
            ).pack(layout, contiguous=True),
            repeat,
        )
        t_new, gq_new = _timeit(pack_then_scatter, repeat)
    else:
        # Synthetic-modulus rows operate on all-residue-1 ciphertexts, so
        # loop timings would measure nothing real; run the pipeline once
        # for the counting fields and report no timings (mirrors the
        # bandwidth grid's None convention).
        t_old = t_new = None
        gq_new = pack_then_scatter()
    unpacked_gq = enc.scatter_add_rows(
        flat_idx, num_rows=vocab_total, obfuscate_empty=real
    )
    if real:
        if not np.array_equal(gq_new.decrypt(sk), unpacked_gq.decrypt(sk)):
            raise AssertionError(  # pragma: no cover
                "packed and per-element lkup_bw decode differently"
            )
    return {
        "key_bits": key_bits,
        "slots": layout.slots,
        "batch": batch,
        "fields": fields,
        "emb_dim": emb_dim,
        "vocab_total": vocab_total,
        "lkup_unpacked_cts": lk_unpacked.size,
        "lkup_packed_cts": lk_packed.n_ciphertexts,
        "lkup_ct_reduction": lk_unpacked.size / lk_packed.n_ciphertexts,
        "unpacked_cts": unpacked_gq.size,
        "packed_cts": gq_new.n_ciphertexts,
        "ct_reduction": unpacked_gq.size / gq_new.n_ciphertexts,
        "unpacked_bytes": payload_nbytes(unpacked_gq),
        "packed_bytes": payload_nbytes(gq_new),
        "byte_reduction": payload_nbytes(unpacked_gq) / payload_nbytes(gq_new),
        "unpacked_frame_bytes": _frame_bytes(unpacked_gq),
        "packed_frame_bytes": _frame_bytes(gq_new),
        "frame_byte_reduction": _frame_bytes(unpacked_gq) / _frame_bytes(gq_new),
        "scatter_then_pack_s": t_old,
        "pack_then_scatter_s": t_new,
        "speedup_pack_first": None if t_old is None else t_old / t_new,
    }


def run(key_bits: int = 256, quick: bool = False, repeat: int = 1) -> dict:
    pk, sk = generate_paillier_keypair(key_bits, seed=4242)
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=1024)
    if layout is None:
        raise SystemExit(
            f"--key-bits {key_bits} cannot fit two slots; use >= 224 bits"
        )
    if quick:
        encrypt_size = 48
        add_shape = (8, 8)
        bw_shapes = [(32, 64)]
        lkup_cfg = {"batch": 8, "fields": 2, "emb_dim": 4, "vocab_total": 48}
    else:
        encrypt_size = 256
        add_shape = (32, 32)
        bw_shapes = [(32, 64), (128, 16), (128, 64), (1024, 32)]
        lkup_cfg = {"batch": 16, "fields": 3, "emb_dim": 8, "vocab_total": 256}
    results: dict = {
        "meta": run_bench.bench_meta(
            key_bits=key_bits, quick=quick, slots=layout.slots, slot_bits=layout.slot_bits
        ),
        "encrypt": bench_encrypt(pk, sk, layout, encrypt_size, repeat),
        "add": bench_add(pk, sk, layout, add_shape, repeat),
        # The acceptance grid: the 2048-bit rows are where Table-5-style
        # bandwidth numbers come from.
        "bandwidth": bench_bandwidth(key_bits, bw_shapes)
        + bench_bandwidth(PRODUCTION_KEY_BITS, bw_shapes),
        # Embedding-backward acceptance rows: the packed lkup_bw transfer
        # must ship at least 2x fewer ciphertexts (slots-fold in practice).
        "lkup_bw": [
            bench_lkup_bw(key_bits, repeat=repeat, **lkup_cfg),
            bench_lkup_bw(PRODUCTION_KEY_BITS, repeat=repeat, **lkup_cfg),
        ],
    }
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--key-bits", type=int, default=256)
    parser.add_argument("--quick", action="store_true", help="small CI-sized grid")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_packing.json")
    args = parser.parse_args(argv)
    results = run(key_bits=args.key_bits, quick=args.quick, repeat=args.repeat)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    enc = results["encrypt"]
    print(
        f"encrypt {enc['size']} values ({enc['slots']} slots): unpacked "
        f"{enc['unpacked_s']:.3f}s  packed {enc['packed_s']:.3f}s  "
        f"speedup {enc['speedup_packed']:.2f}x "
        f"({enc['unpacked_cts']} -> {enc['packed_cts']} cts)"
    )
    add = results["add"]
    print(
        f"add {tuple(add['shape'])}: unpacked {add['unpacked_s']:.4f}s  "
        f"packed {add['packed_s']:.4f}s  speedup {add['speedup_packed']:.2f}x"
    )
    for row in results["lkup_bw"]:
        speedup = row["speedup_pack_first"]
        timing = (
            "timing n/a (synthetic modulus)"
            if speedup is None
            else f"pack-first speedup {speedup:.2f}x"
        )
        print(
            f"lkup_bw {row['batch']}x{row['fields']}x{row['emb_dim']} -> "
            f"{row['vocab_total']} rows @ {row['key_bits']}b: "
            f"{row['unpacked_cts']} -> {row['packed_cts']} cts "
            f"({row['ct_reduction']:.1f}x), lookup "
            f"{row['lkup_unpacked_cts']} -> {row['lkup_packed_cts']} cts, "
            f"{timing}"
        )
    for row in results["bandwidth"]:
        if row["packed_cts"] is None:
            print(
                f"bandwidth {row['rows']}x{row['cols']} @ {row['key_bits']}b: "
                f"packing unavailable ({row['note']})"
            )
        else:
            print(
                f"bandwidth {row['rows']}x{row['cols']} @ {row['key_bits']}b: "
                f"{row['unpacked_cts']} -> {row['packed_cts']} cts "
                f"({row['ct_reduction']:.1f}x), "
                f"{row['unpacked_bytes']} -> {row['packed_bytes']} B "
                f"({row['byte_reduction']:.1f}x)"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
