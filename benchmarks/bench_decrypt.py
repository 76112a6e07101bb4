"""Microbenchmark for the key-owner decrypt engine.

BlindFL's federated source layers make the key owner decrypt every
HE2SS-masked transfer each batch, so once the encrypt/matmul side is fast
(PRs 1-3) ``raw_decrypt`` and blinder refills dominate the serial
cost.  This bench measures the decrypt-side optimisations:

* **Batched CRT decryption** — ``kernels.decrypt_flat``, checked against
  the encoded plaintexts themselves: ``decrypt(encrypt(v))`` must equal
  ``v`` rounded to the tensor exponent, ``ldexp(rint(ldexp(v, 40)), -40)``,
  exactly.
* **Packed decryption** — a packed tensor costs one CRT decryption per
  ``slots`` values; the CRT-pow reduction is deterministic counting.
* **One-prime decryption** — on keys of 512 bits and up a per-element
  plaintext far below ``p`` costs one half-size pow instead of CRT's two;
  a timed 512-bit row and a counting-only 2048-bit row count pows per
  ciphertext and fallbacks on protocol-shaped plaintexts.
* **Blinder refill** — a fresh key pays one ``key_bits``-bit pow for its
  base ``h``, then λ bits per ``h^x`` blinder; the gate counts those pows
  and checks every blinder is an encryption-of-zero factor.

The bench key is 256-bit (pure-Python arithmetic stays fast).

Emits ``BENCH_decrypt.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_decrypt.py            # full grid
    PYTHONPATH=src python benchmarks/bench_decrypt.py --quick    # CI sizes
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

import numpy as np

import run_bench
from repro.crypto import kernels
from repro.crypto.crypto_tensor import CryptoTensor, TENSOR_EXPONENT
from repro.crypto.packing import PackedCryptoTensor, protocol_layout
from repro.crypto.paillier import (
    BLINDING_LAMBDA,
    PaillierPublicKey,
    generate_paillier_keypair,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

# Production accounting constants (counting-only rows; no big-key pows timed).
PRODUCTION_KEY_BITS = 2048
ONE_PRIME_KEY_BITS = 512  # the smallest key with a one-prime band (timed row)


def _timeit(fn, repeat: int = 1) -> tuple[float, object]:
    """Best-of-``repeat`` wall time and the last result (for verification)."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_one_prime(key_bits: int, size: int, repeat: int, timed: bool) -> dict:
    """One-prime decryption on protocol-shaped plaintexts.

    The plaintexts are HE2SS-sized values times a plaintext multiplier —
    mantissas of up to ~91 bits, as wide as ``lr_dense_mem``'s (88) — so every
    decrypt must stay in the band: one half-size pow per ciphertext and no
    CRT fallback.  The residues are checked against a CRT decryption of the
    same batch; the timed row (informational) compares the two.
    """
    pk, sk = generate_paillier_keypair(key_bits, seed=54321)
    rng = np.random.default_rng(2)
    values = rng.normal(size=size) * 2.0**16
    cts = (CryptoTensor.encrypt(pk, values) * rng.normal(size=size)).residues.tolist()
    totals = run_bench.counted(lambda: sk.raw_decrypt_many(cts))
    if sk.raw_decrypt_many(cts) != sk.raw_decrypt_many(cts, one_prime=False):
        raise AssertionError("one-prime decrypt diverged from CRT")  # pragma: no cover
    entry = {
        "key_bits": key_bits,
        "size": size,
        "one_prime_bits": sk.one_prime_bits,
        "pows_per_ct": totals["pow.crt"] / size,
        # Every key of these rows has a band: a fallback pays 1 + 2 pows.
        "fallbacks": (totals["pow.crt"] - size) // 2,
        "matches_crt": True,
    }
    if timed:
        t_one, _ = _timeit(lambda: sk.raw_decrypt_many(cts), repeat)
        t_crt, _ = _timeit(lambda: sk.raw_decrypt_many(cts, one_prime=False), repeat)
        entry.update(one_prime_s=t_one, crt_s=t_crt, speedup_one_prime=t_crt / t_one)
    else:
        entry["counting_only"] = True
    return entry


def bench_decrypt_flat(pk, sk, size: int, repeat: int) -> dict:
    """Batched CRT decrypt, exactly the encoded plaintexts (timed)."""
    rng = np.random.default_rng(0)
    values = rng.normal(size=size)
    cts = CryptoTensor.encrypt(pk, values, obfuscate=True).residues.tolist()
    t_kernel, out = _timeit(lambda: kernels.decrypt_flat(sk, cts, TENSOR_EXPONENT), repeat)
    encoded = np.ldexp(np.rint(np.ldexp(values, -TENSOR_EXPONENT)), TENSOR_EXPONENT)
    if not np.array_equal(out, encoded):  # pragma: no cover - tripwire
        raise AssertionError("decrypt differs from the encoded plaintexts")
    return {
        "size": size,
        "crt_pows": run_bench.counted(lambda: kernels.decrypt_flat(sk, cts, TENSOR_EXPONENT))["pow.crt"],
        "kernel_s": t_kernel,
        "kernel_decrypts_per_s": size / t_kernel,
        "matches_encoding": True,
    }


def bench_packed_decrypt(pk, sk, rows: int, cols: int, repeat: int) -> dict:
    """Packed decrypt: one CRT decryption per ``slots`` values (counting)."""
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=64)
    if layout is None:  # pragma: no cover - bench keys always fit two slots
        raise AssertionError("bench key too small for packing")
    rng = np.random.default_rng(1)
    values = rng.normal(size=(rows, cols))
    packed = PackedCryptoTensor.encrypt(pk, values, layout, obfuscate=True)
    unpacked = CryptoTensor.encrypt(pk, values, obfuscate=True)
    u_cts = unpacked.residues.ravel().tolist()
    t_unpacked, out_u = _timeit(
        lambda: kernels.decrypt_flat(sk, u_cts, TENSOR_EXPONENT), repeat
    )
    t_packed, out_p = _timeit(lambda: packed.decrypt(sk), repeat)
    if not np.array_equal(np.asarray(out_u).reshape(rows, cols), out_p):
        raise AssertionError("packed decrypt disagrees with per-element decrypt")
    return {
        "rows": rows,
        "cols": cols,
        "slots": layout.slots,
        "unpacked_cts": rows * cols,
        "packed_cts": len(packed.cts),
        "crt_pow_reduction": (rows * cols) / len(packed.cts),
        "unpacked_s": t_unpacked,
        "packed_s": t_packed,
        "speedup_packed": t_unpacked / t_packed,
    }


def bench_blinding(pk, sk, count: int, repeat: int) -> dict:
    """A refill of ``count`` blinders on a fresh key, counted.

    The key pays one full ``r0^n`` pow for its base ``h``
    (``pow.blind.classic``), then one λ-bit pow per ``h^x`` blinder
    (``pow.blind.lambda``); every blinder must be an n-th power, so
    ``Enc(0) * h^x`` decrypts to 0.  The refill time is informational.
    """

    def refill() -> list[int]:
        return PaillierPublicKey(pk.n, rng=random.Random(99)).blinding_factors(count)

    totals = run_bench.counted(refill)
    t_refill, blinders = _timeit(refill, repeat)
    return {
        "key_bits": pk.key_bits,
        "count": count,
        "blinding_lambda": BLINDING_LAMBDA,
        "pow_blind_lambda": totals.get("pow.blind.lambda", 0),
        "pow_blind_classic": totals.get("pow.blind.classic", 0),
        "blinders_valid": all(sk.raw_decrypt(b) == 0 for b in blinders),
        "refill_s": t_refill,
    }


def run(key_bits: int = 256, quick: bool = False, repeat: int = 1) -> dict:
    pk, sk = generate_paillier_keypair(key_bits, seed=54321)
    if quick:
        decrypt_sizes = [64]
        packed_cfg = (8, 8)
        blinder_count = 64
        one_prime_size = 32
    else:
        decrypt_sizes = [128, 512]
        packed_cfg = (32, 16)
        blinder_count = 256
        one_prime_size = 128
    results: dict = {
        "meta": run_bench.bench_meta(key_bits=key_bits, quick=quick),
        "decrypt_flat": [bench_decrypt_flat(pk, sk, size, repeat) for size in decrypt_sizes],
        "packed_decrypt": bench_packed_decrypt(pk, sk, *packed_cfg, repeat),
        "blinding": bench_blinding(pk, sk, blinder_count, repeat),
        "one_prime": [
            bench_one_prime(ONE_PRIME_KEY_BITS, one_prime_size, repeat, timed=True),
            bench_one_prime(PRODUCTION_KEY_BITS, one_prime_size, repeat, timed=False),
        ],
    }
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--key-bits", type=int, default=256)
    parser.add_argument("--quick", action="store_true", help="small CI-sized grid")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_decrypt.json")
    args = parser.parse_args(argv)
    results = run(key_bits=args.key_bits, quick=args.quick, repeat=args.repeat)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    for entry in results["decrypt_flat"]:
        print(
            f"decrypt {entry['size']}: {entry['crt_pows']} CRT pows, "
            f"kernel {entry['kernel_s']:.3f}s ({entry['kernel_decrypts_per_s']:.0f}/s)"
        )
    pd = results["packed_decrypt"]
    print(
        f"packed decrypt {pd['rows']}x{pd['cols']} ({pd['slots']} slots): "
        f"{pd['packed_cts']} cts vs {pd['unpacked_cts']} "
        f"({pd['crt_pow_reduction']:.1f}x fewer CRT pows, "
        f"{pd['speedup_packed']:.2f}x timed)"
    )
    bl = results["blinding"]
    print(
        f"blinding refill @{bl['key_bits']}b λ={bl['blinding_lambda']}: "
        f"{bl['count']} blinders, {bl['pow_blind_lambda']} λ-bit pows + "
        f"{bl['pow_blind_classic']} full pow for h ({bl['refill_s']:.4f}s)"
    )
    for row in results["one_prime"]:
        line = (
            f"one-prime decrypt @{row['key_bits']}b ({row['one_prime_bits']}-bit band): "
            f"{row['pows_per_ct']:.2f} pows/ct, {row['fallbacks']} fallbacks"
        )
        if "speedup_one_prime" in row:
            line += f", {row['speedup_one_prime']:.2f}x over CRT timed"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
