"""Microbenchmark for the flat ciphertext kernels.

Measures the primitives the BlindFL protocols spend their time in —
obfuscated encryption, ``plain @ cipher`` matmuls over an s×m×k grid,
sparse ``X @ cipher`` / ``X.T @ cipher`` and scatter-add — and counts the
exponentiations each one traces (``pow.mul``).

Plaintext operands are drawn the way BlindFL's workloads look: feature
matrices are sparse *binary* (one-hot / multi-hot categorical features,
density ``--density``), which is exactly where the kernels deduplicate
pows by distinct plaintext value: a ciphertext element multiplied by the
same value in many rows is powered once, so ``nnz`` exponentiations per
ciphertext element collapse into one.  Dense-gaussian matmul configs are
included for the worst case, where every multiplier is distinct.  Each
matmul row records the traced ``pow_mul`` beside ``distinct_pows`` — one
pow per (ciphertext element, distinct nonzero multiplier), counted from
the plaintext alone — and ``per_pair_pows`` (one per nonzero term and
lane, what a per-element product pays); ``run_bench.check`` gates the
first two equal.  Timings ride along as information.

A machine-independent counted row rides along (``engine_mulmods``): the
modular multiplications the exponentiation engine spends on a matmul's
term list against the per-pair plan (power every distinct
``(ciphertext, value)`` on its own, then scatter), for the dense
16x14x1 logistic-regression shape and the binary 32x64x16 shape.

A second counted row, ``engine_calls``, is what the native ring pays for
the same term lists in *foreign calls* (one per multiply, three per long
squaring run, one opener per output) — for the two shapes above and for
the 113-bit Horner chains of ``pack_rows`` at 2 and 18 slots, where whole
runs of squarings collapse into single calls.

``rings`` times the big-int seam itself (``repro.crypto.bigint``): per
ring and modulus size, microseconds per mulmod through one ``mul`` and
through ``run`` (blinder-shaped programs, conversions included), per
modexp with a half-width exponent, per load + dump, per squaring run
looped against native, and per foreign call that computes nothing with
the GIL released against held, next to what the size rule selects — the
measurements behind the rule's constants, re-taken on this box
(``run_bench.check`` fails when they contradict the rule).

Emits ``BENCH_kernels.json`` at the repo root so the perf trajectory has a
baseline::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full grid
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # CI sizes
"""

from __future__ import annotations

import argparse
import ctypes
import json
import random
import time
from functools import partial
from pathlib import Path

import numpy as np

import run_bench
from repro.crypto.crypto_tensor import (
    PLAIN_EXPONENT,
    CryptoTensor,
    matmul_plain_cipher,
    sparse_matmul_cipher,
    sparse_t_matmul_cipher,
)
from repro.crypto import bigint, kernels, modexp
from repro.crypto.paillier import generate_paillier_keypair
from repro.tensor.sparse import CSRMatrix

REPO_ROOT = Path(__file__).resolve().parent.parent


def _timeit(fn, repeat: int = 1) -> tuple[float, object]:
    """Best-of-``repeat`` wall time and the last result (for verification)."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _timeit_each(fns: dict, repeat: int) -> dict:
    """``{name: (best wall time, last result)}`` with the callables taking
    turns inside every repeat, so a burst of noise on a shared box lands on
    all the sides of a comparison, not on whichever ran that second."""
    best = {name: (float("inf"), None) for name in fns}
    for _ in range(repeat):
        for name, fn in fns.items():
            start = time.perf_counter()
            result = fn()
            best[name] = (min(best[name][0], time.perf_counter() - start), result)
    return best


def distinct_pows(multipliers, k: int) -> int:
    """Pows a deduplicating product owes, from its plaintext alone: ``k``
    lanes times, per ciphertext row, the distinct signed multiplier
    mantissas at ``PLAIN_EXPONENT`` (a zero multiplies nothing and ``±1``
    needs no pow).  ``multipliers`` holds, per ciphertext row, the values
    that multiply it."""
    total = 0
    for values in multipliers:
        mantissas = np.rint(np.ldexp(np.asarray(values, dtype=np.float64), -PLAIN_EXPONENT))
        total += len({m for m in mantissas.tolist() if abs(m) >= 2})
    return k * total


def _feature_matrix(
    rng: np.random.Generator, s: int, m: int, kind: str, density: float
) -> np.ndarray:
    if kind == "binary":
        return (rng.random((s, m)) < density).astype(np.float64)
    return rng.normal(size=(s, m))


def bench_encrypt(pk, size: int, repeat: int) -> dict:
    """Obfuscated encryption through the flat kernel (timed)."""
    values = np.random.default_rng(0).normal(size=size)
    t_kernel, _ = _timeit(
        lambda: CryptoTensor.encrypt(pk, values, obfuscate=True), repeat
    )
    return {"size": size, "kernel_s": t_kernel, "kernel_ops_per_s": size / t_kernel}


def bench_matmul(
    pk, sk, s: int, m: int, k: int, kind: str, density: float, repeat: int
) -> dict:
    """``plain (s x m) @ cipher (m x k)``: traced pows against the distinct
    multipliers of each ciphertext row (``plain``'s columns), timed."""
    rng = np.random.default_rng(1)
    x = _feature_matrix(rng, s, m, kind, density)
    v = rng.normal(size=(m, k))
    enc_v = CryptoTensor.encrypt(pk, v, obfuscate=False)
    t_kernel, out = _timeit(lambda: matmul_plain_cipher(x, enc_v), repeat)
    if not np.allclose(out.decrypt(sk), x @ v, atol=1e-6):  # pragma: no cover - tripwire
        raise AssertionError("kernel matmul decrypts to the wrong product")
    nnz = int(np.count_nonzero(x))
    return {
        "s": s, "m": m, "k": k, "kind": kind,
        "density": density if kind == "binary" else 1.0,
        "nnz": nnz,
        "per_pair_pows": nnz * k,
        "distinct_pows": distinct_pows(x.T, k),
        "pow_mul": run_bench.counted(lambda: matmul_plain_cipher(x, enc_v)).get("pow.mul", 0),
        "kernel_s": t_kernel,
        "kernel_matmuls_per_s": 1.0 / t_kernel,
    }


# Shapes of the counted engine row: the LR forward of the end-to-end
# benchmark, and the binary acceptance config of the timed grid.
MULMOD_SHAPES = [(16, 14, 1, "gaussian"), (32, 64, 16, "binary")]


def _plain_cipher_terms(pk, s: int, m: int, kind: str, density: float) -> list:
    """The kernel's own positive-exponent term list for ``plain (s x m)``."""
    x = _feature_matrix(np.random.default_rng(4), s, m, kind, density)
    rows = kernels._term_rows(pk, [range(m)] * s, x)
    return [[(t, abs(e)) for t, e in row if e] for row in rows]


def count_engine_mulmods(pk, s: int, m: int, k: int, kind: str, density: float) -> dict:
    """Mulmods of ``plain (s x m) @ cipher (m x k)``: engine vs per-pair plan.

    Counted from the kernel's own term list, so the row is exact and
    machine-independent (every lane costs the same: totals are ``k`` times
    the per-lane plan).  Inversions are left out of both columns.
    """
    rows = _plain_cipher_terms(pk, s, m, kind, density)
    engine = modexp.mulmods(rows)
    # The plan the engine replaced: square-and-multiply each distinct
    # (cipher row, mantissa) pair once, one mulmod per term to scatter.
    per_pair = sum(map(len, rows)) + sum(
        e.bit_length() + e.bit_count() - 2
        for _, e in {term for row in rows for term in row}
        if e > 1
    )
    return {
        "s": s, "m": m, "k": k, "kind": kind,
        "density": density if kind == "binary" else 1.0,
        "per_pair_mulmods": k * per_pair,
        "engine_mulmods": k * engine,
        "engine_share_of_per_pair": engine / per_pair,
    }


# The Horner shapes of the counted call row: one packed output at the
# protocol's 113-bit slots, 2 lanes (a 256-bit key) and 18 (a 2048-bit key).
HORNER_SLOT_BITS = 113
HORNER_SHAPES = [(2, 256), (18, 2048)]


def count_engine_calls(pk, density: float) -> list[dict]:
    """Foreign calls the native ring makes for a term list's programs,
    beside the mulmods they compute (tables included, conversions and
    inversions left out of both).  Exact and machine-independent: counted
    from the programs, at the run threshold of the shape's ``n^2``."""
    shapes = [
        (f"{kind} {s}x{m}x{k}", k, 2 * pk.key_bits, _plain_cipher_terms(pk, s, m, kind, density))
        for s, m, k, kind in MULMOD_SHAPES
    ] + [
        (
            f"pack_rows {slots} slots", 1, 2 * key_bits,
            [[(j, 1 << (HORNER_SLOT_BITS * j)) for j in range(slots)]],
        )
        for slots, key_bits in HORNER_SHAPES
    ]
    out = []
    for shape, lanes, nsq_bits, rows in shapes:
        native_run = bigint.sqr_run_min(nsq_bits)
        mulmods, calls = modexp.mulmods(rows), modexp.mulmods(rows, native_run)
        out.append({
            "shape": shape, "modulus_bits": nsq_bits, "native_run": native_run,
            "outputs": lanes * len(rows),
            "engine_mulmods": lanes * mulmods, "engine_calls": lanes * calls,
            "calls_share_of_mulmods": calls / mulmods,
        })
    return out


def bench_sparse(
    pk, sk, batch: int, m: int, k: int, density: float, repeat: int
) -> dict:
    """CSR forward (``X @ [[V]]``, a ciphertext row per column of ``X``) and
    backward (``X.T @ [[gZ]]``, one per row of ``X``) products: traced pows
    against the distinct multipliers, timed."""
    rng = np.random.default_rng(2)
    dense = _feature_matrix(rng, batch, m, "binary", density)
    x = CSRMatrix.from_dense(dense)
    v = rng.normal(size=(m, k))
    gz = rng.normal(size=(batch, k))
    enc_v = CryptoTensor.encrypt(pk, v, obfuscate=False)
    enc_gz = CryptoTensor.encrypt(pk, gz, obfuscate=False)
    t_fwd, fwd = _timeit(lambda: sparse_matmul_cipher(x, enc_v), repeat)
    t_bwd, bwd = _timeit(lambda: sparse_t_matmul_cipher(x, enc_gz), repeat)
    if not np.allclose(fwd.decrypt(sk), dense @ v, atol=1e-6):  # pragma: no cover
        raise AssertionError("sparse forward decrypts to the wrong product")
    if not np.allclose(bwd.decrypt(sk), dense.T @ gz, atol=1e-6):  # pragma: no cover
        raise AssertionError("sparse backward decrypts to the wrong product")
    return {
        "batch": batch, "m": m, "k": k, "density": density, "nnz": x.nnz,
        "per_pair_pows": x.nnz * k,
        "fwd_distinct_pows": distinct_pows(dense.T, k),
        "fwd_pow_mul": run_bench.counted(lambda: sparse_matmul_cipher(x, enc_v)).get("pow.mul", 0),
        "bwd_distinct_pows": distinct_pows(dense, k),
        "bwd_pow_mul": run_bench.counted(lambda: sparse_t_matmul_cipher(x, enc_gz)).get("pow.mul", 0),
        "fwd_kernel_s": t_fwd,
        "bwd_kernel_s": t_bwd,
    }


def bench_scatter(pk, sk, batch: int, dim: int, rows: int, repeat: int) -> dict:
    """Encrypted ``lkup_bw`` (scatter-add): a pure-mulmod kernel.

    ``pows`` counts every exponentiation the call traces with untouched
    table rows left unblinded — none.  The production call, which blinds
    those rows with blinders drawn on demand, is timed beside it.
    """
    rng = np.random.default_rng(3)
    grads = rng.normal(size=(batch, dim))
    idx = rng.integers(0, rows, size=batch)
    enc = CryptoTensor.encrypt(pk, grads, obfuscate=False)

    def unblinded():
        return enc.scatter_add_rows(idx, num_rows=rows, obfuscate_empty=False)

    t_kernel, out = _timeit(unblinded, repeat)
    t_blinded, blinded = _timeit(lambda: enc.scatter_add_rows(idx, num_rows=rows), repeat)
    expected = np.zeros((rows, dim))
    np.add.at(expected, idx, grads)
    for got in (out, blinded):
        if not np.allclose(got.decrypt(sk), expected, atol=1e-6):  # pragma: no cover
            raise AssertionError("scatter-add decrypts to the wrong table")
    return {
        "batch": batch, "dim": dim, "rows": rows,
        "pows": sum(
            total for name, total in run_bench.counted(unblinded).items()
            if name.startswith("pow.")
        ),
        "kernel_s": t_kernel,
        "kernel_blinded_s": t_blinded,
    }


RING_BITS = (256, 512, 1024, 4096)
SQR_RUNS = (4, 8, 32, 113)
# One λ-blinder: the engine's leanest program, 22 multiplies per residue
# loaded and dumped — where a native chain's conversions weigh the most.
BLINDER_FACTORS = 22


def bench_call() -> dict:
    """Microseconds per foreign call that computes nothing
    (``BN_clear_free(NULL)``): GIL released around it (``CDLL``) against
    held (``PyDLL``, what the ring binds its sub-microsecond calls with)."""
    out = {}
    for name, loader in (("released", ctypes.CDLL), ("held", ctypes.PyDLL)):
        noop = loader(bigint._find_library()).BN_clear_free
        noop.restype, noop.argtypes = None, (ctypes.c_void_p,)
        out[name] = 1e6 * _timeit(lambda: [noop(None) for _ in range(20000)], 5)[0] / 20000
    return out


def bench_rings(repeat: int) -> list[dict]:
    """The seam's own cost per ring x modulus size (see the module docstring).

    Both rings run the same operands and must return the same residues;
    ``selected`` is what :func:`repro.crypto.bigint.make_ring` picks at that
    size for each kind of work.  Timed rows are informational.
    """
    rnd = random.Random(7)
    native = bigint.backend()[0] == "libcrypto"
    call_us = bench_call() if native else None
    rows = []
    for bits in RING_BITS:
        m = rnd.getrandbits(bits) | (1 << (bits - 1)) | 1
        xs = [rnd.getrandbits(bits) for _ in range(32)]
        e = rnd.getrandbits(bits // 2) | 1 << (bits // 2 - 1)
        rings = {"python": bigint.PythonRing(m)}
        if native:
            rings["libcrypto"] = bigint.LibcryptoRing(m)
        picked = bigint.make_ring(m)
        row: dict = {
            "bits": bits,
            "selected": {
                "modexp": "libcrypto" if isinstance(picked, bigint.LibcryptoRing) else "python",
                # A ring that chains on the reference operations is its own chain.
                "mulmod": "python" if picked.chain() is picked else "libcrypto",
                "sqr_run_min": bigint.sqr_run_min(bits),
            },
        }
        if call_us:
            row["call_us"] = call_us
        n_pows = 2 if bits > 1024 else 8
        work = {}
        for name, ring in rings.items():
            def chained(ring=ring):
                with ring.chain() as z:
                    acc = z.mul(z.one, z.one)
                    for h in z.load(xs) * 40:
                        acc = z.mul(acc, h, acc)
                    return z.dump([acc])

            def blinders(ring=ring):
                with ring.chain() as z:
                    hs = z.load(xs)
                    return z.dump(z.run(
                        [[((hs * 2)[i : i + BLINDER_FACTORS], 0)] for i in range(len(xs))]
                    ))

            def converted(ring=ring):
                with ring.chain() as z:
                    return z.dump(z.load(xs))

            work[name, "mulmod"], work[name, "run"] = chained, blinders
            work[name, "load_dump"] = converted
            work[name, "modexp"] = lambda ring=ring: ring.pow_many(xs[:n_pows], e)
        timed = _timeit_each(work, repeat + 3)
        for name in rings:
            row[name] = {
                # Conversions included: one load per 40 mulmods, one dump.
                "mulmod_us": 1e6 * timed[name, "mulmod"][0] / (40 * len(xs)),
                # Conversions included: a load and a dump per 22 mulmods.
                "run_mulmod_us": 1e6 * timed[name, "run"][0] / (BLINDER_FACTORS * len(xs)),
                "modexp_us": 1e6 * timed[name, "modexp"][0] / n_pows,
                "load_dump_us": 1e6 * timed[name, "load_dump"][0] / len(xs),
            }
        row["residues_match"] = all(
            timed[name, kind][1] == timed["python", kind][1] for name, kind in timed
        )
        if native:
            row["sqr_run_us"], squares_match = _bench_sqr_runs(m, xs[:8], repeat)
            row["residues_match"] &= squares_match
        rows.append(row)
    return rows


def _bench_sqr_runs(m: int, xs: list[int], repeat: int) -> tuple[dict, bool]:
    """Microseconds per run of ``k`` squarings, one call each (``looped``)
    against one modexp by ``2^k`` (``native``): two private rings with the
    threshold forced either way, the opening multiplies timed out."""
    reps = 4 if m.bit_length() > 1024 else 20
    sides = {"looped": bigint.LibcryptoRing(m), "native": bigint.LibcryptoRing(m)}
    sides["looped"]._sqr_run_min, sides["native"]._sqr_run_min = 1 << 30, 1

    def runs(ring, k):
        with ring.chain() as z:
            return z.dump(z.run([[([h], k)] * reps for h in z.load(xs)]))

    timed = _timeit_each(
        {(side, k): partial(runs, ring, k) for k in (0, *SQR_RUNS) for side, ring in sides.items()},
        repeat + 4,
    )
    out = {
        str(k): {side: 1e6 * (timed[side, k][0] - timed[side, 0][0]) / (reps * len(xs)) for side in sides}
        for k in SQR_RUNS
    }
    return out, all(timed["looped", k][1] == timed["native", k][1] for k in SQR_RUNS)


def run(
    key_bits: int = 256,
    quick: bool = False,
    density: float = 0.3,
    repeat: int = 1,
) -> dict:
    pk, sk = generate_paillier_keypair(key_bits, seed=12345)
    if quick:
        encrypt_size = 64
        matmul_grid = [(8, 16, 4, "binary"), (16, 32, 8, "binary"), (4, 64, 16, "gaussian")]
        sparse_cfg = (16, 64, 4)
        scatter_cfg = (32, 4, 16)
    else:
        encrypt_size = 256
        matmul_grid = [
            (8, 16, 4, "binary"),
            (32, 64, 16, "binary"),   # the acceptance config
            (32, 64, 16, "gaussian"),  # dense worst case: every multiplier distinct
            (64, 128, 16, "binary"),  # large config
            (4, 64, 16, "gaussian"),  # the quick grid's dense row
        ]
        sparse_cfg = (64, 256, 8)
        scatter_cfg = (128, 8, 64)
    results: dict = {
        "meta": run_bench.bench_meta(key_bits=key_bits, quick=quick, binary_density=density),
        "rings": bench_rings(repeat),
        "encrypt": bench_encrypt(pk, encrypt_size, repeat),
        "matmul_plain_cipher": [
            bench_matmul(pk, sk, s, m, k, kind, density, repeat)
            for s, m, k, kind in matmul_grid
        ],
        "engine_mulmods": [
            count_engine_mulmods(pk, *shape, density) for shape in MULMOD_SHAPES
        ],
        "engine_calls": count_engine_calls(pk, density),
        "sparse_matmul": bench_sparse(pk, sk, *sparse_cfg, density, repeat),
        "scatter_add": bench_scatter(pk, sk, *scatter_cfg, repeat),
    }
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--key-bits", type=int, default=256)
    parser.add_argument("--quick", action="store_true", help="small CI-sized grid")
    parser.add_argument("--density", type=float, default=0.3)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_kernels.json"
    )
    args = parser.parse_args(argv)
    results = run(
        key_bits=args.key_bits,
        quick=args.quick,
        density=args.density,
        repeat=args.repeat,
    )
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    for entry in results["matmul_plain_cipher"]:
        print(
            f"matmul {entry['s']}x{entry['m']}x{entry['k']} ({entry['kind']}): "
            f"{entry['pow_mul']} pows ({entry['distinct_pows']} distinct, "
            f"{entry['per_pair_pows']} per pair), kernel {entry['kernel_s']:.3f}s"
        )
    for entry in results["engine_mulmods"]:
        print(
            f"engine {entry['s']}x{entry['m']}x{entry['k']} ({entry['kind']}): "
            f"{entry['engine_mulmods']} mulmods vs {entry['per_pair_mulmods']} "
            f"per-pair ({entry['engine_share_of_per_pair']:.0%})"
        )
    for entry in results["engine_calls"]:
        print(
            f"engine {entry['shape']} @ {entry['modulus_bits']}b: "
            f"{entry['engine_calls']} foreign calls for {entry['engine_mulmods']} "
            f"mulmods ({entry['calls_share_of_mulmods']:.0%})"
        )
    for row in results["rings"]:
        print(
            f"ring {row['bits']:>4}b (rule: modexp {row['selected']['modexp']}, "
            f"mulmod {row['selected']['mulmod']}, native runs from "
            f"{row['selected']['sqr_run_min'] if row['selected']['sqr_run_min'] < 1 << 30 else 'no length'}): "
            + "; ".join(
                f"{name} mulmod {row[name]['mulmod_us']:.2f}us in run "
                f"{row[name]['run_mulmod_us']:.2f}us modexp "
                f"{row[name]['modexp_us']:.1f}us load+dump {row[name]['load_dump_us']:.2f}us"
                for name in ("python", "libcrypto") if name in row
            )
            + "".join(
                f"; {k} squarings {t['looped']:.1f}/{t['native']:.1f}us"
                for k, t in row.get("sqr_run_us", {}).items()
            )
        )
    if "call_us" in results["rings"][0]:
        call = results["rings"][0]["call_us"]
        print(f"foreign call: {call['released']:.3f}us GIL released, {call['held']:.3f}us held")
    sp, sc = results["sparse_matmul"], results["scatter_add"]
    print(
        f"sparse fwd {sp['fwd_pow_mul']} pows, bwd {sp['bwd_pow_mul']} "
        f"({sp['per_pair_pows']} per pair each); scatter-add {sc['pows']} pows "
        f"({sc['kernel_s']:.4f}s); encrypt {results['encrypt']['kernel_ops_per_s']:.0f}/s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
