"""The microbenchmarks as seeded rows: one function per gate.

Each row returns what it counted — pows, mulmods, foreign calls,
ciphertexts, bytes, link-ledger entries, message depth — so it is exact on
any box.  One row is timed: :func:`ring_rule` holds the big-int size rule
(``repro.crypto.bigint``) to this box's own measurements, up to
``RING_RULE_MARGIN``, because those measurements are what the rule's
constants stand on.  Each row has a gate, a generator of failure messages;
``tests/test_micro.py`` asserts that every gate yields none, and
``python benchmarks/micro.py`` prints every row and exits 1 when one does.
Nothing is written to disk.
"""

from __future__ import annotations

import random
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

if __name__ == "__main__":  # ``python benchmarks/micro.py`` from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.comm import codec
from repro.comm.channel import payload_nbytes
from repro.comm.fabric import run_federation
from repro.comm.faults import FaultEvent, FaultPlan
from repro.comm.party import VFLConfig, VFLContext
from repro.comm.transport import ENV_OVERHEAD
from repro.core.multiparty import MultiPartyLR
from repro.crypto import bigint, kernels, modexp
from repro.crypto.crypto_tensor import (
    PLAIN_EXPONENT, CryptoTensor, matmul_plain_cipher, sparse_matmul_cipher,
    sparse_t_matmul_cipher,
)
from repro.crypto.packing import PackedCryptoTensor, protocol_layout
from repro.crypto.paillier import PaillierPublicKey, generate_paillier_keypair
from repro.obs import Tracer, counter_totals, span, use_tracer
from repro.obs.collect import critical_path, merge_traces
from repro.tensor.sparse import CSRMatrix

Row = dict
Gate = Callable[[Row], Iterator[str]]


def counted(run: Callable[[], object]) -> tuple[object, dict[str, int]]:
    """What ``run()`` returns, and every tracer counter it bumps, summed
    over its spans."""
    with use_tracer(Tracer()) as tracer:
        result = run()
    return result, counter_totals(tracer.to_dicts())


# -- Kernels: a product pays one pow per distinct multiplier ------------------
KERNEL_KEY_BITS = 128
DENSITY = 0.3  # binary features: one-hot / multi-hot categoricals
MATMULS = [(8, 16, 4, "binary"), (16, 32, 8, "binary"), (4, 64, 16, "gaussian")]


def _features(rng: np.random.Generator, s: int, m: int, kind: str) -> np.ndarray:
    if kind == "binary":
        return (rng.random((s, m)) < DENSITY).astype(np.float64)
    return rng.normal(size=(s, m))


def distinct_pows(multipliers, k: int) -> int:
    """Pows a deduplicating product owes, from its plaintext alone: ``k``
    lanes times, per ciphertext row, the distinct multiplier mantissas at
    ``PLAIN_EXPONENT`` (0 multiplies nothing, ``±1`` needs no pow).
    ``multipliers`` holds, per ciphertext row, the values multiplying it."""
    total = 0
    for values in multipliers:
        mantissas = np.rint(np.ldexp(np.asarray(values, dtype=np.float64), -PLAIN_EXPONENT))
        total += len({m for m in mantissas.tolist() if abs(m) >= 2})
    return k * total


def _pows(run: Callable[[], object]) -> int:
    return sum(n for name, n in counted(run)[1].items() if name.startswith("pow."))


def kernel_pows() -> Row:
    """Traced pows of each ``plain @ cipher`` product (dense, CSR forward
    ``X @ [[V]]``, CSR backward ``X.T @ [[gZ]]``) and of a scatter-add,
    beside the pows a deduplicating product owes and the one per nonzero
    term and lane that a per-element product pays."""
    pk, _ = generate_paillier_keypair(KERNEL_KEY_BITS, seed=12345)
    rows = {}
    for s, m, k, kind in MATMULS:
        rng = np.random.default_rng(1)
        x = _features(rng, s, m, kind)
        v = CryptoTensor.encrypt(pk, rng.normal(size=(m, k)), obfuscate=False)
        rows[f"matmul {s}x{m}x{k} {kind}"] = {
            "traced": _pows(lambda: matmul_plain_cipher(x, v)),
            "distinct": distinct_pows(x.T, k), "per_pair": int(np.count_nonzero(x)) * k,
        }
    rng = np.random.default_rng(2)
    batch, m, k = 16, 64, 4
    dense = _features(rng, batch, m, "binary")
    x = CSRMatrix.from_dense(dense)
    v = CryptoTensor.encrypt(pk, rng.normal(size=(m, k)), obfuscate=False)
    gz = CryptoTensor.encrypt(pk, rng.normal(size=(batch, k)), obfuscate=False)
    rows["sparse forward 16x64x4"] = {
        "traced": _pows(lambda: sparse_matmul_cipher(x, v)),
        "distinct": distinct_pows(dense.T, k), "per_pair": x.nnz * k,
    }
    rows["sparse backward 16x64x4"] = {
        "traced": _pows(lambda: sparse_t_matmul_cipher(x, gz)),
        "distinct": distinct_pows(dense, k), "per_pair": x.nnz * k,
    }
    # lkup_bw with untouched rows left unblinded: a pure-mulmod kernel.
    rng = np.random.default_rng(3)
    grads = CryptoTensor.encrypt(pk, rng.normal(size=(32, 4)), obfuscate=False)
    idx = rng.integers(0, 16, size=32)
    rows["scatter-add 32x4 -> 16"] = {
        "traced": _pows(lambda: grads.scatter_add_rows(idx, num_rows=16, obfuscate_empty=False)),
        "distinct": 0, "per_pair": 0,
    }
    return rows


def gate_kernel_pows(row: Row) -> Iterator[str]:
    for label, r in row.items():
        if r["traced"] != r["distinct"]:
            yield (f"{label}: traced {r['traced']} pows, not one per distinct "
                   f"multiplier of each ciphertext element ({r['distinct']})")


# -- Engine: mulmods and foreign calls, counted from the term lists -----------
ENGINE_KEY_BITS = 256
# The LR forward of the end-to-end benchmark, and a binary acceptance shape.
ENGINE_SHAPES = [(16, 14, 1, "gaussian"), (32, 64, 16, "binary")]
# One packed output at the protocol's 113-bit slots: 2 lanes (a 256-bit
# key) and 18 (a 2048-bit key).
HORNER_SLOT_BITS = 113
HORNER_SHAPES = [(2, 256), (18, 2048)]
# Shared squarings: at most this share of the per-pair plan's mulmods on
# the dense LR shape, and never more than it on the binary one.
MAX_DENSE_ENGINE_SHARE = 0.40
# Horner chains are all squaring runs: where the size rule runs them
# native, at most this share of their mulmods become foreign calls.
MAX_HORNER_CALL_SHARE = 0.10


def _term_rows(pk, s: int, m: int, kind: str) -> list:
    """The kernel's own positive-exponent term list for ``plain (s x m)``."""
    x = _features(np.random.default_rng(4), s, m, kind)
    return [[(t, abs(e)) for t, e in row if e] for row in kernels._term_rows(pk, [range(m)] * s, x)]


def engine_rows() -> Row:
    """Mulmods of ``plain (s x m) @ cipher (m x k)``: the engine's against
    the per-pair plan's (square-and-multiply each distinct ``(ciphertext,
    value)`` alone, one mulmod per term to scatter); then the native ring's
    foreign calls for those term lists and for ``pack_rows``' Horner chains.
    Inversions and conversions are left out of every column."""
    pk, _ = generate_paillier_keypair(ENGINE_KEY_BITS, seed=12345)
    mulmods, calls = [], []
    shapes = []
    for s, m, k, kind in ENGINE_SHAPES:
        rows = _term_rows(pk, s, m, kind)
        per_pair = sum(map(len, rows)) + sum(
            e.bit_length() + e.bit_count() - 2 for _, e in {t for row in rows for t in row} if e > 1
        )
        mulmods.append({"s": s, "m": m, "k": k, "kind": kind,
                        "per_pair_mulmods": k * per_pair,
                        "engine_mulmods": k * modexp.mulmods(rows)})
        shapes.append((f"{kind} {s}x{m}x{k}", k, 2 * ENGINE_KEY_BITS, rows))
    for slots, key_bits in HORNER_SHAPES:
        horner = [[(j, 1 << (HORNER_SLOT_BITS * j)) for j in range(slots)]]
        shapes.append((f"pack_rows {slots} slots", 1, 2 * key_bits, horner))
    for shape, lanes, nsq_bits, rows in shapes:
        native_run = bigint.sqr_run_min(nsq_bits)
        calls.append({"shape": shape, "modulus_bits": nsq_bits, "native_run": native_run,
                      "outputs": lanes * len(rows), "engine_mulmods": lanes * modexp.mulmods(rows),
                      "engine_calls": lanes * modexp.mulmods(rows, native_run)})
    return {"key_bits": ENGINE_KEY_BITS, "engine_mulmods": mulmods, "engine_calls": calls}


def gate_engine_rows(row: Row) -> Iterator[str]:
    for r in row["engine_mulmods"]:
        cap = MAX_DENSE_ENGINE_SHARE if r["kind"] == "gaussian" else 1.0
        if r["engine_mulmods"] > cap * r["per_pair_mulmods"]:
            yield (f"engine {r['s']}x{r['m']}x{r['k']} ({r['kind']}): {r['engine_mulmods']} "
                   f"mulmods > {cap:.0%} of the per-pair plan's {r['per_pair_mulmods']}")
    for r in row["engine_calls"]:
        cap = r["engine_mulmods"] + r["outputs"]
        if r["shape"].startswith("pack_rows") and r["native_run"] <= HORNER_SLOT_BITS:
            cap = MAX_HORNER_CALL_SHARE * r["engine_mulmods"]
        if r["engine_calls"] > cap:
            yield (f"engine {r['shape']}: {r['engine_calls']} foreign calls for "
                   f"{r['engine_mulmods']} mulmods, above {cap:.0f}")


# -- The big-int size rule, against this box's timings ------------------------
RING_BITS = (256, 512, 1024, 4096)
SQR_RUNS = (4, 8, 32, 113)
# One λ-blinder: the engine's leanest program, 22 multiplies per residue
# loaded and dumped — where a native chain's conversions weigh the most.
BLINDER_FACTORS = 22
# The ring the size rule picks for each kind of work, and the side of the
# squaring-run threshold it puts each run length on, must be the one this
# box measures faster, up to this margin: a near-tie does not flap the
# build, while a crossover that has really drifted fails.  Run lengths
# within 2x of the threshold are not gated: there the sides are equal by
# construction.
RING_RULE_MARGIN = 1.3
RING_REPEAT = 5  # best of, the sides of each comparison taking turns


def _best_of(fns: dict, repeat: int) -> dict:
    """``{name: (best wall time, last result)}``, the callables taking turns
    inside every repeat so a burst of noise lands on every side."""
    best = {name: (float("inf"), None) for name in fns}
    for _ in range(repeat):
        for name, fn in fns.items():
            start = time.perf_counter()
            result = fn()
            best[name] = (min(best[name][0], time.perf_counter() - start), result)
    return best


def _sqr_runs(m: int, xs: list[int], repeat: int) -> tuple[dict, bool]:
    """Microseconds per run of ``k`` squarings, one call each (``looped``)
    against one modexp by ``2^k`` (``native``): two private rings with the
    threshold forced either way, the opening multiplies timed out."""
    reps = 4 if m.bit_length() > 1024 else 20
    sides = {"looped": bigint.LibcryptoRing(m), "native": bigint.LibcryptoRing(m)}
    sides["looped"]._sqr_run_min, sides["native"]._sqr_run_min = 1 << 30, 1

    def runs(ring, k):
        with ring.chain() as z:
            return z.dump(z.run([[([h], k)] * reps for h in z.load(xs)]))

    timed = _best_of({(side, k): partial(runs, ring, k)
                      for k in (0, *SQR_RUNS) for side, ring in sides.items()}, repeat)
    us = {k: {side: 1e6 * (timed[side, k][0] - timed[side, 0][0]) / (reps * len(xs))
              for side in sides} for k in SQR_RUNS}
    return us, all(timed["looped", k][1] == timed["native", k][1] for k in SQR_RUNS)


def ring_rule() -> Row:
    """Per modulus size: what :func:`repro.crypto.bigint.make_ring` selects,
    and microseconds per modexp (half-width exponent) and per mulmod inside
    ``run`` (blinder-shaped programs, conversions included) on each ring,
    and per squaring run looped against native.  Both rings run the same
    operands and must return the same residues."""
    rnd = random.Random(7)
    native = bigint.backend()[0] == "libcrypto"
    rows = {}
    for bits in RING_BITS:
        m = rnd.getrandbits(bits) | (1 << (bits - 1)) | 1
        xs = [rnd.getrandbits(bits) for _ in range(32)]
        e = rnd.getrandbits(bits // 2) | 1 << (bits // 2 - 1)
        rings = {"python": bigint.PythonRing(m)}
        if native:
            rings["libcrypto"] = bigint.LibcryptoRing(m)
        picked = bigint.make_ring(m)
        row: dict = {"selected": {
            "modexp": "libcrypto" if isinstance(picked, bigint.LibcryptoRing) else "python",
            # A ring that chains on the reference operations is its own chain.
            "mulmod": "python" if picked.chain() is picked else "libcrypto",
            "sqr_run_min": bigint.sqr_run_min(bits),
        }}
        n_pows = 2 if bits > 1024 else 8
        work = {}
        for name, ring in rings.items():
            def blinders(ring=ring):
                with ring.chain() as z:
                    hs = z.load(xs)
                    programs = [[((hs * 2)[i: i + BLINDER_FACTORS], 0)] for i in range(len(xs))]
                    return z.dump(z.run(programs))

            work[name, "mulmod"] = blinders
            work[name, "modexp"] = lambda ring=ring: ring.pow_many(xs[:n_pows], e)
        timed = _best_of(work, RING_REPEAT)
        for name in rings:
            row[name] = {"modexp_us": 1e6 * timed[name, "modexp"][0] / n_pows,
                         "mulmod_us": 1e6 * timed[name, "mulmod"][0] / (BLINDER_FACTORS * len(xs))}
        row["residues_match"] = all(result == timed["python", kind][1]
                                    for (_, kind), (_, result) in timed.items())
        if native:
            row["sqr_run_us"], same = _sqr_runs(m, xs[:8], RING_REPEAT + 1)
            row["residues_match"] &= same
        rows[bits] = row
    return rows


def gate_ring_rule(row: Row) -> Iterator[str]:
    for bits, r in row.items():
        if not r["residues_match"]:
            yield f"rings @ {bits}b: libcrypto and python residues differ"
        if "libcrypto" not in r:
            continue  # reference ring only: nothing to choose between
        for work in ("modexp", "mulmod"):
            chosen = r["selected"][work]
            other = "python" if chosen == "libcrypto" else "libcrypto"
            if r[chosen][f"{work}_us"] > RING_RULE_MARGIN * r[other][f"{work}_us"]:
                yield (f"rings @ {bits}b: size rule picks {chosen} for {work} "
                       f"({r[chosen][f'{work}_us']:.2f}us) but {other} measures "
                       f"{r[other][f'{work}_us']:.2f}us; re-measure bigint's size constants")
        run_min = r["selected"]["sqr_run_min"]
        for k, us in r["sqr_run_us"].items():
            if run_min < 2 * k < 4 * run_min:  # within 2x of the crossover
                continue
            chosen, other = ("native", "looped") if k >= run_min else ("looped", "native")
            if us[chosen] > RING_RULE_MARGIN * us[other]:
                yield (f"rings @ {bits}b: a run of {k} squarings goes {chosen} "
                       f"({us[chosen]:.2f}us) but {other} measures {us[other]:.2f}us; "
                       "re-measure bigint._SQR_RUN_MIN")


# -- Packing: ciphertexts and bytes per transfer ------------------------------
PACKING_KEY_BITS = 256  # the smallest key whose layout fits two product slots
PRODUCTION_KEY_BITS = 2048  # the paper's; a synthetic modulus, counting only
MIN_PRODUCTION_REDUCTION = 5.0
# The packed embedding backward ships at least this many times fewer
# ciphertexts on its lkup_bw transfer (slots-fold, up to a row's width).
MIN_LKUP_BW_REDUCTION = 2.0
LKUP_BATCH, LKUP_FIELDS, LKUP_DIM, LKUP_VOCAB = 8, 2, 4, 48


def _packing_key(key_bits: int):
    if key_bits == PRODUCTION_KEY_BITS:  # layout and accounting only
        pk = PaillierPublicKey((1 << (PRODUCTION_KEY_BITS - 1)) + 9)
    else:
        pk, _ = generate_paillier_keypair(key_bits, seed=4242)
    return pk, protocol_layout(pk, mask_scale=2.0**16, acc_depth=1024)


def _wire(tensor) -> dict:
    n = tensor.n_ciphertexts if isinstance(tensor, PackedCryptoTensor) else tensor.size
    return {"cts": n, "bytes": payload_nbytes(tensor),
            "frame_bytes": len(codec.encode_payload(tensor))}


def _lkup_bw(key_bits: int) -> dict:
    """The embedding lookup and its backward ``lkup_bw`` transfer, per
    element against packed: the table stays packed through ``take_rows``,
    and the gradient rows are packed before the scatter-add."""
    pk, layout = _packing_key(key_bits)
    real = key_bits != PRODUCTION_KEY_BITS
    rows = LKUP_BATCH * LKUP_FIELDS
    rng = np.random.default_rng(5)
    idx = rng.integers(0, LKUP_VOCAB, size=rows)
    grads = rng.normal(size=(rows, LKUP_DIM)) * 0.1 if real else np.zeros((rows, LKUP_DIM))
    table = np.zeros((LKUP_VOCAB, LKUP_DIM))
    lookup = PackedCryptoTensor.encrypt(pk, table, layout, obfuscate=False).take_rows(idx)
    enc = CryptoTensor.encrypt(pk, grads, obfuscate=False)
    packed = enc.pack(layout, value_bits=layout.acc_operand_bits)
    return {"slots": layout.slots,
            "unpacked": {"lookup_cts": rows * LKUP_DIM, **_wire(
                enc.scatter_add_rows(idx, num_rows=LKUP_VOCAB, obfuscate_empty=real))},
            "packed": {"lookup_cts": lookup.n_ciphertexts, **_wire(
                packed.scatter_add_rows(idx, num_rows=LKUP_VOCAB, obfuscate_empty=real))}}


def packing() -> Row:
    """Obfuscated encryption per element against packed (ciphertexts and
    λ-blinders); an HE2SS forward transfer at 2048-bit keys (ciphertexts,
    accounted bytes, encoded-frame bytes); and ``lkup_bw`` at the bench and
    the production key."""
    pk, layout = _packing_key(PACKING_KEY_BITS)
    values = np.random.default_rng(0).normal(size=(1, 48))
    encrypt = {}
    for name, enc in (
        ("unpacked", lambda: CryptoTensor.encrypt(pk, values, obfuscate=True)),
        ("packed", lambda: PackedCryptoTensor.encrypt(pk, values, layout, obfuscate=True)),
    ):
        tensor, totals = counted(enc)
        encrypt[name] = {"cts": _wire(tensor)["cts"], "blinders": totals["pow.blind.lambda"]}
    big, big_layout = _packing_key(PRODUCTION_KEY_BITS)
    zeros = np.zeros((32, 64))
    he2ss = {"unpacked": _wire(CryptoTensor.encrypt(big, zeros, obfuscate=False)),
             # Transfer-only tensors pack contiguously: no row alignment.
             "packed": _wire(PackedCryptoTensor.encrypt(big, zeros, big_layout, obfuscate=False,
                                                        contiguous=True))}
    return {"slots": layout.slots, "encrypt 1x48": encrypt, "he2ss 32x64 @ 2048b": he2ss,
            **{f"lkup_bw @ {bits}b": _lkup_bw(bits)
               for bits in (PACKING_KEY_BITS, PRODUCTION_KEY_BITS)}}


def gate_packing(row: Row) -> Iterator[str]:
    enc = row["encrypt 1x48"]
    want = -(-enc["unpacked"]["cts"] // row["slots"])
    if enc["packed"]["cts"] != want or enc["packed"]["blinders"] != want:
        yield (f"packed encrypt of {enc['unpacked']['cts']} values in {row['slots']} slots "
               f"made {enc['packed']['cts']} ciphertexts and {enc['packed']['blinders']} "
               f"blinders, not {want}")
    checks = [("he2ss 32x64 @ 2048b", ("cts", "bytes", "frame_bytes"), MIN_PRODUCTION_REDUCTION)]
    checks += [(f"lkup_bw @ {bits}b", ("lookup_cts", "cts", "bytes"), MIN_LKUP_BW_REDUCTION)
               for bits in (PACKING_KEY_BITS, PRODUCTION_KEY_BITS)]
    for label, metrics, floor in checks:
        for metric in metrics:
            ratio = row[label]["unpacked"][metric] / row[label]["packed"][metric]
            if ratio < floor:
                yield f"{label}: {metric} reduction {ratio:.2f} < {floor}x"


# -- Decryption: pows per ciphertext ------------------------------------------
DECRYPT_KEY_BITS = 256
# One-prime decryption: the smallest key with a band, and the paper's.
ONE_PRIME_KEY_BITS = (512, 2048)
MIN_PACKED_DECRYPT_REDUCTION = 2.0


def _one_prime(key_bits: int, size: int = 32) -> dict:
    """HE2SS-sized values times a plaintext multiplier — mantissas of up to
    ~91 bits, as wide as ``lr_dense_mem``'s — must each decrypt with one
    half-size pow, none falling back to CRT (1 + 2 pows), to CRT's residue."""
    pk, sk = generate_paillier_keypair(key_bits, seed=54321)
    rng = np.random.default_rng(2)
    shares = CryptoTensor.encrypt(pk, rng.normal(size=size) * 2.0**16)
    cts = (shares * rng.normal(size=size)).residues.tolist()
    residues, totals = counted(lambda: sk.raw_decrypt_many(cts))
    pows = totals["pow.crt"]
    return {"band_bits": sk.one_prime_bits, "pows_per_ct": pows / size,
            "fallbacks": (pows - size) // 2,
            "matches_crt": residues == sk.raw_decrypt_many(cts, one_prime=False)}


def decrypt() -> Row:
    """CRT pows to decrypt an 8 x 8 tensor per element against packed, and
    the one-prime route at 512 and 2048 bits."""
    pk, sk = generate_paillier_keypair(DECRYPT_KEY_BITS, seed=54321)
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=64)
    values = np.random.default_rng(1).normal(size=(8, 8))
    unpacked = CryptoTensor.encrypt(pk, values, obfuscate=True)
    packed = PackedCryptoTensor.encrypt(pk, values, layout, obfuscate=True)
    u, u_totals = counted(lambda: unpacked.decrypt(sk))
    p, p_totals = counted(lambda: packed.decrypt(sk))
    return {"packed 8x8": {"unpacked": u_totals["pow.crt"], "packed": p_totals["pow.crt"],
                           "slots": layout.slots, "same_values": bool(np.array_equal(u, p))},
            **{f"one-prime @ {bits}b": _one_prime(bits) for bits in ONE_PRIME_KEY_BITS}}


def gate_decrypt(row: Row) -> Iterator[str]:
    pd = row["packed 8x8"]
    if pd["unpacked"] < MIN_PACKED_DECRYPT_REDUCTION * pd["packed"] or not pd["same_values"]:
        yield (f"packed decrypt 8x8: {pd['packed']} CRT pows against {pd['unpacked']} per element "
               f"(want {MIN_PACKED_DECRYPT_REDUCTION}x fewer), same values: {pd['same_values']}")
    for label, r in row.items():
        got = (r.get("pows_per_ct"), r.get("fallbacks"), r.get("matches_crt"))
        if label.startswith("one-prime") and got != (1.0, 0, True):
            yield (f"{label}: {r['pows_per_ct']:.2f} pows per ciphertext, {r['fallbacks']} "
                   f"CRT fallbacks, matches CRT: {r['matches_crt']} (want 1, 0, True)")


# -- Fabric: a faulted three-endpoint run, from its merged traces -------------
GRID = {"ep_a1": ("A1",), "ep_a2": ("A2",), "ep_b": ("B",)}
IN_DIMS = {"A1": 4, "A2": 3}
IN_B, FABRIC_ROWS, FABRIC_STEPS, FABRIC_LR = 3, 16, 3, 0.1
# The Appendix C data dependencies XV_B -> Z -> gZ -> gW -> encV: a step
# is this many dependent messages deep at any number of Party A's.
FABRIC_MESSAGE_DEPTH = 5
# Explicit events on the one A1 -> B direction, so each fault class fires
# within the few frames a short run sends there.
FAULTS = {("ep_a1", "ep_b"): FaultPlan(events=(
    FaultEvent(2, "corrupt"), FaultEvent(4, "drop"), FaultEvent(6, "duplicate")))}
LINK_RECOVERY = ("retransmits", "naks_sent", "naks_received", "duplicates_dropped",
                 "corrupt_dropped", "timeouts", "reconnects", "resumes")


def _fabric_data():
    rng = np.random.default_rng(1234)
    x = {p: rng.normal(size=(FABRIC_ROWS, d)) for p, d in (*IN_DIMS.items(), ("B", IN_B))}
    return x, (rng.random(FABRIC_ROWS) < 0.5).astype(np.float64)


def _fabric_model(channel=None):
    ctx = VFLContext(VFLConfig(key_bits=128), seed=31, n_a_parties=2, channel=channel)
    return ctx, MultiPartyLR(ctx, dict(IN_DIMS), IN_B)


def fabric_program(channel):
    """One endpoint's side of :func:`fabric` (module scope: picklable)."""
    ctx, model = _fabric_model(channel)
    x, y = _fabric_data()
    x = {p: v for p, v in x.items() if ctx.is_local(p)}
    labels = y if ctx.is_local("B") else None
    tracer, losses = Tracer(), []
    with use_tracer(tracer):
        for k in range(FABRIC_STEPS):
            with span("batch", batch=k):
                losses.append(model.train_step(x, labels, lr=FABRIC_LR))
    return {"losses": losses, "pieces": model.source.local_weight_pieces(),
            "trace": tracer.to_dicts()}


def fabric() -> Row:
    """Three endpoints (two Party A's and the key owner) train the M-party
    LR with faults on A1 -> B: message depth per step from the merged
    traces, whether losses and pooled weight pieces equal the all-local
    run's, and every directed link's ledger."""
    _, model = _fabric_model()
    x, y = _fabric_data()
    ref = [model.train_step(x, y, lr=FABRIC_LR) for _ in range(FABRIC_STEPS)]
    ref_pieces = model.source.local_weight_pieces()
    out = run_federation(fabric_program, roles=GRID, timeout=90.0, fault_plans=FAULTS,
                         sock_timeout=0.5)
    results = out["results"]
    pooled = {name: v for role in GRID for name, v in results[role]["pieces"].items()}
    report = critical_path(merge_traces({role: results[role]["trace"] for role in GRID}))
    return {"depth": [step["depth"] for step in report],
            "losses_match": results["ep_b"]["losses"] == ref,
            "pieces_match": pooled.keys() == ref_pieces.keys()
            and all(np.array_equal(pooled[k], v) for k, v in ref_pieces.items()),
            "links": {f"{role}->{peer}": {k: ledger[k] for k in (
                "data_sent", "data_received", "fins", "envelope_bytes", *LINK_RECOVERY)}
                for role, per_peer in out["link_stats"].items()
                for peer, ledger in per_peer.items()}}


def gate_fabric(row: Row) -> Iterator[str]:
    if row["depth"] != [FABRIC_MESSAGE_DEPTH] * FABRIC_STEPS:
        yield (f"message depth per step {row['depth']} != {FABRIC_MESSAGE_DEPTH}: a receive "
               "moved ahead of a send it does not depend on")
    if not (row["losses_match"] and row["pieces_match"]):
        yield "losses or pooled weight pieces differ from the all-local run's"
    links = row["links"]
    star = {"ep_a1->ep_b", "ep_b->ep_a1", "ep_a2->ep_b", "ep_b->ep_a2"}
    if set(links) != star:
        yield f"links {sorted(links)} are not a star around the key owner"
        return
    for name in star:  # every logical frame accepted once at the far end
        sender, receiver = name.split("->")
        if links[name]["data_sent"] != links[f"{receiver}->{sender}"]["data_received"]:
            yield f"{name}: {links[name]['data_sent']} frames sent, not all accepted once"
    for name, counter in (("ep_b->ep_a1", "corrupt_dropped"),
                          ("ep_b->ep_a1", "duplicates_dropped"), ("ep_b->ep_a1", "naks_sent"),
                          ("ep_a1->ep_b", "retransmits"), ("ep_a1->ep_b", "naks_received")):
        if links[name][counter] < 1:
            yield f"{name}: {counter}=0, the scheduled fault never fired or its recovery is hidden"
    for name in ("ep_a2->ep_b", "ep_b->ep_a2"):  # the untouched link stays free
        ledger = links[name]
        busy = {c: ledger[c] for c in LINK_RECOVERY if ledger[c]}
        frames = ledger["data_sent"] + ledger["fins"]
        if busy or ledger["fins"] < 1 or ledger["envelope_bytes"] != frames * ENV_OVERHEAD:
            yield (f"{name}: recovery {busy}, {ledger['fins']} FINs, {ledger['envelope_bytes']} "
                   f"envelope bytes for {frames} frames (want none, >= 1, {ENV_OVERHEAD} B each)")


ROWS: dict[str, tuple[Callable[[], Row], Gate]] = {
    "kernel_pows": (kernel_pows, gate_kernel_pows),
    "engine_rows": (engine_rows, gate_engine_rows),
    "ring_rule": (ring_rule, gate_ring_rule),
    "packing": (packing, gate_packing),
    "decrypt": (decrypt, gate_decrypt),
    "fabric": (fabric, gate_fabric),
}


def run(name: str) -> tuple[Row, list[str]]:
    """Row ``name`` and what its gate says about it."""
    make, gate = ROWS[name]
    row = make()
    return row, list(gate(row))


def _lines(value, prefix: str = "") -> Iterator[str]:
    if isinstance(value, dict):
        for key, sub in value.items():
            nested = isinstance(sub, dict)
            yield from _lines(sub, f"{prefix}{key} / " if nested else f"{prefix}{key}")
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for i, sub in enumerate(value):
            yield from _lines(sub, f"{prefix.rstrip(' /')}[{i}] / ")
    else:
        shown = f"{value:.3g}" if isinstance(value, float) else value
        yield f"  {prefix}: {shown}"


def main() -> int:
    failed = []
    print(f"big-int ring: {' '.join(bigint.backend())}")
    for name in ROWS:
        row, failures = run(name)
        print(f"\n{name}")
        print("\n".join(_lines(row)))
        failed += [f"{name}: {msg}" for msg in failures]
    print("\n" + ("\n".join(f"FAIL {msg}" for msg in failed) if failed else "every gate holds"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
