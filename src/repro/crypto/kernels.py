"""Flat integer kernels for batched Paillier tensor arithmetic.

The paper's CryptoTensor library (§7.1) keeps ciphertext batches as
contiguous GMP big-int arrays and runs every primitive as a tight loop over
raw residues.  This module is the analogue here: a uniform-exponent
ciphertext batch travels as a flat ``list[int]`` (row-major, plus shape and
exponent metadata kept by the caller) and every primitive — encrypt, CRT
decrypt, elementwise add/sub/mul, both matmul orientations, sparse
``X.T @ cipher``, scatter-add and obfuscation — is one batch call into the
big-int ring of :mod:`repro.crypto.bigint` (directly, or through the
exponentiation engine), which runs it on OpenSSL ``BIGNUM``s or Python
integers by modulus size.  No ``EncryptedNumber`` or ``EncodedNumber`` is
allocated in any inner loop; object wrappers exist only at the
:class:`CryptoTensor` boundary.

Three algorithmic optimisations are fused into the kernels:

1. **Shared-squaring exponentiation** — every matmul is a *term builder*:
   it lists, per output, the ``(cipher row, signed mantissa)`` terms of the
   contraction and hands the list to :func:`repro.crypto.modexp.multi_pow`,
   which evaluates all outputs with one squaring chain per output and one
   small power table per ciphertext, shared by every output that touches
   it.  Negative multipliers cost one batch inversion per kernel call, not
   one inversion per term.
2. **Blinding pool** — obfuscation draws ``r^n mod n^2`` factors from the
   public key's precomputed pool (see ``PaillierPublicKey.blinding_pool``)
   and computes any shortfall as one batch — in λ mode from the key's
   fixed-base table of ``h`` — optionally in parallel.
3. **Multicore dispatch** — the engine and the batch kernels hand their
   work lists to a :class:`~repro.crypto.parallel.ParallelContext` when one
   is configured and the job count clears the gate; results are
   bit-identical to serial execution.

All kernels mirror the legacy object path's arithmetic exactly (same
mantissa encodings, same negative-plaintext inversion trick, same exponent
bookkeeping), which the equivalence test-suite pins down.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.crypto.bigint import ring_for
from repro.crypto.encoding import EncodedNumber
from repro.crypto.modexp import batch_invert, multi_pow, pow_each, raw_mul_many
from repro.crypto.parallel import ParallelContext, get_default_context
from repro.obs import tracer as _obs

__all__ = [
    "TENSOR_EXPONENT",
    "PLAIN_EXPONENT",
    "encode_flat",
    "encrypt_flat",
    "crt_decrypt_many",
    "decrypt_flat",
    "align_flat",
    "add_cipher_flat",
    "sub_cipher_flat",
    "add_plain_flat",
    "mul_plain_flat",
    "matmul_plain_cipher_flat",
    "matmul_cipher_plain_flat",
    "sparse_matmul_cipher_flat",
    "sparse_t_matmul_flat",
    "scatter_add_flat",
    "obfuscate_flat",
    "raw_mul_many",
]

# Uniform fixed-point exponents (shared with crypto_tensor, which re-exports
# them): encrypted tensors carry ~2**-40 resolution, plaintext multipliers
# ~2**-32; products land at 2**-72, far inside the plaintext bound of even
# the shortest supported keys.
TENSOR_EXPONENT = -40
PLAIN_EXPONENT = -32

_FLOAT_MANT_BITS = EncodedNumber.FLOAT_MANTISSA_BITS
_MIN_DEFAULT_EXPONENT = EncodedNumber.MIN_DEFAULT_EXPONENT


def _resolve(parallel: ParallelContext | None) -> ParallelContext | None:
    return parallel if parallel is not None else get_default_context()


def _blind(public_key, cts: Sequence[int], parallel: ParallelContext | None) -> list[int]:
    """``cts`` times fresh blinders from the key's pool, elementwise."""
    blinders = public_key.blinding_factors(len(cts), parallel=_resolve(parallel))
    return ring_for(public_key.nsquare).mul_many(cts, blinders)


# ---------------------------------------------------------------------------
# Encoding.


def _encode_signed(public_key, value: float, exponent: int) -> int:
    """Signed fixed-point mantissa of ``value`` at ``exponent``."""
    if not math.isfinite(value):
        raise ValueError(f"cannot encode non-finite value {value!r}")
    try:
        mantissa = int(round(math.ldexp(value, -exponent)))
    except OverflowError:
        raise OverflowError(
            f"scalar {value} at exponent {exponent} exceeds plaintext bound"
        ) from None
    if abs(mantissa) > public_key.max_int:
        raise OverflowError(
            f"scalar {value} at exponent {exponent} exceeds plaintext bound"
        )
    return mantissa


def _encode_mantissa(public_key, value: float, exponent: int) -> int:
    """Fixed-point mantissa residue of ``value`` at ``exponent`` (mod n)."""
    return _encode_signed(public_key, value, exponent) % public_key.n


def encode_flat(public_key, values: np.ndarray, exponent: int) -> list[int]:
    """Encode a flat float64 array at a uniform exponent, caching repeats."""
    cache: dict[float, int] = {}
    out: list[int] = []
    append = out.append
    for v in np.asarray(values, dtype=np.float64).ravel().tolist():
        m = cache.get(v)
        if m is None:
            m = _encode_mantissa(public_key, v, exponent)
            cache[v] = m
        append(m)
    return out


# ---------------------------------------------------------------------------
# Encrypt / decrypt.


def encrypt_flat(
    public_key,
    values: np.ndarray,
    exponent: int = TENSOR_EXPONENT,
    obfuscate: bool = True,
    parallel: ParallelContext | None = None,
    lift: Sequence[int] | None = None,
) -> list[int]:
    """Encrypt a flat float array at a uniform exponent.

    ``g = n + 1`` makes the deterministic part a single mulmod; the
    obfuscation factors come from the key's blinding pool (batch-computed,
    optionally parallel, when the pool runs dry).  With ``lift``, element
    ``i`` is encoded at ``exponent`` and its mantissa then multiplied by
    ``2**lift[i]`` — the encryption sits at ``exponent - lift[i]`` without
    a ciphertext exponentiation to get it there.
    """
    n = public_key.n
    mantissas = encode_flat(public_key, values, exponent)
    if lift is not None:
        mantissas = [(m << up) % n for m, up in zip(mantissas, lift)]
    cts = [1 + m * n for m in mantissas]  # < n^2
    if obfuscate:
        cts = _blind(public_key, cts, parallel)
    trc = _obs.get_tracer()
    if trc is not None:
        trc.add("ct.encrypted", len(cts))
    return cts


def crt_decrypt_many(
    private_key,
    cts: Sequence[int],
    parallel: ParallelContext | None = None,
) -> list[int]:
    """Raw CRT decryptions ``c -> m`` with ``m in [0, n)`` for a batch.

    The serial path is ``PaillierPrivateKey.raw_decrypt_many`` (one ring
    batch per CRT half); when a
    :class:`~repro.crypto.parallel.ParallelContext` is active and
    the batch clears its gate, the work shards across the context's
    *private* worker tier (CRT constants shipped once to the key owner's
    own OS children — see the custody notes in ``repro.crypto.parallel``),
    bit-identical to serial.
    """
    ctx = _resolve(parallel)
    if ctx is not None and ctx.should_parallelize(len(cts)):
        return ctx.crt_decrypt_many(private_key, cts)
    out = private_key.raw_decrypt_many(cts)
    if out:
        trc = _obs.get_tracer()
        if trc is not None:
            trc.add("pow.crt", 2 * len(out))
            trc.add("ct.decrypted", len(out))
    return out


def decrypt_flat(
    private_key,
    cts: Sequence[int],
    exponents: int | Sequence[int],
    parallel: ParallelContext | None = None,
) -> np.ndarray:
    """CRT-decrypt a flat ciphertext batch to float64.

    ``exponents`` is either one uniform exponent or a per-element sequence
    (ragged tensors appear after the mul-by-one shortcut or mixed adds).
    The CRT exponentiations go through :func:`crt_decrypt_many`, so a
    configured parallel context shards them across the private worker tier.
    """
    pk = private_key.public_key
    n, max_int = pk.n, pk.max_int
    uniform = isinstance(exponents, int)
    out = np.empty(len(cts), dtype=np.float64)
    for i, m in enumerate(crt_decrypt_many(private_key, cts, parallel)):
        if m <= max_int:
            mantissa = m
        elif m >= n - max_int:
            mantissa = m - n
        else:
            raise OverflowError(
                "encoding fell in the overflow guard band; increase the key "
                "size or reduce tensor magnitudes"
            )
        e = exponents if uniform else exponents[i]
        # Keep huge-mantissa/negative-exponent pairs inside float range.
        while abs(mantissa) > 2**1000:
            mantissa >>= 64
            e += 64
        out[i] = math.ldexp(float(mantissa), e)
    return out


# ---------------------------------------------------------------------------
# Exponent alignment.


def _shift_many(public_key, cts: Sequence[int], shifts: Sequence[int]) -> list[int]:
    """Re-express ``cts[i]`` at a ``shifts[i]``-bit finer exponent (0: as
    is): ``c ** 2**shift``, the shifted elements counted as ``pow.shift``."""
    shifted = sum(1 for shift in shifts if shift)
    if not shifted:
        return list(cts)
    if max(shifts) > public_key.key_bits:
        raise OverflowError(
            f"aligning exponents needs a {max(shifts)}-bit shift, beyond the "
            f"{public_key.key_bits}-bit key"
        )
    trc = _obs.get_tracer()
    if trc is not None:
        trc.add("pow.shift", shifted)
    return pow_each(public_key.nsquare, cts, [1 << shift for shift in shifts])


def align_flat(
    public_key, cts: Sequence[int], exponents: Sequence[int]
) -> tuple[list[int], int]:
    """Bring a ragged batch to its minimum (finest) common exponent."""
    target = min(exponents)
    return _shift_many(public_key, cts, [e - target for e in exponents]), target


# ---------------------------------------------------------------------------
# Elementwise kernels.  These mirror EncryptedNumber's per-element exponent
# bookkeeping exactly (pairwise alignment, result at the pairwise minimum),
# so rewiring CryptoTensor onto them is behaviour-preserving.


def add_cipher_flat(
    public_key,
    a_cts: Sequence[int],
    a_exps: Sequence[int],
    b_cts: Sequence[int],
    b_exps: Sequence[int],
) -> tuple[list[int], list[int]]:
    """Elementwise homomorphic ``a + b`` with pairwise exponent alignment."""
    out_exps = [min(ea, eb) for ea, eb in zip(a_exps, b_exps)]
    a_cts = _shift_many(public_key, a_cts, [ea - e for ea, e in zip(a_exps, out_exps)])
    b_cts = _shift_many(public_key, b_cts, [eb - e for eb, e in zip(b_exps, out_exps)])
    return ring_for(public_key.nsquare).mul_many(a_cts, b_cts), out_exps


def sub_cipher_flat(
    public_key,
    a_cts: Sequence[int],
    a_exps: Sequence[int],
    b_cts: Sequence[int],
    b_exps: Sequence[int],
) -> tuple[list[int], list[int]]:
    """Elementwise ``a - b`` (adds the modular inverse of ``b``)."""
    inv_b = batch_invert(b_cts, public_key.nsquare)
    return add_cipher_flat(public_key, a_cts, a_exps, inv_b, b_exps)


def _default_float_exponent(value: float) -> int:
    """The exponent ``EncodedNumber.encode(..., exponent=None)`` would pick."""
    return max(math.frexp(value)[1] - _FLOAT_MANT_BITS, _MIN_DEFAULT_EXPONENT)


def add_plain_flat(
    public_key,
    cts: Sequence[int],
    exps: Sequence[int],
    values: np.ndarray,
) -> tuple[list[int], list[int]]:
    """Elementwise ``cipher + plain`` at each value's natural precision."""
    n = public_key.n
    plain: list[int] = []
    shifts: list[int] = []
    out_exps: list[int] = []
    enc_cache: dict[float, tuple[int, int]] = {}
    for e, v in zip(exps, np.asarray(values, dtype=np.float64).ravel().tolist()):
        cached = enc_cache.get(v)
        if cached is None:
            ev = _default_float_exponent(v)
            cached = (_encode_mantissa(public_key, v, ev), ev)
            enc_cache[v] = cached
        m, ev = cached
        if ev > e:
            m = (m << (ev - e)) % n
        plain.append(1 + m * n)
        shifts.append(max(e - ev, 0))
        out_exps.append(min(e, ev))
    cts = _shift_many(public_key, cts, shifts)
    return ring_for(public_key.nsquare).mul_many(cts, plain), out_exps


def mul_plain_flat(
    public_key,
    cts: Sequence[int],
    exps: Sequence[int],
    values: np.ndarray,
    parallel: ParallelContext | None = None,
) -> tuple[list[int], list[int]]:
    """Elementwise ``cipher * plain`` at ``PLAIN_EXPONENT``.

    Multiplying by exactly ``1.0`` returns the ciphertext untouched (the
    value is ``1 * 2^0``, so the exponent is unchanged) and by exactly
    ``0.0`` returns the trivial encryption of zero — neither pays a
    ``pow()``.  Everything else goes through one batched ``raw_mul``.
    """
    flat_vals = np.asarray(values, dtype=np.float64).ravel().tolist()
    out_cts: list[int] = [0] * len(flat_vals)
    out_exps: list[int] = [0] * len(flat_vals)
    jobs: list[tuple[int, int]] = []
    job_slots: list[int] = []
    enc_cache: dict[float, int] = {}
    for i, (c, e, v) in enumerate(zip(cts, exps, flat_vals)):
        if v == 1.0:
            out_cts[i] = c
            out_exps[i] = e
            continue
        if v == 0.0:
            out_cts[i] = 1
            out_exps[i] = e
            continue
        m = enc_cache.get(v)
        if m is None:
            m = _encode_mantissa(public_key, v, PLAIN_EXPONENT)
            enc_cache[v] = m
        jobs.append((c, m))
        job_slots.append(i)
        out_exps[i] = e + PLAIN_EXPONENT
    if jobs:
        for slot, powered in zip(job_slots, raw_mul_many(public_key, jobs, parallel)):
            out_cts[slot] = powered
    return out_cts, out_exps


# ---------------------------------------------------------------------------
# Matrix products.  Each is a term builder over modexp.multi_pow: it lists
# the (cipher row, signed multiplier mantissa) terms of every output row and
# leaves squarings, tables and inversions to the engine.


def _term_rows(public_key, entry_rows) -> list[list[tuple[int, int]]]:
    """Per row, the ``(index, signed mantissa)`` terms of its nonzero
    ``(index, multiplier)`` entries, each distinct value encoded once."""
    cache: dict[float, int] = {}
    rows = []
    for entries in entry_rows:
        terms = []
        for index, v in entries:
            if v == 0.0:
                continue
            mant = cache.get(v)
            if mant is None:
                mant = cache[v] = _encode_signed(public_key, v, PLAIN_EXPONENT)
            terms.append((index, mant))
        rows.append(terms)
    return rows


def _csr_entries(rows, m: int, col_to_out: dict[int, int] | None = None):
    """Each CSR row's ``(column, value)`` entries, columns range-checked
    against ``m`` — or, given ``col_to_out``, renumbered through it."""
    for cols, vals in rows:
        cols = [int(col) for col in cols]
        if col_to_out is not None:
            if not all(col in col_to_out for col in cols):
                raise IndexError("batch touches a column outside `columns`")
            cols = [col_to_out[col] for col in cols]
        elif any(col >= m for col in cols):
            raise IndexError("sparse column index out of range")
        yield zip(cols, map(float, vals))


def matmul_plain_cipher_flat(
    public_key,
    plain: np.ndarray,
    cts: Sequence[int],
    k: int,
    exponent: int,
    parallel: ParallelContext | None = None,
) -> tuple[list[int], int]:
    """Dense ``plain (s x m) @ cipher (m x k)`` over flat residues.

    Zero entries are skipped.  Returns the flat ``s*k`` product batch and
    its uniform exponent.
    """
    plain = np.asarray(plain, dtype=np.float64)
    rows = _term_rows(public_key, map(enumerate, plain.tolist()))
    return multi_pow(public_key, cts, rows, k, parallel), exponent + PLAIN_EXPONENT


def matmul_cipher_plain_flat(
    public_key,
    cts: Sequence[int],
    plain: np.ndarray,
    s: int,
    exponent: int,
    parallel: ParallelContext | None = None,
) -> tuple[list[int], int]:
    """Dense ``cipher (s x m) @ plain (m x k)`` over flat residues."""
    plain = np.asarray(plain, dtype=np.float64)
    m = plain.shape[0]
    columns = _term_rows(public_key, map(enumerate, plain.T.tolist()))
    rows = [
        [(i * m + t, mant) for t, mant in col] for i in range(s) for col in columns
    ]
    return multi_pow(public_key, cts, rows, 1, parallel), exponent + PLAIN_EXPONENT


def sparse_matmul_cipher_flat(
    public_key,
    rows: Sequence[tuple[Sequence[int], Sequence[float]]],
    m: int,
    cts: Sequence[int],
    k: int,
    exponent: int,
    parallel: ParallelContext | None = None,
) -> tuple[list[int], int]:
    """CSR ``plain @ cipher``: cost proportional to nnz mulmods.

    Every batch row multiplying cipher row ``col`` by the same value can
    reuse one powered block — for binary features each touched column then
    costs ``k`` pows total, however many rows hit it.
    """
    terms = _term_rows(public_key, _csr_entries(rows, m))
    return multi_pow(public_key, cts, terms, k, parallel), exponent + PLAIN_EXPONENT


def sparse_t_matmul_flat(
    public_key,
    rows: Sequence[tuple[Sequence[int], Sequence[float]]],
    cts: Sequence[int],
    k: int,
    exponent: int,
    out_rows: int,
    col_to_out: dict[int, int] | None,
    parallel: ParallelContext | None = None,
) -> tuple[list[int], int]:
    """CSR ``X.T (m x batch) @ cipher (batch x k)`` in O(nnz * k) mulmods.

    All columns of a batch row holding the same value (ubiquitous for
    binary features) can share one powered cipher-row block.
    """
    terms: list[list[tuple[int, int]]] = [[] for _ in range(out_rows)]
    by_batch_row = _term_rows(public_key, _csr_entries(rows, out_rows, col_to_out))
    for i, row in enumerate(by_batch_row):
        for target, mant in row:
            terms[target].append((i, mant))
    return multi_pow(public_key, cts, terms, k, parallel), exponent + PLAIN_EXPONENT


# ---------------------------------------------------------------------------
# Scatter-add and obfuscation (no exponentiation — pure mulmod loops).  The
# scatter accumulates with Python operators in place: the ring runs one-shot
# mulmods on them at every modulus size anyway (see repro.crypto.bigint),
# and a ring batch per table row measures slower than this loop.


def scatter_add_flat(
    public_key,
    cts: Sequence[int],
    indices: Sequence[int],
    num_rows: int,
    dim: int,
    parallel: ParallelContext | None = None,
    obfuscate_empty: bool = True,
) -> list[int]:
    """Encrypted ``lkup_bw``: homomorphically sum batch rows into a table.

    ``dim`` is the number of ciphertexts per logical row — the column count
    for per-element tensors, or the (smaller) ciphertexts-per-row of a
    packed batch, which makes this the packed scatter-add kernel too: a
    lane-wise sum is the same mulmod either way.

    Untouched table rows would otherwise be the raw residue ``1`` — an
    unblinded, trivially recognisable encryption of zero that leaks exactly
    which rows the batch missed (i.e. the private categorical indices).
    ``obfuscate_empty`` (the default) multiplies *those* rows by fresh
    blinders from the key's pool; touched rows keep exactly their inputs'
    blinding (products of obfuscated inputs stay obfuscated — scatter
    unobfuscated inputs only if a masking step follows before the wire).
    Decoded values are unchanged.  Pass ``False`` only for in-process
    reference comparisons that never cross a party boundary.
    """
    nsq = public_key.nsquare
    out = [1] * (num_rows * dim)
    touched = bytearray(num_rows)
    for bi, r in enumerate(indices):
        r = int(r)
        touched[r] = 1
        ob = r * dim
        ib = bi * dim
        for j in range(dim):
            out[ob + j] = (out[ob + j] * cts[ib + j]) % nsq
    if obfuscate_empty:
        empty = [r for r in range(num_rows) if not touched[r]]
        if empty:
            blinders = public_key.blinding_factors(
                len(empty) * dim, parallel=_resolve(parallel)
            )
            pos = 0
            for r in empty:
                ob = r * dim
                for j in range(dim):
                    out[ob + j] = (out[ob + j] * blinders[pos]) % nsq
                    pos += 1
    return out


def obfuscate_flat(
    public_key,
    cts: Sequence[int],
    parallel: ParallelContext | None = None,
) -> list[int]:
    """Re-randomise a batch with blinders from the precomputed pool."""
    return _blind(public_key, cts, parallel)
