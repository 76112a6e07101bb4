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
integers by modulus size.  No per-ciphertext object exists anywhere on
this path: :class:`CryptoTensor` holds the same raw residues (lowering is
``ravel().tolist()``, raising one slice assignment).

The fixed-point codec around them works a batch at a time — one call
encodes every multiplier of a kernel, one decodes every plaintext — over
the scalar definitions ``_encode_signed`` / ``_decode_signed``: on this
repo's traffic (14 to 224 elements a call) numpy ``rint(ldexp(...))`` was
measured no faster than the loop, so there is no second, array code path.

Two algorithmic optimisations are fused into the kernels:

1. **Shared-squaring exponentiation** — every matmul is a *term builder*:
   it lists, per output, the ``(cipher row, signed mantissa)`` terms of the
   contraction (all multipliers encoded in one batch) and hands the list to
   :func:`repro.crypto.modexp.multi_pow`, which plans one accumulate
   program per output — one squaring chain per output and one small power
   table per ciphertext, shared by every output that touches it — and lets
   the ring run the whole batch in one call.  Negative multipliers cost one
   batch inversion per kernel call, not one inversion per term.
2. **Batched blinding** — obfuscation draws all of a call's ``h^x mod
   n^2`` factors as one batch from the key's fixed-base table of ``h``
   (see ``PaillierPublicKey.blinding_factors``).

Every kernel runs serially in the calling process, so a decrypt never
takes the key owner's primes out of it.

Every kernel's residues and exponents are pinned by golden vectors
(``tests/data/kernel_golden.json``), frozen from the per-ciphertext object
path the kernels replaced: same mantissa encodings, same negative-plaintext
inversion trick, same exponent bookkeeping.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.crypto.bigint import ring_for
from repro.crypto.modexp import batch_invert, multi_pow, pow_each, raw_mul_many
from repro.obs import tracer as _obs

__all__ = [
    "TENSOR_EXPONENT",
    "PLAIN_EXPONENT",
    "encode_flat",
    "encrypt_flat",
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

# A plain addend's natural exponent keeps its full float mantissa, floored
# at MIN_DEFAULT_EXPONENT: without a floor, adding a subnormal-scale value
# to an ordinary cipher would demand ~1000 bits of mantissa headroom,
# silently wrapping mod n on short keys.  Values below 2**-64 quantise to
# zero, far finer than any ML quantity in this codebase needs.
FLOAT_MANTISSA_BITS = 53
MIN_DEFAULT_EXPONENT = -64


def _blind(public_key, cts: Sequence[int]) -> list[int]:
    """``cts`` times fresh blinders from the key, elementwise."""
    blinders = public_key.blinding_factors(len(cts))
    return ring_for(public_key.nsquare).mul_many(cts, blinders)


# ---------------------------------------------------------------------------
# Encoding.


def _encode_signed(max_int: int | None, value: float, exponent: int) -> int:
    """Signed fixed-point mantissa of one ``value`` at ``exponent``, at most
    ``max_int`` in magnitude when given."""
    if not math.isfinite(value):
        raise ValueError(f"cannot encode non-finite value {value!r}")
    try:
        mantissa = int(round(math.ldexp(value, -exponent)))
    except OverflowError:
        mantissa = None  # past the float range: past any plaintext bound
    if mantissa is None or (max_int is not None and abs(mantissa) > max_int):
        raise OverflowError(f"scalar {value} at exponent {exponent} exceeds plaintext bound")
    return mantissa


def _encode_signed_flat(max_int: int | None, values: np.ndarray, exponents) -> list[int]:
    """:func:`_encode_signed` over a float64 array, in order; ``exponents``
    is one exponent, or an integer array of one per value."""
    values = np.asarray(values, dtype=np.float64).ravel()
    each = [exponents] * len(values) if isinstance(exponents, int) else exponents.tolist()
    return [_encode_signed(max_int, v, e) for v, e in zip(values.tolist(), each)]


def _natural_exponents(values: np.ndarray) -> np.ndarray:
    """Per value, its natural exponent: 53 mantissa bits under the value's
    own binary exponent, floored at ``MIN_DEFAULT_EXPONENT``."""
    return np.maximum(np.frexp(values)[1] - FLOAT_MANTISSA_BITS, MIN_DEFAULT_EXPONENT)


def encode_flat(public_key, values: np.ndarray, exponent: int) -> list[int]:
    """Encode a flat float64 array at a uniform exponent (residues mod n)."""
    n = public_key.n
    return [m % n for m in _encode_signed_flat(public_key.max_int, values, exponent)]


# ---------------------------------------------------------------------------
# Encrypt / decrypt.


def encrypt_flat(
    public_key,
    values: np.ndarray,
    exponent: int = TENSOR_EXPONENT,
    obfuscate: bool = True,
    lift: Sequence[int] | None = None,
) -> list[int]:
    """Encrypt a flat float array at a uniform exponent.

    ``g = n + 1`` makes the deterministic part a single mulmod; the
    obfuscation factors are the key's ``h^x`` blinders, drawn as one batch.
    With ``lift``, element ``i`` is encoded at
    ``exponent`` and its mantissa then multiplied by ``2**lift[i]`` — the
    encryption sits at ``exponent - lift[i]`` without a ciphertext
    exponentiation to get it there.
    """
    n = public_key.n
    mantissas = encode_flat(public_key, values, exponent)
    if lift is not None:
        mantissas = [(m << up) % n for m, up in zip(mantissas, lift)]
    cts = [1 + m * n for m in mantissas]  # < n^2
    if obfuscate:
        cts = _blind(public_key, cts)
    trc = _obs.get_tracer()
    if trc is not None:
        trc.add("ct.encrypted", len(cts))
    return cts


def decrypt_flat(
    private_key, cts: Sequence[int], exponents: int | Sequence[int]
) -> np.ndarray:
    """Decrypt a flat per-element ciphertext batch to float64.

    ``exponents`` is either one uniform exponent or a per-element sequence
    (ragged tensors appear after the mul-by-one shortcut or mixed adds).
    The exponentiations are one ``raw_decrypt_many`` batch: on keys of 512
    bits and up a plaintext inside the one-prime band costs one half-size
    pow instead of CRT's two (same residue either way).
    """
    raw = private_key.raw_decrypt_many(cts)
    return _decode_signed_flat(_signed_plaintexts(private_key.public_key, raw), exponents)


def _signed_plaintexts(public_key, raw: Sequence[int], what: str = "encoding") -> list[int]:
    """Raw decryptions in ``[0, n)`` as the signed integers they encode."""
    n, max_int = public_key.n, public_key.max_int
    signed = [m if m <= max_int else m - n for m in raw]
    if min(signed, default=0) < -max_int:
        raise OverflowError(
            f"{what} fell in the overflow guard band; increase the key "
            "size or reduce tensor magnitudes"
        )
    return signed


def _decode_signed(mantissa: int, exponent: int) -> float:
    """``mantissa * 2**exponent`` as a float."""
    # Keep huge-mantissa/negative-exponent pairs inside float range.
    while abs(mantissa) > 2**1000:
        mantissa >>= 64
        exponent += 64
    return math.ldexp(float(mantissa), exponent)


def _decode_signed_flat(mantissas: Sequence[int], exponents) -> np.ndarray:
    """:func:`_decode_signed` over a batch (``exponents``: one, or a
    sequence of one per mantissa)."""
    each = [exponents] * len(mantissas) if isinstance(exponents, int) else exponents
    return np.array([_decode_signed(m, e) for m, e in zip(mantissas, each)], dtype=np.float64)


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
# Elementwise kernels.  Per-element exponent bookkeeping: pairwise
# alignment, the result at the pairwise minimum.


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


def add_plain_flat(
    public_key,
    cts: Sequence[int],
    exps: Sequence[int],
    values: np.ndarray,
) -> tuple[list[int], list[int]]:
    """Elementwise ``cipher + plain`` at each value's natural precision."""
    n = public_key.n
    values = np.asarray(values, dtype=np.float64).ravel()
    natural = _natural_exponents(values)
    mantissas = _encode_signed_flat(public_key.max_int, values, natural)
    natural = natural.tolist()
    plain = [1 + (m << max(ev - e, 0)) % n * n for e, m, ev in zip(exps, mantissas, natural)]
    cts = _shift_many(public_key, cts, [max(e - ev, 0) for e, ev in zip(exps, natural)])
    out_exps = [min(e, ev) for e, ev in zip(exps, natural)]
    return ring_for(public_key.nsquare).mul_many(cts, plain), out_exps


def mul_plain_flat(
    public_key,
    cts: Sequence[int],
    exps: Sequence[int],
    values: np.ndarray,
) -> tuple[list[int], list[int]]:
    """Elementwise ``cipher * plain`` at ``PLAIN_EXPONENT``.

    Multiplying by exactly ``1.0`` returns the ciphertext untouched (the
    value is ``1 * 2^0``, so the exponent is unchanged) and by exactly
    ``0.0`` returns the trivial encryption of zero — neither pays a
    ``pow()``.  Everything else goes through one batched ``raw_mul``.
    """
    n = public_key.n
    values = np.asarray(values, dtype=np.float64).ravel()
    mantissas = _encode_signed_flat(public_key.max_int, values, PLAIN_EXPONENT)
    out_cts = [c if v else 1 for c, v in zip(cts, values.tolist())]  # right where v is 0 or 1
    out_exps = list(exps)
    slots = np.flatnonzero((values != 1.0) & (values != 0.0)).tolist()
    if slots:
        jobs = [(cts[i], mantissas[i] % n) for i in slots]
        for i, powered in zip(slots, raw_mul_many(public_key, jobs)):
            out_cts[i] = powered
            out_exps[i] += PLAIN_EXPONENT
    return out_cts, out_exps


# ---------------------------------------------------------------------------
# Matrix products.  Each is a term builder over modexp.multi_pow: it lists
# the (cipher row, signed multiplier mantissa) terms of every output row and
# leaves squarings, tables and inversions to the engine.


def _term_rows(public_key, index_rows, values) -> list[list[tuple[int, int]]]:
    """Per row, the ``(index, signed mantissa)`` terms of its nonzero
    entries: ``index_rows[i]`` indexes row ``i``'s entries, ``values`` holds
    the multipliers of all rows end to end, encoded in one batch."""
    values = np.asarray(values, dtype=np.float64).ravel()
    # One shared iterator: each row's zip stops on its indices and leaves
    # the next row's (mantissa, multiplier) pairs unconsumed.
    entries = zip(_encode_signed_flat(public_key.max_int, values, PLAIN_EXPONENT), values.tolist())
    return [
        [(index, mant) for index, (mant, v) in zip(indices, entries) if v]
        for indices in index_rows
    ]


def _csr_entries(rows, m: int, col_to_out: dict[int, int] | None = None):
    """CSR rows as :func:`_term_rows` takes them — ``(per-row columns, all
    values end to end)`` — the columns range-checked against ``m`` or,
    given ``col_to_out``, renumbered through it."""
    index_rows = []
    for cols, _ in rows:
        cols = [int(col) for col in cols]
        if col_to_out is not None:
            if not all(col in col_to_out for col in cols):
                raise IndexError("batch touches a column outside `columns`")
            cols = [col_to_out[col] for col in cols]
        elif any(col >= m for col in cols):
            raise IndexError("sparse column index out of range")
        index_rows.append(cols)
    return index_rows, np.concatenate([np.asarray(v, dtype=np.float64) for _, v in rows] or [[]])


def matmul_plain_cipher_flat(
    public_key,
    plain: np.ndarray,
    cts: Sequence[int],
    k: int,
    exponent: int,
) -> tuple[list[int], int]:
    """Dense ``plain (s x m) @ cipher (m x k)`` over flat residues.

    Zero entries are skipped.  Returns the flat ``s*k`` product batch and
    its uniform exponent.
    """
    plain = np.asarray(plain, dtype=np.float64)
    rows = _term_rows(public_key, [range(plain.shape[1])] * len(plain), plain)
    return multi_pow(public_key, cts, rows, k), exponent + PLAIN_EXPONENT


def matmul_cipher_plain_flat(
    public_key,
    cts: Sequence[int],
    plain: np.ndarray,
    s: int,
    exponent: int,
) -> tuple[list[int], int]:
    """Dense ``cipher (s x m) @ plain (m x k)`` over flat residues."""
    plain = np.asarray(plain, dtype=np.float64)
    m, k = plain.shape
    columns = _term_rows(public_key, [range(m)] * k, plain.T)
    rows = [
        [(i * m + t, mant) for t, mant in col] for i in range(s) for col in columns
    ]
    return multi_pow(public_key, cts, rows, 1), exponent + PLAIN_EXPONENT


def sparse_matmul_cipher_flat(
    public_key,
    rows: Sequence[tuple[Sequence[int], Sequence[float]]],
    m: int,
    cts: Sequence[int],
    k: int,
    exponent: int,
) -> tuple[list[int], int]:
    """CSR ``plain @ cipher``: cost proportional to nnz mulmods.

    Every batch row multiplying cipher row ``col`` by the same value can
    reuse one powered block — for binary features each touched column then
    costs ``k`` pows total, however many rows hit it.
    """
    terms = _term_rows(public_key, *_csr_entries(rows, m))
    return multi_pow(public_key, cts, terms, k), exponent + PLAIN_EXPONENT


def sparse_t_matmul_flat(
    public_key,
    rows: Sequence[tuple[Sequence[int], Sequence[float]]],
    cts: Sequence[int],
    k: int,
    exponent: int,
    out_rows: int,
    col_to_out: dict[int, int] | None,
) -> tuple[list[int], int]:
    """CSR ``X.T (m x batch) @ cipher (batch x k)`` in O(nnz * k) mulmods.

    All columns of a batch row holding the same value (ubiquitous for
    binary features) can share one powered cipher-row block.
    """
    terms: list[list[tuple[int, int]]] = [[] for _ in range(out_rows)]
    by_batch_row = _term_rows(public_key, *_csr_entries(rows, out_rows, col_to_out))
    for i, row in enumerate(by_batch_row):
        for target, mant in row:
            terms[target].append((i, mant))
    return multi_pow(public_key, cts, terms, k), exponent + PLAIN_EXPONENT


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
    blinders from the key; touched rows keep exactly their inputs'
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
            blinders = public_key.blinding_factors(len(empty) * dim)
            pos = 0
            for r in empty:
                ob = r * dim
                for j in range(dim):
                    out[ob + j] = (out[ob + j] * blinders[pos]) % nsq
                    pos += 1
    return out


def obfuscate_flat(public_key, cts: Sequence[int]) -> list[int]:
    """Re-randomise a batch with fresh blinders from the key."""
    return _blind(public_key, cts)
