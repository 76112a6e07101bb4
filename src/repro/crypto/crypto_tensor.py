"""CryptoTensor: batched operations over tensors of Paillier ciphertexts.

The paper's implementation section (§7.1) introduces "an abstraction called
CryptoTensor, which supports fruitful primitives for both dense and sparse
computation of encrypted tensors such as matrix multiplication and scatter
addition", backed by a multi-threaded GMP kernel library.  This module is
that abstraction: a :class:`CryptoTensor` holds what the kernels consume —
an object-dtype array of raw residues mod ``n**2`` plus an ``int64`` array
of per-element fixed-point exponents of the same shape — and every
primitive runs in :mod:`repro.crypto.kernels` on flat ``list[int]``
batches:

* lowering a tensor is ``ravel().tolist()`` on its two arrays and raising a
  kernel result is one slice assignment; slicing, reshaping, transposing
  and stacking move both arrays together.  No per-ciphertext wrapper object
  exists: an :class:`EncryptedNumber` is built only when a *scalar* element
  is indexed out of a tensor;
* matmuls deduplicate modular exponentiations by distinct plaintext value
  (the kernel's raw-mul cache), so binary/categorical features cost one
  ``pow`` per ciphertext element instead of one per nonzero — the sparsity
  speed-up BlindFL's Table 5 is about, compounded;
* obfuscation draws ``r^n`` blinders from the public key's precomputed
  pool (see ``PaillierPublicKey.prefill_blinding``);
* exponentiation-heavy kernels shard across a
  :class:`~repro.crypto.parallel.ParallelContext` when one is passed in
  (or installed as the process default) — the multicore execution engine.

Plaintext operands may be dense numpy arrays or any object exposing
``iter_rows() -> (col_indices, values)`` per row (our CSR matrices), so
sparse datasets never materialise their zeros.

The row/shape surface — ``public_key / shape / size / n_ciphertexts``,
``take_rows``, ``set_rows``, ``reshape``, ``add_plain``,
``scatter_add_rows``, ``decrypt``, ``obfuscate``, ``rmatmul`` (``plain @
tensor``), ``t_rmatmul`` (``plain.T @ tensor``), ``to_wire / from_wire`` —
is shared with
:class:`~repro.crypto.packing.PackedCryptoTensor`, so protocol layers hold
"an encrypted tensor" whose packed/unpacked difference is its layout, not
a class they test for.

The pre-kernel, per-``EncryptedNumber`` implementations are kept as
``legacy_*`` functions: they are the reference the equivalence tests pin
the kernels against and the baseline the benchmark suite measures speedups
over.  They read and build tensors through one bridge (``_reference_grid``
/ ``_from_reference_grid``); new code should never call them.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.crypto import kernels
from repro.crypto.encoding import EncodedNumber
from repro.crypto.kernels import PLAIN_EXPONENT, TENSOR_EXPONENT
from repro.crypto.paillier import EncryptedNumber, PaillierPrivateKey, PaillierPublicKey
from repro.crypto.parallel import ParallelContext

__all__ = [
    "CryptoTensor",
    "TENSOR_EXPONENT",
    "PLAIN_EXPONENT",
    "matmul_plain_cipher",
    "matmul_cipher_plain",
    "sparse_matmul_cipher",
    "sparse_t_matmul_cipher",
    "legacy_encrypt",
    "legacy_matmul_plain_cipher",
    "legacy_matmul_cipher_plain",
    "legacy_matmul_sparse_cipher",
    "legacy_sparse_t_matmul_cipher",
    "legacy_scatter_add_rows",
    "legacy_obfuscate",
]


def _checked_rows(indices: object, n_rows: int) -> np.ndarray:
    """Row ids as an int array, every one inside ``[0, n_rows)``."""
    indices = np.asarray(indices, dtype=int)
    if indices.size and (indices.min() < 0 or indices.max() >= n_rows):
        raise IndexError("row index out of range")
    return indices


class CryptoTensor:
    """A 1-D or 2-D tensor of Paillier ciphertexts, one per element.

    ``residues`` is an object-dtype array of raw ciphertexts mod ``n**2``
    and ``exponents`` an ``int64`` array of the same shape holding each
    element's fixed-point exponent (uniform after any kernel that aligns,
    ragged after the mul-by-one shortcut or mixed adds).
    """

    # Make numpy defer all mixed operations to our reflected methods.
    __array_ufunc__ = None
    __array_priority__ = 1000

    __slots__ = ("public_key", "residues", "exponents")

    def __init__(
        self, public_key: PaillierPublicKey, residues: np.ndarray, exponents: np.ndarray
    ):
        if residues.dtype != object:
            raise TypeError("CryptoTensor holds an object-dtype array of residues")
        if exponents.dtype != np.int64 or exponents.shape != residues.shape:
            raise TypeError("exponents must be an int64 array shaped like the residues")
        self.public_key = public_key
        self.residues = residues
        self.exponents = exponents

    # -- lowering / raising ---------------------------------------------------

    def _flat(self) -> tuple[list[int], list[int]]:
        """Lower to the kernels' flat row-major ``(ciphertexts, exponents)``."""
        return self.residues.ravel().tolist(), self.exponents.ravel().tolist()

    def _aligned(self) -> tuple[list[int], int]:
        """Flat ciphertexts at the tensor's finest common exponent."""
        return kernels.align_flat(self.public_key, *self._flat())

    @classmethod
    def _from_flat(
        cls,
        public_key: PaillierPublicKey,
        cts: list[int],
        exponents: int | list[int],
        shape: tuple[int, ...],
    ) -> "CryptoTensor":
        """Raise a flat kernel batch (one exponent, or one per element)."""
        residues = np.empty(len(cts), dtype=object)
        residues[:] = cts
        exps = np.empty(len(cts), dtype=np.int64)
        exps[:] = exponents
        return cls(public_key, residues.reshape(shape), exps.reshape(shape))

    # -- construction ---------------------------------------------------------

    @classmethod
    def encrypt(
        cls,
        public_key: PaillierPublicKey,
        array: np.ndarray,
        exponent: int = TENSOR_EXPONENT,
        obfuscate: bool = True,
        parallel: ParallelContext | None = None,
    ) -> "CryptoTensor":
        """Encrypt a float array elementwise at a uniform exponent."""
        array = np.asarray(array, dtype=np.float64)
        cts = kernels.encrypt_flat(
            public_key, array.ravel(), exponent, obfuscate=obfuscate, parallel=parallel
        )
        return cls._from_flat(public_key, cts, exponent, array.shape)

    @classmethod
    def zeros(
        cls,
        public_key: PaillierPublicKey,
        shape: tuple[int, ...],
        exponent: int = TENSOR_EXPONENT,
    ) -> "CryptoTensor":
        """Unobfuscated encryptions of zero (cheap accumulator seeds)."""
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return cls._from_flat(public_key, [1] * size, exponent, shape)

    def decrypt(
        self,
        private_key: PaillierPrivateKey,
        parallel: ParallelContext | None = None,
    ) -> np.ndarray:
        """Decrypt elementwise back to float64 (batched CRT kernel).

        With a :class:`~repro.crypto.parallel.ParallelContext` configured
        (explicitly or as the process default), the CRT exponentiations
        shard across the key owner's private worker tier, bit-identically.
        """
        if private_key.public_key != self.public_key:
            raise ValueError("ciphertext was encrypted under a different key")
        cts, exps = self._flat()
        return kernels.decrypt_flat(private_key, cts, exps, parallel).reshape(self.shape)

    # -- shape plumbing --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.residues.shape

    @property
    def ndim(self) -> int:
        return self.residues.ndim

    @property
    def size(self) -> int:
        return self.residues.size

    @property
    def n_ciphertexts(self) -> int:
        """Ciphertexts on the wire: one per element."""
        return self.residues.size

    @property
    def T(self) -> "CryptoTensor":
        return CryptoTensor(self.public_key, self.residues.T, self.exponents.T)

    def reshape(self, *shape: int) -> "CryptoTensor":
        return CryptoTensor(
            self.public_key, self.residues.reshape(*shape), self.exponents.reshape(*shape)
        )

    def __getitem__(self, key: object) -> "CryptoTensor | EncryptedNumber":
        item = self.residues[key]
        if isinstance(item, np.ndarray):
            return CryptoTensor(self.public_key, item, self.exponents[key])
        return EncryptedNumber(self.public_key, item, int(self.exponents[key]))

    def take_rows(self, indices: np.ndarray) -> "CryptoTensor":
        """Encrypted-table lookup: gather rows by plaintext indices."""
        if self.ndim != 2:
            raise ValueError("take_rows needs a 2-D tensor")
        rows = _checked_rows(indices, self.shape[0])
        return CryptoTensor(self.public_key, self.residues[rows], self.exponents[rows])

    def set_rows(self, indices: np.ndarray, fresh: "CryptoTensor") -> None:
        """Replace rows in place (the delta-refresh path)."""
        if not isinstance(fresh, CryptoTensor):
            raise TypeError("a per-element tensor takes per-element replacement rows")
        if self.ndim != 2 or fresh.ndim != 2:
            raise ValueError("set_rows needs 2-D tensors")
        if fresh.shape[1] != self.shape[1]:
            raise ValueError("row replacement requires rows of the same width")
        if fresh.public_key != self.public_key:
            raise ValueError("cannot mix ciphertexts under different keys")
        rows = _checked_rows(indices, self.shape[0])
        if rows.shape[0] != fresh.shape[0]:
            raise ValueError("one replacement row per index required")
        self.residues[rows] = fresh.residues
        self.exponents[rows] = fresh.exponents

    # -- elementwise arithmetic -----------------------------------------------

    def _binary(self, other: object, op: str) -> "CryptoTensor":
        pk = self.public_key
        cts, exps = self._flat()
        if isinstance(other, CryptoTensor):  # add or sub: __mul__ refuses these
            if other.public_key != pk:
                raise ValueError("cannot add ciphertexts under different keys")
            if other.shape != self.shape:
                raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
            kernel = kernels.add_cipher_flat if op == "add" else kernels.sub_cipher_flat
            out, oexps = kernel(pk, cts, exps, *other._flat())
        else:
            values = np.broadcast_to(np.asarray(other, dtype=np.float64), self.shape).ravel()
            if op == "mul":
                out, oexps = kernels.mul_plain_flat(pk, cts, exps, values)
            else:
                out, oexps = kernels.add_plain_flat(
                    pk, cts, exps, values if op == "add" else -values
                )
        return CryptoTensor._from_flat(pk, out, oexps, self.shape)

    def add_plain(
        self,
        values: np.ndarray,
        encode_exponent: int,
        obfuscate: bool = False,
        parallel: ParallelContext | None = None,
    ) -> "CryptoTensor":
        """``cipher + Enc(values)`` with the addend encoded at ``encode_exponent``.

        Decodes exactly like ``self + CryptoTensor.encrypt(values,
        encode_exponent)`` — the HE2SS mask path — but where an element of
        ``self`` is finer than ``encode_exponent`` the addend's *plaintext*
        mantissa is lifted onto it before encryption (what the packed
        ``add_plain`` does), instead of raising its fresh ciphertext to
        ``2**gap`` afterwards.  An element coarser than the addend is
        aligned homomorphically, as ``+`` would.
        """
        pk = self.public_key
        values = np.broadcast_to(np.asarray(values, dtype=np.float64), self.shape)
        cts, exps = self._flat()
        lift = [max(encode_exponent - e, 0) for e in exps]
        fresh = kernels.encrypt_flat(
            pk, values.ravel(), encode_exponent, obfuscate=obfuscate,
            parallel=parallel, lift=lift,
        )
        out, oexps = kernels.add_cipher_flat(
            pk, cts, exps, fresh, [encode_exponent - up for up in lift]
        )
        return CryptoTensor._from_flat(pk, out, oexps, self.shape)

    def __add__(self, other: object) -> "CryptoTensor":
        return self._binary(other, "add")

    __radd__ = __add__

    def __sub__(self, other: object) -> "CryptoTensor":
        return self._binary(other, "sub")

    def __rsub__(self, other: object) -> "CryptoTensor":
        return (-self) + other

    def __neg__(self) -> "CryptoTensor":
        return self * -1.0

    def __mul__(self, other: object) -> "CryptoTensor":
        if isinstance(other, CryptoTensor):
            raise TypeError("cannot multiply two ciphertext tensors under Paillier")
        return self._binary(other, "mul")

    __rmul__ = __mul__

    # -- matrix products --------------------------------------------------------

    def __matmul__(self, plain: object) -> "CryptoTensor":
        """``cipher @ plain`` — e.g. ``[[grad_Z]] @ U.T`` in Embed-MatMul."""
        return matmul_cipher_plain(self, np.asarray(plain, dtype=np.float64))

    def rmatmul(
        self, plain: object, parallel: ParallelContext | None = None
    ) -> "CryptoTensor":
        """``plain @ cipher`` for a dense or CSR ``plain`` — e.g. ``X_A @
        [[V_A]]`` in MatMul forward; the ``@`` operator with ``parallel``."""
        if hasattr(plain, "iter_rows"):
            return sparse_matmul_cipher(plain, self, parallel)
        return matmul_plain_cipher(np.asarray(plain, dtype=np.float64), self, parallel)

    __rmatmul__ = rmatmul

    def t_rmatmul(
        self,
        plain: object,
        columns: np.ndarray | None = None,
        parallel: ParallelContext | None = None,
    ) -> "CryptoTensor":
        """``plain.T @ cipher`` for a dense or CSR ``plain`` — the ``X.T @
        [[grad_Z]]`` of backprop; ``columns`` keeps only those rows of the
        result (the delta refresh's touched coordinates)."""
        if hasattr(plain, "iter_rows"):
            return sparse_t_matmul_cipher(plain, self, columns=columns, parallel=parallel)
        if columns is not None:
            plain = np.asarray(plain)[:, columns]
        return matmul_plain_cipher(np.asarray(plain, dtype=np.float64).T, self, parallel)

    def scatter_add_rows(
        self,
        indices: np.ndarray,
        num_rows: int,
        parallel: ParallelContext | None = None,
        obfuscate_empty: bool = True,
    ) -> "CryptoTensor":
        """Encrypted ``lkup_bw``: scatter batch rows into a table.

        ``self`` is a (batch, dim) ciphertext tensor and ``indices`` the
        plaintext row ids; the result is a (num_rows, dim) tensor whose row
        ``r`` is the homomorphic sum of all batch rows with index ``r``.
        Rows no batch row landed on are *blinded* encryptions of zero —
        never the raw residue ``1``, which would advertise exactly which
        table rows the private indices missed (``obfuscate_empty=False``
        is for in-process reference comparisons only).
        """
        if self.ndim != 2:
            raise ValueError("scatter_add_rows needs a 2-D tensor")
        indices = _checked_rows(indices, num_rows)
        if indices.shape[0] != self.shape[0]:
            raise ValueError("one index per batch row required")
        dim = self.shape[1]
        pk = self.public_key
        acts, exp = self._aligned()
        out = kernels.scatter_add_flat(
            pk, acts, indices.tolist(), num_rows, dim,
            parallel=parallel, obfuscate_empty=obfuscate_empty,
        )
        return CryptoTensor._from_flat(pk, out, exp, (num_rows, dim))

    def obfuscate(self, parallel: ParallelContext | None = None) -> "CryptoTensor":
        """Re-randomise every ciphertext (used before leaving the party)."""
        cts, exps = self._flat()
        out = kernels.obfuscate_flat(self.public_key, cts, parallel=parallel)
        return CryptoTensor._from_flat(self.public_key, out, exps, self.shape)

    def pack(
        self,
        layout: object,
        value_bits: int | None = None,
        parallel: ParallelContext | None = None,
        contiguous: bool = False,
    ) -> "object":
        """Pack ``slots`` values per ciphertext (see :mod:`repro.crypto.packing`).

        The homomorphic rotate/scatter kernel shifts each element into its
        lane, cutting ciphertext count and wire bytes by the layout's slot
        factor; decryption of the packed tensor decodes bit-identically.
        ``contiguous=True`` packs one dense row-major lane stream
        (transfer-only tensors; no row ops afterwards).
        """
        from repro.crypto.packing import PackedCryptoTensor

        return PackedCryptoTensor.pack(
            self, layout, value_bits=value_bits, parallel=parallel,
            contiguous=contiguous,
        )

    # -- wire format ----------------------------------------------------------

    def to_wire(self) -> tuple[tuple[int, ...], list[int], int | list[int]]:
        """``(shape, ciphertexts, exponents)`` for the wire codec.

        Exponents collapse to a single int when uniform (the overwhelmingly
        common case — kernels emit aligned batches), so the wire header
        stays O(1) instead of O(size).
        """
        cts, exps = self._flat()
        first = exps[0] if exps else TENSOR_EXPONENT
        uniform = all(e == first for e in exps)
        return self.shape, cts, (first if uniform else exps)

    @classmethod
    def from_wire(
        cls,
        public_key: PaillierPublicKey,
        shape: tuple[int, ...],
        cts: list[int],
        exponents: int | list[int],
    ) -> "CryptoTensor":
        """Rebuild a tensor from wire fields (inverse of :meth:`to_wire`)."""
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if len(cts) != size:
            raise ValueError(
                f"wire tensor carries {len(cts)} ciphertexts for shape {shape}"
            )
        if not isinstance(exponents, int) and len(exponents) != size:
            raise ValueError("wire tensor exponent count does not match its shape")
        return cls._from_flat(public_key, cts, exponents, tuple(shape))

    @staticmethod
    def vstack(tensors: Iterable["CryptoTensor"]) -> "CryptoTensor":
        return _stacked(np.vstack, tensors)

    @staticmethod
    def hstack(tensors: Iterable["CryptoTensor"]) -> "CryptoTensor":
        return _stacked(np.hstack, tensors)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CryptoTensor(shape={self.shape})"


def _stacked(stack, tensors: Iterable[CryptoTensor]) -> CryptoTensor:
    tensors = list(tensors)
    return CryptoTensor(
        tensors[0].public_key,
        stack([t.residues for t in tensors]),
        stack([t.exponents for t in tensors]),
    )


# ---------------------------------------------------------------------------
# Kernel-backed matrix products on per-element tensors.  The explicit
# functions exist so protocol code can thread a ParallelContext; code that
# may hold either tensor class goes through ``tensor.rmatmul``.


def _require_per_element(ct: object) -> None:
    if not isinstance(ct, CryptoTensor):
        raise TypeError(
            f"expected a per-element CryptoTensor, got {type(ct).__name__}; "
            f"tensor.rmatmul(plain) multiplies either tensor class"
        )


def matmul_plain_cipher(
    plain: np.ndarray, ct: CryptoTensor, parallel: ParallelContext | None = None
) -> CryptoTensor:
    """Dense ``plain (s x m) @ cipher (m x k)`` with zero-skipping."""
    _require_per_element(ct)
    plain = np.atleast_2d(np.asarray(plain, dtype=np.float64))
    s, m = plain.shape
    m2, k = ct.shape if ct.ndim == 2 else (ct.size, 1)
    if m != m2:
        raise ValueError(f"matmul shape mismatch: ({s},{m}) @ ({m2},{k})")
    pk = ct.public_key
    cts, exp = ct._aligned()
    out, oexp = kernels.matmul_plain_cipher_flat(pk, plain, cts, k, exp, parallel)
    return CryptoTensor._from_flat(pk, out, oexp, (s, k))


def matmul_cipher_plain(
    ct: CryptoTensor, plain: np.ndarray, parallel: ParallelContext | None = None
) -> CryptoTensor:
    """Dense ``cipher (s x m) @ plain (m x k)`` with zero-skipping."""
    s, m = ct.shape if ct.ndim == 2 else (1, ct.size)
    plain = np.atleast_2d(np.asarray(plain, dtype=np.float64))
    m2, k = plain.shape
    if m != m2:
        raise ValueError(f"matmul shape mismatch: ({s},{m}) @ ({m2},{k})")
    pk = ct.public_key
    cts, exp = ct._aligned()
    out, oexp = kernels.matmul_cipher_plain_flat(pk, cts, plain, s, exp, parallel)
    return CryptoTensor._from_flat(pk, out, oexp, (s, k))


def sparse_matmul_cipher(
    sparse: object, ct: CryptoTensor, parallel: ParallelContext | None = None
) -> CryptoTensor:
    """CSR ``plain @ cipher``: cost proportional to nnz, never touches zeros."""
    _require_per_element(ct)
    m2, k = ct.shape if ct.ndim == 2 else (ct.size, 1)
    pk = ct.public_key
    rows = list(sparse.iter_rows())
    cts, exp = ct._aligned()
    out, oexp = kernels.sparse_matmul_cipher_flat(pk, rows, m2, cts, k, exp, parallel)
    return CryptoTensor._from_flat(pk, out, oexp, (len(rows), k))


def sparse_t_matmul_cipher(
    sparse: object,
    ct: CryptoTensor,
    columns: np.ndarray | None = None,
    parallel: ParallelContext | None = None,
) -> CryptoTensor:
    """``sparse.T @ cipher`` in O(nnz * k) — the X^T [[grad_Z]] of backprop.

    ``sparse`` is (batch, m) CSR, ``ct`` is (batch, k) ciphertext; the result
    is (m, k).  With ``columns`` given (sorted unique column ids), only those
    rows of the result are produced, shaped (len(columns), k) — the
    sparse-aware "touched coordinates" path of the delta refresh mode.
    """
    batch, k = ct.shape if ct.ndim == 2 else (ct.size, 1)
    n_rows, m = sparse.shape
    if n_rows != batch:
        raise ValueError(f"t_matmul shape mismatch: {sparse.shape}.T @ ({batch},{k})")
    pk = ct.public_key
    if columns is None:
        out_rows = m
        col_to_out = None
    else:
        columns = np.asarray(columns, dtype=np.int64)
        out_rows = columns.shape[0]
        col_to_out = {int(c): i for i, c in enumerate(columns)}
    rows = list(sparse.iter_rows())
    cts, exp = ct._aligned()
    out, oexp = kernels.sparse_t_matmul_flat(
        pk, rows, cts, k, exp, out_rows, col_to_out, parallel
    )
    return CryptoTensor._from_flat(pk, out, oexp, (out_rows, k))


# ---------------------------------------------------------------------------
# Legacy object-path reference implementations.
#
# These are the pre-kernel per-EncryptedNumber loops, kept verbatim for two
# reasons: the equivalence tests assert the kernels decrypt to the same
# arrays, and the benchmark suite measures kernel speedups against them.
# They are not used by any protocol code.  The two functions below are the
# one bridge between the residue tensor and the EncryptedNumber grids these
# loops work on.


def _reference_grid(ct: CryptoTensor, column: bool = True) -> np.ndarray:
    """The tensor as a 2-D ``EncryptedNumber`` grid (1-D: a column, or a row)."""
    flat = np.empty(ct.size, dtype=object)
    for i, (c, e) in enumerate(zip(*ct._flat())):
        flat[i] = EncryptedNumber(ct.public_key, c, e)
    if ct.ndim == 2:
        return flat.reshape(ct.shape)
    return flat.reshape(-1, 1) if column else flat.reshape(1, -1)


def _from_reference_grid(
    public_key: PaillierPublicKey, grid: np.ndarray, shape: tuple[int, ...] | None = None
) -> CryptoTensor:
    """An ``EncryptedNumber`` grid back as a tensor (of ``shape``, if given)."""
    flat = grid.ravel()
    return CryptoTensor._from_flat(
        public_key,
        [enc.ciphertext for enc in flat],
        [enc.exponent for enc in flat],
        grid.shape if shape is None else shape,
    )


def _common_exponent(data: np.ndarray) -> int:
    return min(enc.exponent for enc in data.ravel())


def _encode_matrix(pk: PaillierPublicKey, arr: np.ndarray) -> np.ndarray:
    """Pre-encode a plaintext matrix once so products reuse the encodings."""
    flat = arr.ravel()
    out = np.empty(flat.shape[0], dtype=object)
    for i, value in enumerate(flat):
        out[i] = EncodedNumber.encode(pk, float(value), exponent=PLAIN_EXPONENT)
    return out.reshape(arr.shape)


def legacy_encrypt(
    public_key: PaillierPublicKey,
    array: np.ndarray,
    exponent: int = TENSOR_EXPONENT,
    obfuscate: bool = True,
) -> CryptoTensor:
    """Per-element object-path encryption (reference/benchmark baseline)."""
    array = np.asarray(array, dtype=np.float64)
    flat = array.ravel()
    out = np.empty(flat.shape[0], dtype=object)
    for i, value in enumerate(flat):
        out[i] = public_key.encrypt(float(value), exponent=exponent, obfuscate=obfuscate)
    return _from_reference_grid(public_key, out, array.shape)


def legacy_matmul_plain_cipher(plain: np.ndarray, ct: CryptoTensor) -> CryptoTensor:
    """Dense ``plain (s x m) @ cipher (m x k)`` via EncryptedNumber ops."""
    plain = np.atleast_2d(plain)
    cdata = _reference_grid(ct)
    s, m = plain.shape
    m2, k = cdata.shape
    if m != m2:
        raise ValueError(f"matmul shape mismatch: ({s},{m}) @ ({m2},{k})")
    pk = ct.public_key
    prod_exp = _common_exponent(cdata) + PLAIN_EXPONENT
    encoded = _encode_matrix(pk, plain)
    out = np.empty((s, k), dtype=object)
    for i in range(s):
        row = plain[i]
        nz = np.nonzero(row)[0]
        for j in range(k):
            acc = pk.encrypt_zero(prod_exp)
            for t in nz:
                acc = acc + (cdata[t, j] * encoded[i, t])
            out[i, j] = acc
    return _from_reference_grid(pk, out)


def legacy_matmul_sparse_cipher(sparse: object, ct: CryptoTensor) -> CryptoTensor:
    """CSR ``plain @ cipher`` via EncryptedNumber ops."""
    cdata = _reference_grid(ct)
    m2, k = cdata.shape
    pk = ct.public_key
    prod_exp = _common_exponent(cdata) + PLAIN_EXPONENT
    rows = list(sparse.iter_rows())
    out = np.empty((len(rows), k), dtype=object)
    for i, (cols, vals) in enumerate(rows):
        encoded_vals = [
            EncodedNumber.encode(pk, float(v), exponent=PLAIN_EXPONENT) for v in vals
        ]
        for j in range(k):
            acc = pk.encrypt_zero(prod_exp)
            for col, enc_val in zip(cols, encoded_vals):
                if col >= m2:
                    raise IndexError("sparse column index out of range")
                acc = acc + (cdata[col, j] * enc_val)
            out[i, j] = acc
    return _from_reference_grid(pk, out)


def legacy_sparse_t_matmul_cipher(
    sparse: object, ct: CryptoTensor, columns: np.ndarray | None = None
) -> CryptoTensor:
    """``sparse.T @ cipher`` via EncryptedNumber ops."""
    cdata = _reference_grid(ct)
    batch, k = cdata.shape
    n_rows, m = sparse.shape
    if n_rows != batch:
        raise ValueError(f"t_matmul shape mismatch: {sparse.shape}.T @ ({batch},{k})")
    pk = ct.public_key
    prod_exp = _common_exponent(cdata) + PLAIN_EXPONENT
    if columns is None:
        out_rows = m
        col_to_out = None
    else:
        columns = np.asarray(columns, dtype=np.int64)
        out_rows = columns.shape[0]
        col_to_out = {int(c): i for i, c in enumerate(columns)}
    out = np.empty((out_rows, k), dtype=object)
    for i in range(out_rows):
        for j in range(k):
            out[i, j] = pk.encrypt_zero(prod_exp)
    for i, (cols, vals) in enumerate(sparse.iter_rows()):
        for col, val in zip(cols, vals):
            if col_to_out is None:
                target = int(col)
            elif int(col) in col_to_out:
                target = col_to_out[int(col)]
            else:
                raise IndexError("batch touches a column outside `columns`")
            encoded = EncodedNumber.encode(pk, float(val), exponent=PLAIN_EXPONENT)
            for j in range(k):
                out[target, j] = out[target, j] + (cdata[i, j] * encoded)
    return _from_reference_grid(pk, out)


def legacy_matmul_cipher_plain(ct: CryptoTensor, plain: np.ndarray) -> CryptoTensor:
    """Dense ``cipher (s x m) @ plain (m x k)`` via EncryptedNumber ops."""
    cdata = _reference_grid(ct, column=False)
    plain = np.atleast_2d(plain)
    s, m = cdata.shape
    m2, k = plain.shape
    if m != m2:
        raise ValueError(f"matmul shape mismatch: ({s},{m}) @ ({m2},{k})")
    pk = ct.public_key
    prod_exp = _common_exponent(cdata) + PLAIN_EXPONENT
    encoded = _encode_matrix(pk, plain)
    out = np.empty((s, k), dtype=object)
    for j in range(k):
        nz = np.nonzero(plain[:, j])[0]
        for i in range(s):
            acc = pk.encrypt_zero(prod_exp)
            for t in nz:
                acc = acc + (cdata[i, t] * encoded[t, j])
            out[i, j] = acc
    return _from_reference_grid(pk, out)


def legacy_scatter_add_rows(
    ct: CryptoTensor, indices: np.ndarray, num_rows: int
) -> CryptoTensor:
    """Encrypted ``lkup_bw`` via EncryptedNumber ops."""
    if ct.ndim != 2:
        raise ValueError("scatter_add_rows needs a 2-D tensor")
    indices = _checked_rows(indices, num_rows)
    if indices.shape[0] != ct.shape[0]:
        raise ValueError("one index per batch row required")
    dim = ct.shape[1]
    cdata = _reference_grid(ct)
    exponent = _common_exponent(cdata)
    pk = ct.public_key
    out = np.empty((num_rows, dim), dtype=object)
    for i in range(num_rows):
        for j in range(dim):
            out[i, j] = pk.encrypt_zero(exponent)
    for batch_row, table_row in enumerate(indices):
        for j in range(dim):
            out[table_row, j] = out[table_row, j] + cdata[batch_row, j]
    return _from_reference_grid(pk, out)


def legacy_obfuscate(ct: CryptoTensor) -> CryptoTensor:
    """Per-element re-randomisation via EncryptedNumber ops."""
    flat = _reference_grid(ct).ravel()
    out = np.empty(flat.shape[0], dtype=object)
    for i, enc in enumerate(flat):
        out[i] = enc.obfuscate()
    return _from_reference_grid(ct.public_key, out, ct.shape)
