"""Freeze ``kernel_golden.json`` from the per-ciphertext object path.

The golden vectors of ``tests/test_kernels_equivalence.py`` are the
``(residues, exponents)`` the pre-kernel reference produced: one
``EncryptedNumber`` operator call per element, through the ``legacy_*``
functions of ``repro.crypto.crypto_tensor``.  Those functions were deleted
after this file was written, so the script runs only against a tree that
still ships them (commit ea96e8e), with this tree's ``tests/`` on the path
for the case operands::

    git archive ea96e8e | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src:tests python tests/data/kernel_golden_freeze.py

It is kept as the provenance of the frozen file, not re-run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.crypto.crypto_tensor import (
    legacy_encrypt,
    legacy_matmul_cipher_plain,
    legacy_matmul_plain_cipher,
    legacy_matmul_sparse_cipher,
    legacy_obfuscate,
    legacy_scatter_add_rows,
    legacy_sparse_t_matmul_cipher,
)

import test_kernels_equivalence as suite

OUT = Path(__file__).resolve().parent / "kernel_golden.json"
COMMAND = "PYTHONPATH=/tmp/parent/src:tests python tests/data/kernel_golden_freeze.py"


def _legacy_pack(ct, layout):
    """``pack_rows_flat`` on the object path: per output, the sum of its
    lane-shifted elements, as ``(ciphertexts, exponents)``."""
    rows, cols = np.atleast_2d(ct.residues).shape
    ct = ct.reshape(rows, cols)
    out = []
    for r in range(rows):
        for start in range(0, cols, layout.slots):
            acc = ct[r, start]  # scalar access: an EncryptedNumber
            for j in range(1, min(layout.slots, cols - start)):
                acc = acc + ct[r, start + j] * (1 << (layout.slot_bits * j))
            out.append(acc)
    return [a.ciphertext for a in out], [a.exponent for a in out]


def _flat(tensor):
    return tensor.residues.ravel().tolist(), tensor.exponents.ravel().tolist()


def _reference(case: str, pk) -> tuple[list[int], list[int]]:
    """One case on the object path (fresh operands from ``suite.CASES``)."""
    if case.endswith("_blinded"):
        case = case[: -len("_blinded")]
        args = suite.blinded_inputs(case, pk)
    else:
        args = suite.CASES[case](pk)
    if case in ("encrypt", "encrypt_obfuscated"):
        return _flat(legacy_encrypt(pk, args[0], obfuscate=case != "encrypt"))
    if case == "matmul_plain_cipher":
        return _flat(legacy_matmul_plain_cipher(*args))
    if case == "matmul_cipher_plain":
        return _flat(legacy_matmul_cipher_plain(*args))
    if case == "sparse_matmul":
        return _flat(legacy_matmul_sparse_cipher(*args))
    if case == "sparse_t_matmul":
        return _flat(legacy_sparse_t_matmul_cipher(*args))
    if case == "sparse_t_matmul_columns":
        x, enc_g, cols = args
        return _flat(legacy_sparse_t_matmul_cipher(x, enc_g, columns=cols))
    if case == "pack_rows":
        return _legacy_pack(*args)
    if case in ("packed_matmul_dense", "packed_matmul_sparse"):
        dense, sparse, enc_v, _, layout = args
        if case == "packed_matmul_dense":
            return _legacy_pack(legacy_matmul_plain_cipher(dense, enc_v), layout)
        return _legacy_pack(legacy_matmul_sparse_cipher(sparse, enc_v), layout)
    if case == "scatter_add":
        enc, idx, _ = args
        return _flat(legacy_scatter_add_rows(enc, idx, 4))
    if case == "obfuscate":
        return _flat(legacy_obfuscate(args[0]))
    raise KeyError(case)


def main() -> int:
    cases = {}
    for case in [*suite.CASES, *(f"{case}_blinded" for case in suite.PRODUCTS)]:
        for bits in suite.KEY_BITS:
            if case == "encrypt_obfuscated":
                if bits != suite.OBFUSCATED_BITS:
                    continue
                pk, _ = suite.keypair(bits, suite.OBFUSCATED_SEED)
            else:
                pk, _ = suite.keypair(bits)  # a fresh key per case: its own rng
            residues, exponents = _reference(case, pk)
            cases[f"{case}/{bits}"] = {
                "residues": [format(int(r), "x") for r in residues],
                "exponents": [int(e) for e in exponents],
            }
    parent = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    header = {
        "what": "object-path (legacy_*) residues and exponents per kernel case",
        "generated_at": parent,
        "command": COMMAND,
    }
    OUT.write_text(json.dumps({"header": header, "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
