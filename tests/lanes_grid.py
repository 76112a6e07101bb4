"""One counted training step per public-shape cell of the lanes gate.

``tests/test_lanes.py`` runs :func:`grid` and compares it with
``tests/data/lanes_parent_counts.json``, the same grid counted at the
commit before Embed-MatMul's two cross products per direction became one
(PR 22, which already had ``[[gZ]]``, ``[[gZ V^T]]`` and the ``V`` pieces
in lanes).  Re-freeze only against that parent::

    PYTHONPATH=<parent checkout>/src python tests/lanes_grid.py

A cell is a source layer, a key size (256 bits: 2 slots, 512: 4, 2048:
17), a refresh mode and the public widths; its record is the layer's slot
count and what one
``forward / backward / apply_updates`` cost — ciphertexts the key owners
decrypted, their CRT modexps, ciphertexts and estimator bytes sent — and
how many times ``pack_rows_flat`` lifted per-element ciphertexts into
lanes (``lifts``) or merged narrow packed rows (``merges``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro.comm.party import VFLConfig, VFLContext
from repro.core.embed_matmul_layer import EmbedMatMulSource
from repro.core.matmul_layer import MatMulSource
from repro.crypto import packing
from repro.obs import Tracer, counter_totals, use_tracer
from repro.tensor.sparse import CSRMatrix

FROZEN_PATH = Path(__file__).parent / "data" / "lanes_parent_counts.json"
FIELDS = (
    "slots", "ct.decrypted", "pow.crt", "cts_sent", "bytes_sent", "lifts", "merges",
    "pack_spans",
)
BATCH = 4


def counted_step(ctx: VFLContext, layer, *batch) -> dict[str, int]:
    """Run one training step of ``layer`` and count it (see module docstring)."""
    strides: list[int] = []
    lift = packing.pack_rows_flat

    def recording(*args, **kwargs):
        strides.append(kwargs.get("stride", 1))
        return lift(*args, **kwargs)

    first, bytes_before = len(ctx.channel.transcript), ctx.channel.total_bytes()
    tracer = Tracer()
    packing.pack_rows_flat = recording
    try:
        with use_tracer(tracer):
            layer.forward(*batch[:-1])
            layer.backward(batch[-1])
            layer.apply_updates(lr=0.05, momentum=0.9)
    finally:
        packing.pack_rows_flat = lift
    tracer.close()
    spans = tracer.to_dicts()
    totals = counter_totals(spans)
    return {
        "slots": layer._pack_layout(ctx.A.public_key).slots,
        "ct.decrypted": totals.get("ct.decrypted", 0),
        "pow.crt": totals.get("pow.crt", 0),
        "cts_sent": sum(
            getattr(m.payload, "n_ciphertexts", 0) for m in ctx.channel.transcript[first:]
        ),
        "bytes_sent": ctx.channel.total_bytes() - bytes_before,
        "lifts": strides.count(1),
        "merges": len(strides) - strides.count(1),
        "pack_spans": sum(sp["phase"] == "pack" for sp in spans),
    }


def matmul_cell(ctx, rng, out_dim: int, sparse: bool) -> dict[str, int]:
    layer = MatMulSource(ctx, 5, 3, out_dim, name=f"m{out_dim}{int(sparse)}")
    x_a = rng.normal(size=(BATCH, 5)) * (rng.random((BATCH, 5)) < 0.5)
    x_a[:, 0] = 0.0  # a column outside the batch's support
    x_b = rng.normal(size=(BATCH, 3))
    grad = rng.normal(size=(BATCH, out_dim)) * 0.1
    return counted_step(ctx, layer, CSRMatrix.from_dense(x_a) if sparse else x_a, x_b, grad)


def embed_cell(ctx, rng, out_dim: int, emb_dim: int) -> dict[str, int]:
    layer = EmbedMatMulSource(
        ctx, [4, 3], [5, 2], emb_dim=emb_dim, out_dim=out_dim, name=f"e{out_dim}{emb_dim}"
    )
    x_a = rng.integers(0, [4, 3], size=(BATCH, 2))
    x_b = rng.integers(0, [5, 2], size=(BATCH, 2))
    return counted_step(ctx, layer, x_a, x_b, rng.normal(size=(BATCH, out_dim)) * 0.1)


def grid(key_bits=(256, 512), out_dims=(1, 2, 3, 4), emb_dims=(2, 3, 4)) -> dict[str, dict]:
    """``{cell name: counts}`` over the whole packed public-shape grid."""
    cells = {}
    for bits in key_bits:
        for refresh in ("reencrypt", "delta"):
            ctx = VFLContext(
                VFLConfig(key_bits=bits, packing=True, share_refresh=refresh), seed=5
            )
            rng = np.random.default_rng(1)
            for out_dim in out_dims:
                for sparse in (False, True):
                    name = f"matmul/{bits}/{refresh}/{'csr' if sparse else 'dense'}/O{out_dim}"
                    cells[name] = matmul_cell(ctx, rng, out_dim, sparse)
                for emb_dim in emb_dims:
                    name = f"embed/{bits}/{refresh}/O{out_dim}/E{emb_dim}"
                    cells[name] = embed_cell(ctx, rng, out_dim, emb_dim)
    return cells


def bigkey_grid() -> dict[str, dict]:
    """The narrow-output cells at the paper's key size: 17 slots, widths of 4."""
    return grid(key_bits=(2048,), out_dims=(4,), emb_dims=(4,))


def frozen() -> dict[str, dict]:
    """The parent's recorded counts, keyed like :func:`grid`."""
    doc = json.loads(FROZEN_PATH.read_text())
    return {name: dict(zip(doc["fields"], row)) for name, row in doc["cells"].items()}


if __name__ == "__main__":
    rows = ",\n".join(
        f'  "{name}": {json.dumps([counts[f] for f in FIELDS])}'
        for name, counts in {**grid(), **bigkey_grid()}.items()
    )
    FROZEN_PATH.write_text(
        f'{{\n "fields": {json.dumps(list(FIELDS))},\n "cells": {{\n{rows}\n }}\n}}\n'
    )
    print(f"wrote {FROZEN_PATH}", file=sys.stderr)
