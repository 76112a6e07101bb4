"""Embed-MatMul checkpoints written by the commit before the cross operand.

``tests/data/embed_parent_{unpacked,packed}.ckpt`` hold a tiny WDL after
two batches, saved by the parent of the change that stacked each end's
``[[V_own]]`` and ``[[U_peer]]`` into one cross operand (PR 22; they were
re-created against it, which left the unpacked file as it was and put the
``([[V]], [[V^T]])`` pair of PR 21 into the packed one).  Their
Embed-MatMul section holds ``[[U]]`` and ``[[V]]`` as separate pieces, so
both must be refused by name.  Re-create them only against that parent::

    PYTHONPATH=<parent checkout>/src python tests/checkpoint_fixtures.py
"""

from __future__ import annotations

from pathlib import Path

from repro.comm.party import VFLConfig, VFLContext
from repro.core.models import FederatedWDL
from repro.core.trainer import TrainConfig, train_federated
from repro.data import make_mixed_classification, split_vertical

DATA_DIR = Path(__file__).parent / "data"
SAVED_BATCHES = 2


def fixture_path(packing: bool) -> Path:
    return DATA_DIR / f"embed_parent_{'packed' if packing else 'unpacked'}.ckpt"


def dataset():
    return split_vertical(
        make_mixed_classification(
            32, sparse_dim=6, nnz_per_row=2, n_fields=4, vocab_size=3, seed=6
        )
    )


def build(packing: bool, vd) -> FederatedWDL:
    """The same model every call: identical seeds, identical keys."""
    ctx = VFLContext(VFLConfig(key_bits=256 if packing else 128, packing=packing), seed=17)
    return FederatedWDL(
        ctx, 3, 3, vd.party("A").vocab_sizes, vd.party("B").vocab_sizes,
        emb_dim=2, deep_hidden=[2], seed=2,
    )


def config(**overrides) -> TrainConfig:
    base = dict(
        epochs=1, batch_size=8, lr=0.1, momentum=0.9, seed=0, blinding_pool_per_epoch=0
    )
    base.update(overrides)
    return TrainConfig(**base)


def write(path: str, packing: bool):
    """Train ``SAVED_BATCHES`` batches, checkpointing after each; returns the history."""
    vd = dataset()
    return train_federated(
        build(packing, vd), vd, config(checkpoint_path=path, checkpoint_every=1),
        max_batches_per_epoch=SAVED_BATCHES,
    )


if __name__ == "__main__":
    for packing in (False, True):
        write(str(fixture_path(packing)), packing)
        print(f"wrote {fixture_path(packing)}")
