"""Mini-batch iteration over vertically partitioned data.

Matches the paper's protocol assumptions: both parties iterate the *same*
batch of instance ids each step (instances are pre-aligned by PSI), labels
stay at Party B.  On a fabric endpoint the loader hands out only the blocks
of the parties that endpoint hosts (``parties``); the order is drawn from
the shared seed, so every endpoint walks the same instance ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.data.partition import PartyData, VerticalDataset

__all__ = ["Batch", "BatchLoader"]


@dataclass
class Batch:
    """One aligned mini-batch (``y`` is ``None`` off Party B's endpoint)."""

    parties: dict[str, PartyData]
    y: np.ndarray | None
    indices: np.ndarray

    @property
    def size(self) -> int:
        return int(self.indices.shape[0])

    def party(self, name: str) -> PartyData:
        return self.parties[name]

    def numeric(self, name: str):
        """``name``'s numerical block, ``None`` where this endpoint lacks it."""
        block = self.parties.get(name)
        return None if block is None else block.numeric_block()

    def categorical(self, name: str) -> np.ndarray | None:
        """``name``'s categorical ids, ``None`` where this endpoint lacks them."""
        block = self.parties.get(name)
        return None if block is None else block.x_cat


class BatchLoader:
    """Shuffling mini-batch loader (drops the final ragged batch)."""

    def __init__(
        self,
        dataset: VerticalDataset,
        batch_size: int,
        rng: np.random.Generator | None = None,
        shuffle: bool = True,
        drop_last: bool = True,
        parties=None,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if batch_size > dataset.n:
            raise ValueError("batch_size exceeds dataset size")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.parties = None if parties is None else frozenset(parties)
        self._rng = rng or np.random.default_rng(0)

    def __len__(self) -> int:
        if self.drop_last:
            return self.dataset.n // self.batch_size
        return (self.dataset.n + self.batch_size - 1) // self.batch_size

    def draw_order(self) -> np.ndarray:
        """Draw this epoch's instance order (one RNG shuffle per call).

        Split out from iteration so checkpointing can capture the exact
        order a partially-consumed epoch was following: the draw here is
        bit-identical to what ``__iter__`` always did (``np.arange`` then
        one ``rng.shuffle``), so loader RNG trajectories are unchanged.
        """
        order = np.arange(self.dataset.n)
        if self.shuffle:
            self._rng.shuffle(order)
        return order

    def batches(self, order: np.ndarray, start: int = 0) -> Iterator[tuple[int, Batch]]:
        """Yield ``(batch_no, batch)`` following a fixed instance order.

        ``start`` skips already-consumed batches without materialising
        them (resume-from-checkpoint walks straight to the next batch).
        """
        order = np.asarray(order)
        if order.shape[0] != self.dataset.n:
            raise ValueError(
                f"order covers {order.shape[0]} instances, dataset has "
                f"{self.dataset.n}"
            )
        for batch_no, lo in enumerate(range(0, self.dataset.n, self.batch_size)):
            idx = order[lo : lo + self.batch_size]
            if self.drop_last and idx.shape[0] < self.batch_size:
                break
            if batch_no < start:
                continue
            sliced = self.dataset.take_rows(idx, self.parties)
            yield batch_no, Batch(parties=sliced.parties, y=sliced.y, indices=idx)

    def __iter__(self) -> Iterator[Batch]:
        for _, batch in self.batches(self.draw_order()):
            yield batch
