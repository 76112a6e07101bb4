"""Deterministic random-number management.

Every stochastic component (key generation, secret-sharing masks, dataset
synthesis, model init, batch shuffling) takes an explicit
``numpy.random.Generator`` so experiments are reproducible run-to-run.
"""

from __future__ import annotations

import numpy as np

__all__ = ["new_rng", "spawn_rngs"]


def new_rng(seed: int | None) -> np.random.Generator:
    """Create a PCG64 generator from an integer seed (``None`` = OS entropy)."""
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from one seed.

    Uses ``SeedSequence.spawn`` so children are statistically independent,
    which matters when e.g. both parties and the data generator each need
    their own stream.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]
