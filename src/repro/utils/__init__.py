"""Shared utilities: metrics, RNG management, timers, table printing."""

from repro.utils.metrics import accuracy, roc_auc
from repro.utils.rng import new_rng, spawn_rngs
from repro.utils.tabulate import format_table
from repro.utils.timer import Timer

__all__ = [
    "accuracy",
    "roc_auc",
    "new_rng",
    "spawn_rngs",
    "format_table",
    "Timer",
]
