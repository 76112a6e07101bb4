"""Evaluation metrics used throughout the paper's experiments.

The paper reports testing AUC for binary tasks and accuracy for multi-class
tasks (Figure 12), plus training loss curves.  We implement them on plain
numpy so the metrics are identical for federated and non-federated runs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["roc_auc", "accuracy"]


def roc_auc(y_true: np.ndarray, y_score: np.ndarray) -> float:
    """Area under the ROC curve via the Mann-Whitney U statistic.

    ``y_true`` holds binary labels in {0, 1}; ``y_score`` holds arbitrary
    real-valued scores (larger means "more positive").  Ties receive the
    standard mid-rank treatment.
    """
    y_true = np.asarray(y_true).ravel()
    y_score = np.asarray(y_score, dtype=np.float64).ravel()
    if y_true.shape != y_score.shape:
        raise ValueError(
            f"shape mismatch: y_true {y_true.shape} vs y_score {y_score.shape}"
        )
    pos = y_true == 1
    n_pos = int(pos.sum())
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs at least one positive and one negative")
    order = np.argsort(y_score, kind="mergesort")
    ranks = np.empty(y_true.size, dtype=np.float64)
    ranks[order] = np.arange(1, y_true.size + 1)
    # Mid-ranks for ties.
    sorted_scores = y_score[order]
    i = 0
    while i < y_true.size:
        j = i
        while j + 1 < y_true.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    rank_sum = ranks[pos].sum()
    u_stat = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u_stat / (n_pos * n_neg))


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exact label matches."""
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"shape mismatch: y_true {y_true.shape} vs y_pred {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("accuracy of an empty array is undefined")
    return float(np.mean(y_true == y_pred))
