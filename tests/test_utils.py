"""Tests for metrics, table formatting, timers and RNG management."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.metrics import accuracy, roc_auc
from repro.utils.rng import new_rng, spawn_rngs
from repro.utils.tabulate import format_table
from repro.utils.timer import Timer


# ---------- roc_auc ----------


def test_auc_perfect_separation():
    y = np.array([0, 0, 1, 1])
    assert roc_auc(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
    assert roc_auc(y, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0


def test_auc_chance_for_constant_scores():
    y = np.array([0, 1, 0, 1])
    assert roc_auc(y, np.zeros(4)) == pytest.approx(0.5)  # all tied -> 0.5


def test_auc_handles_ties_with_midranks():
    y = np.array([0, 1, 1, 0])
    s = np.array([0.5, 0.5, 0.9, 0.1])
    # pairs: (1a vs 0a): tie=0.5; (1a vs 0b): win; (1b vs 0a): win; (1b vs 0b): win
    assert roc_auc(y, s) == pytest.approx((0.5 + 3) / 4)


def test_auc_validation():
    with pytest.raises(ValueError, match="at least one"):
        roc_auc(np.ones(4), np.arange(4))
    with pytest.raises(ValueError, match="shape"):
        roc_auc(np.array([0, 1]), np.arange(3))


@given(st.integers(min_value=2, max_value=50))
@settings(max_examples=20)
def test_auc_antisymmetry(n):
    rng = np.random.default_rng(n)
    y = rng.integers(0, 2, size=n)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    s = rng.normal(size=n)
    assert roc_auc(y, s) == pytest.approx(1.0 - roc_auc(y, -s), abs=1e-12)


def test_auc_matches_pairwise_definition(rng):
    y = rng.integers(0, 2, size=30)
    y[:2] = [0, 1]
    s = rng.normal(size=30)
    pos, neg = s[y == 1], s[y == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    assert roc_auc(y, s) == pytest.approx(wins / (len(pos) * len(neg)))


# ---------- other metrics ----------


def test_accuracy_basic():
    assert accuracy([1, 2, 3], [1, 2, 4]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        accuracy([], [])
    with pytest.raises(ValueError):
        accuracy([1], [1, 2])


def test_format_table_alignment():
    out = format_table(["col", "x"], [["a", 1], ["long-cell", 2.5]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "long-cell" in out
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1  # all rows aligned to the same width


def test_format_table_scientific_for_extremes():
    out = format_table(["v"], [[0.0000001], [1e7]])
    assert "e-07" in out and "e+07" in out


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [[1]])


def test_format_table_integers_stay_exact():
    # Counter columns (pow/ciphertext counts) must print as exact ints,
    # never float-formatted.
    out = format_table(["n"], [[123456]])
    assert "123456" in out and "1.2" not in out


def test_accuracy_perfect_and_zero():
    assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0
    assert accuracy([0, 0, 0], [1, 1, 1]) == 0.0


# ---------- timer ----------


def test_timer_accumulates():
    t = Timer()
    with t:
        time.sleep(0.01)
    first = t.elapsed
    with t:
        time.sleep(0.01)
    assert t.elapsed > first >= 0.01
    t.reset()
    assert t.elapsed == 0.0


def test_timer_misuse():
    t = Timer()
    with pytest.raises(RuntimeError):
        t.__exit__(None, None, None)


def test_timer_nesting_accumulates_outermost_interval_once():
    """Re-entrant use (the span API nests spans freely) counts the
    outermost interval exactly once — inner exits must neither accumulate
    nor reset the running start."""
    t = Timer()
    with t:
        time.sleep(0.005)
        with t:
            time.sleep(0.005)
        assert t.running  # inner exit left the outer interval open
        assert t.elapsed == 0.0  # nothing accumulated yet
        time.sleep(0.005)
    assert not t.running
    # One interval covering all three sleeps, not double-counted.
    assert 0.015 <= t.elapsed < 0.5


def test_timer_nested_exit_beyond_depth_raises():
    t = Timer()
    with t:
        with t:
            pass
    with pytest.raises(RuntimeError):
        t.__exit__(None, None, None)


def test_timer_reset_clears_depth_and_elapsed():
    t = Timer()
    with t:
        pass
    assert t.elapsed > 0.0
    t.reset()
    assert t.elapsed == 0.0 and not t.running
    with t:  # usable again after reset
        pass
    assert t.elapsed > 0.0


# ---------- rng ----------


def test_new_rng_deterministic():
    assert new_rng(5).integers(0, 100) == new_rng(5).integers(0, 100)


def test_spawn_rngs_independent():
    a, b = spawn_rngs(1, 2)
    assert a.integers(0, 2**30) != b.integers(0, 2**30)
    with pytest.raises(ValueError):
        spawn_rngs(1, 0)


def test_spawn_rngs_reproducible():
    a1, _ = spawn_rngs(9, 2)
    a2, _ = spawn_rngs(9, 2)
    assert a1.integers(0, 2**30) == a2.integers(0, 2**30)
