"""The paper's claims, asserted on the seeded rows of ``benchmarks/paper.py``.

One test per figure or table row; ``python benchmarks/paper.py`` prints
the same rows as tables.  The efficiency claims (Tables 5-8, Appendix C)
are inequalities over traced Paillier-operation counts, so they are exact
on any box; the lossless claims (Figures 12 and 15) compare BlindFL's
first losses with those of the plaintext twin started from its revealed
weights; the attack claims (Figures 9-11) keep the thresholds of the
paper's plots.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import paper  # noqa: E402  (path bootstrap above)

SEED = 0
# BlindFL's losses against the twin's: fixed-point encoding (2^-40) and
# float-order differences, summed over a few steps, stay far below this.
LOSSLESS_ATOL = 1e-6
# Table 5 rows in tier-1: every sparsity regime, without the two widest
# [[V]] set-ups (news20, industry), which only the printed table runs.
TABLE5_ROWS = ["higgs", "connect-4", "a9a", "w8a", "avazu-app"]
# One fmnist run serves Figure 15 and Table 6.
_fmnist = functools.cache(paper.fmnist)


def test_fig9_w8a_only_blindfl_hides_labels():
    curves = paper.fig9("w8a", SEED)
    assert curves["split (W_A at A)"][-1] > 0.75
    for label in ("ModelSS, ||V||=1x", "ModelSS, ||V||=5x", "ModelSS, ||V||=10x"):
        assert curves[label][-1] > 0.6, label
    assert abs(curves["BlindFL (X_A U_A)"][-1] - 0.5) < 0.15


def test_fig9_news20_only_blindfl_hides_labels():
    curves = paper.fig9("news20", SEED)
    # ~2x the 5-class chance of 0.2, tracking the collocated model's own
    # accuracy: the leak is real.
    assert curves["split (W_A at A)"][-1] > 0.33
    assert abs(curves["BlindFL (X_A U_A)"][-1] - 0.2) < 0.15


def test_fig10_derivatives_leak_labels_only_in_split_learning():
    curves = paper.fig10(SEED)
    for n_hidden in (2, 3, 4):
        assert curves[f"split WDL, #hidden={n_hidden}"][-1] > 0.85, n_hidden
    assert curves["BlindFL (A's share pieces)"][-1] < 0.75


def test_fig11_pieces_hide_magnitude_and_sign():
    for pair, stats in paper.fig11(SEED).items():
        assert stats["magnitude_ratio"] > 3, pair
        assert not stats["leaks"], pair


@pytest.mark.parametrize(
    "dataset,family", [c[:2] for c in paper.FIG12], ids=[f"{c[0]}-{c[1]}" for c in paper.FIG12]
)
def test_fig12_blindfl_is_lossless(dataset, family):
    row = paper.fig12(dataset, family, SEED)
    assert len(row["blindfl"]) == paper.LOSSLESS_STEPS
    np.testing.assert_allclose(
        row["blindfl"], row["twin"][: paper.LOSSLESS_STEPS], rtol=0, atol=LOSSLESS_ATOL
    )
    assert row["twin"][-1] < row["twin"][0]


def test_fig15_fmnist_is_lossless_and_beats_party_b():
    row = _fmnist(SEED)
    np.testing.assert_allclose(row["blindfl"], row["twin"][:2], rtol=0, atol=LOSSLESS_ATOL)
    assert row["twin_metric"] > 0.3  # 10 classes: chance is 0.1
    assert row["twin_metric"] > row["b_only_metric"]  # A's half adds signal


def test_table5_blindfl_needs_fewer_paillier_ops_than_secureml():
    triple = paper.secureml_traced_triple(SEED)
    assert triple["traced"] == triple["unit_cost_ops"]  # SecureML's column is its traced cost
    rows = paper.table5(TABLE5_ROWS, SEED)
    for name, row in rows.items():
        assert row["client"] == 0 < row["blindfl"] < row["secureml"], name
    # By more on sparser data: the listed rows run dense -> 99.99% sparse.
    ratios = [rows[name]["secureml"] / rows[name]["blindfl"] for name in TABLE5_ROWS]
    assert ratios == sorted(ratios)
    # A step follows the batch's nonzeros, not the dimension: 163x the
    # dims at the same nnz per row costs a few times the ops.
    assert rows["avazu-app"]["blindfl"] < 10 * rows["a9a"]["blindfl"]


def test_table5_paper_scale_outsourcing_runs_out_of_memory():
    assert paper.table5_paper_scale_oom(SEED) == {"avazu-app": "OOM", "industry": "OOM"}


def test_table6_blindfl_sits_between_client_aided_and_secureml():
    row = _fmnist(SEED)
    assert row["client_ops"] < row["ops_per_step"] < row["secureml_ops"]


def test_table7_cost_grows_with_the_source_width():
    ops = [row["ops"] for row in paper.table7(SEED).values()]
    for narrow, wide in zip(ops, ops[1:]):
        assert 1.3 < wide / narrow < 3.0


def test_table8_plaintext_layers_are_free():
    rows = paper.table8(SEED)
    base = rows[3]["ops"]
    for depth, row in rows.items():
        assert row["ops"] / base < 1.5, depth
        assert np.isfinite(row["loss"])


def test_appendix_b_ss_top_hides_z_and_matches_the_plaintext_top():
    row = paper.appendix_b(SEED)
    assert row["b_saw_only_ciphertexts"]
    assert row["ss_losses"] == [None] * row["plain_steps"]
    assert abs(row["ss_auc"] - row["plain_auc"]) < 0.08
    assert row["ss_auc"] >= paper.IDEAL_TOP_AUC - 0.01


def test_appendix_c_multiparty_is_lossless_and_sublinear():
    rows = paper.appendix_c(SEED)
    for m, row in rows.items():
        assert row["max_err"] < 1e-3, m
    assert 1.1 < rows[3]["ops"] / rows[2]["ops"] < 2.5
