"""Appendix B and C benches: SS-based top models and multi-party MatMul.

* Appendix B (Figures 13/14): training LR with a federated (SS) top model
  (``FederatedSSLR``, the first-order Taylor logistic head) — not even
  Party B sees Z or grad_Z, so no party sees a loss — must reach the
  plaintext-top variant's test AUC.
* Appendix C (Algorithm 3): the M-party MatMul layer is lossless and its
  per-batch cost grows ~linearly with the number of A parties (one
  pairwise round each).
"""

from __future__ import annotations

import numpy as np

from repro.comm.message import MessageKind
from repro.comm.party import VFLConfig, VFLContext
from repro.core.models import FederatedLR, FederatedSSLR
from repro.core.multiparty import MultiPartyMatMulSource
from repro.core.trainer import TrainConfig, evaluate_federated, train_federated
from repro.data.partition import split_vertical
from repro.data.synthetic import make_dense_classification
from repro.utils.tabulate import format_table
from repro.utils.timer import Timer

KEY_BITS = 128
# Test AUC of the exact-sigmoid ideal F_TopSS box on the Appendix B data and
# seeds below, before the Taylor head replaced it.
IDEAL_TOP_AUC = 0.9253


def test_appendix_b_ss_top(benchmark, report):
    full = make_dense_classification(320, 16, seed=120, flip=0.03, nonlinear=False)
    train = split_vertical(full.subset(np.arange(224)))
    test = split_vertical(full.subset(np.arange(224, 320)))
    cfg = TrainConfig(epochs=2, batch_size=32, lr=0.1, momentum=0.9)
    result = {}

    def run():
        ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=21)
        model = FederatedSSLR(ctx, 8, 8)
        result["ss"] = train_federated(model, train, cfg)
        # Training is over: what B has received so far is all it saw of it.
        result["ss_kinds"] = {m.kind for m in ctx.channel.transcript if m.receiver == "B"}
        result["ss_auc"] = evaluate_federated(model, test)["auc"]
        ctx2 = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=21)
        model = FederatedLR(ctx2, 8, 8)
        result["plain_top"] = train_federated(model, train, cfg, test_data=test)

    benchmark.pedantic(run, rounds=1, iterations=1)
    ss_auc, kinds, plain_top = result["ss_auc"], result["ss_kinds"], result["plain_top"]
    hidden = kinds == {MessageKind.CIPHERTEXT}
    report(
        "Appendix B — LR with a federated (SS) top model vs plaintext top",
        format_table(
            ["variant", "test AUC", "B ever sees Z?"],
            [
                ["SS top (Fig. 13, Taylor head)", round(ss_auc, 3),
                 "no (B received ciphertexts only)" if hidden else "yes (bug)"],
                ["plaintext top", round(plain_top.final_metric, 3), "yes (by design)"],
            ],
        ),
    )
    assert hidden
    assert result["ss"].losses == [None] * len(plain_top.losses)
    assert abs(ss_auc - plain_top.final_metric) < 0.08
    assert ss_auc >= IDEAL_TOP_AUC - 0.01


def test_appendix_c_multiparty(benchmark, report):
    rng = np.random.default_rng(0)
    rows = []
    timings = {}

    def run():
        for m in (2, 3):
            ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=22, n_a_parties=m)
            dims = {name: 6 for name in ctx.a_names}
            layer = MultiPartyMatMulSource(ctx, dims, in_b=6, out_dim=1)
            x = {name: rng.normal(size=(16, 6)) for name in ctx.a_names}
            x["B"] = rng.normal(size=(16, 6))
            w0 = layer.reveal_weights()  # pre-update weights (test observer)
            timer = Timer()
            with timer:
                z = layer.forward(x)
                layer.backward(rng.normal(size=(16, 1)) * 0.01)
                layer.apply_updates(lr=0.05, momentum=0.9)
            expected = sum(x[n] @ w0[f"W_{n}"] for n in ctx.a_names)
            expected = expected + x["B"] @ w0["W_B"]
            lossless = np.allclose(z, expected, atol=1e-3)
            timings[m] = timer.elapsed
            rows.append([
                f"M={m} Party A's", round(timer.elapsed, 3),
                "lossless" if lossless else "MISMATCH",
            ])
            assert lossless

    benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Appendix C / Algorithm 3 — multi-party MatMul, one training "
        "iteration (batch 16)",
        format_table(["configuration", "time/batch (s)", "correctness"], rows),
    )
    # One extra pairwise round per added party: cost grows, but sub-linearly
    # vs 2x (B's share of work is amortised).
    assert timings[3] > timings[2] * 1.1
    assert timings[3] < timings[2] * 2.5
