"""The paper's evaluation as seeded rows: one function per figure or table.

Each returns what it measured at a laptop-scale shape and 128-bit keys.
Cost is counted in Paillier operations (:func:`paillier_ops`), so every
efficiency row is exact on any box.  ``tests/test_paper_claims.py``
asserts on the rows; ``python benchmarks/paper.py`` prints them.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from typing import Callable

import numpy as np

if __name__ == "__main__":  # ``python benchmarks/paper.py`` from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.attacks import (activation_attack_score, attack_accuracy_over_batches,
                           piece_vs_weight_stats)
from repro.baselines import (
    PlainDLRM, PlainLR, PlainMLP, PlainMLR, PlainWDL, SecureMLMatMul, SplitLinear, SplitWDL,
    collocated_view, outsource, party_b_view, train_plain, train_split_linear, train_split_wdl,
)
from repro.comm import MessageKind, VFLConfig, VFLContext
from repro.core import (
    EmbedMatMulSource, FederatedDLRM, FederatedLR, FederatedMLP, FederatedMLR, FederatedSGD,
    FederatedSSLR, FederatedWDL, MatMulSource, MultiPartyMatMulSource, TrainConfig, batch_of,
    evaluate_federated, train_federated,
)
from repro.crypto import PaillierTripleGenerator, encode_ring, share_ring
from repro.data import (
    CATALOG, BatchLoader, make_dense_classification, make_image_like, make_mixed_classification,
    make_sparse_classification, split_vertical,
)
from repro.obs import Tracer, counter_totals, use_tracer
from repro.tensor import bce_with_logits, softmax_cross_entropy
from repro.utils import format_table

KEY_BITS = 128


def _ctx(seed: int, **config) -> VFLContext:
    return VFLContext(VFLConfig(key_bits=KEY_BITS, **config), seed=seed)


def counted(run: Callable[[], object]) -> dict[str, int]:
    """Every tracer counter ``run()`` bumps, summed over its spans."""
    with use_tracer(Tracer()) as tracer:
        run()
    return counter_totals(tracer.to_dicts())


def paillier_ops(counters: dict[str, int]) -> int:
    """Paillier operations in one unit for every system: λ-blinders (one per
    encryption or re-randomisation), scalar and shift pows, decryptions."""
    keys = ("pow.blind.lambda", "pow.mul", "pow.shift", "ct.decrypted")
    return sum(counters.get(key, 0) for key in keys)


def _layer_step(layer, grad: np.ndarray, *inputs) -> np.ndarray:
    z = layer.forward(*inputs)
    layer.backward(grad)
    layer.apply_updates(lr=0.05, momentum=0.9)
    return z


def _model_step(model, opt: FederatedSGD, batch, criterion) -> float:
    out = model.forward(batch, train=True)
    opt.zero_grad()
    loss = criterion(out, batch.y)
    loss.backward()
    model.backward_sources()
    opt.step()
    return loss.item()


# -- Security (Figures 9-11): what Party A can learn -------------------------
# panel -> classes, dim, nnz, train rows, test rows, data seed, epochs
FIG9 = {"w8a": (2, 300, 12, 320, 160, 60, 3), "news20": (5, 600, 40, 192, 96, 61, 1)}


def fig9(panel: str, seed: int) -> dict[str, list[float]]:
    """Figure 9: Party A's label attack per epoch on what it computes alone
    (split learning, ModelSS without GradSS, BlindFL's ``X_A U_A``), and
    NonFed-collocated's own metric.  w8a: LR, AUC; news20: 5-class MLR."""
    k, dim, nnz, n_train, n_test, data_seed, epochs = FIG9[panel]
    cfg = TrainConfig(epochs=epochs, batch_size=32, lr=0.1, momentum=0.9, seed=seed)
    full = make_sparse_classification(n_train + n_test, dim, nnz, n_classes=k,
                                      seed=data_seed + seed, flip=0.03)
    train, test = full.subset(np.arange(n_train)), full.subset(np.arange(n_train, len(full.y)))
    vd_train, vd_test = split_vertical(train), split_vertical(test)
    half, out_dim = dim // 2, 1 if k == 2 else k
    curves = {}
    variants = [(f"ModelSS, ||V||={s}x", True, s) for s in (1, 5, 10)]
    for label, model_ss, v_scale in [("split (W_A at A)", False, 1.0)] + variants:
        split = SplitLinear(half, dim - half, out_dim=out_dim, model_ss=model_ss,
                            v_scale=v_scale, seed=seed)
        record = train_split_linear(split, vd_train, vd_test, cfg)
        curves[label] = [activation_attack_score(z, test.y, n_classes=k)
                         for z in record.za_per_epoch]

    ctx = _ctx(9 + seed, share_refresh="delta")
    model = FederatedLR(ctx, half, dim - half) if k == 2 else FederatedMLR(ctx, half, dim - half, k)
    criterion = bce_with_logits if k == 2 else softmax_cross_entropy
    opt, rng = FederatedSGD(model, lr=cfg.lr, momentum=cfg.momentum), np.random.default_rng(seed)
    curves["BlindFL (X_A U_A)"] = []
    for _ in range(epochs):
        for batch in BatchLoader(vd_train, cfg.batch_size, rng=rng):
            _model_step(model, opt, batch, criterion)
        z_a = vd_test.party("A").numeric_block().matmul_dense(model.source._a.u)
        curves["BlindFL (X_A U_A)"].append(activation_attack_score(z_a, test.y, n_classes=k))
    plain = PlainLR(dim) if k == 2 else PlainMLR(dim, k)
    curves["NonFed-collocated"] = train_plain(
        plain, collocated_view(train), cfg, collocated_view(test)).epoch_metrics
    return curves


def fig10(seed: int) -> dict[str, list[float]]:
    """Figure 10: the cosine attack's share of training labels recovered
    per epoch, from split WDL's plaintext ``grad_E_A`` (2/3/4 hidden
    layers) and from what BlindFL gives A instead, its HE2SS pieces."""
    vd = split_vertical(make_mixed_classification(256, 40, 6, n_fields=4, vocab_size=10,
                                                  seed=70 + seed))
    cfg = TrainConfig(epochs=3, batch_size=32, lr=0.1, momentum=0.9, seed=seed)
    vocab_a, vocab_b = vd.party("A").vocab_sizes, vd.party("B").vocab_sizes
    curves = {}
    for n_hidden in (2, 3, 4):
        split = SplitWDL(vocab_a, vocab_b, emb_dim=8, n_hidden=n_hidden, hidden_dim=32)
        record = train_split_wdl(split, vd, cfg)
        per = len(record.grad_e_a) // cfg.epochs
        curves[f"split WDL, #hidden={n_hidden}"] = [attack_accuracy_over_batches(
            record.grad_e_a[e * per:(e + 1) * per], record.grad_labels[e * per:(e + 1) * per]
        ) for e in range(cfg.epochs)]
    layer = EmbedMatMulSource(_ctx(10 + seed), vocab_a, vocab_b, emb_dim=4, out_dim=1)
    grads, labels = [], []
    for start in range(0, 96, 32):
        batch = vd.take_rows(np.arange(start, start + 32))
        layer.forward(batch.party("A").x_cat, batch.party("B").x_cat)
        layer.backward((0.5 - batch.y.astype(float).reshape(-1, 1)) * 0.01)
        grads.append(layer._a.cross[:, : layer.flat_in_a].copy())  # A's share psi
        labels.append(batch.y.copy())
        layer.apply_updates(lr=0.05, momentum=0.9)
    curves["BlindFL (A's share pieces)"] = [attack_accuracy_over_batches(grads, labels)]
    return curves


def _train_source(layer, vd, batch: int, steps: int, block: Callable):
    rng = np.random.default_rng(0)
    for _ in range(steps):
        rows = vd.take_rows(rng.choice(vd.n, size=batch, replace=False))
        z = layer.forward(block(rows.party("A")), block(rows.party("B")))
        layer.backward((1 / (1 + np.exp(-z)) - rows.y.reshape(z.shape)) / batch)
        layer.apply_updates(lr=0.05, momentum=0.9)
    return layer


def fig11(seed: int) -> dict[str, dict[str, object]]:
    """Figure 11: A's trained pieces against the true weights (``U_A`` vs
    ``W_A`` in LR, ``S_A`` vs ``Q_A`` in WDL), coordinate by coordinate."""
    vd = split_vertical(make_sparse_classification(320, 300, 12, seed=80 + seed, flip=0.03))
    lr = MatMulSource(_ctx(11 + seed, share_refresh="delta"), 150, 150, 1)
    vd_wdl = split_vertical(make_mixed_classification(192, 30, 5, n_fields=4, vocab_size=8,
                                                      seed=81 + seed))
    wdl = EmbedMatMulSource(
        _ctx(12 + seed), vd_wdl.party("A").vocab_sizes, vd_wdl.party("B").vocab_sizes, 4, 1
    )
    rows = {}
    for name, layer, piece, truth in (
        ("w8a-like LR: U_A vs W_A",
         _train_source(lr, vd, 32, 10, lambda p: p.numeric_block()), "A.U_A", "W_A"),
        ("a9a-like WDL: S_A vs Q_A",
         _train_source(wdl, vd_wdl, 24, 4, lambda p: p.x_cat), "A.S_A", "Q_A"),
    ):
        s = piece_vs_weight_stats(layer.piece_views()[piece], layer.reveal_weights()[truth])
        rows[name] = {"corr": s.correlation, "sign_agree": s.sign_agreement,
                      "magnitude_ratio": s.magnitude_ratio,
                      "leaks": s.leaks(corr_tol=0.45, sign_tol=0.3)}
    return rows


# -- Effectiveness (Figures 12 and 15): lossless against the plaintext twin --

def _by_field(a: np.ndarray, b: np.ndarray, sizes_a: list[int], sizes_b: list[int]):
    """Interleave A's and B's per-field row blocks in the collocated field
    order (``split_vertical`` deals fields round-robin, A first)."""
    blocks = (np.split(a, np.cumsum(sizes_a)[:-1]), np.split(b, np.cumsum(sizes_b)[:-1]))
    return np.vstack([blocks[f % 2][f // 2] for f in range(len(sizes_a) + len(sizes_b))])


def plain_twin(model, dataset):
    """``model``'s ``baselines/nonfed.py`` twin over ``dataset``, started
    from its revealed weights (a global observer's) and its top model."""
    view, vd = collocated_view(dataset), split_vertical(dataset)
    if not isinstance(model, (FederatedWDL, FederatedDLRM)):
        w, top = model.source.reveal_weights(), [p.data for p in model.top.parameters()]
        if isinstance(model, FederatedMLP):  # top: [W_1, b_1, W_2, b_2, ...]
            twin = PlainMLP(view.numeric_dim, [m.shape[0] for m in top[::2]], top[-1].size)
        else:
            twin = PlainLR(view.numeric_dim, out_dim=top[0].size)
        values = [np.vstack([w["W_A"], w["W_B"]]), *top]
    else:
        wdl = isinstance(model, FederatedWDL)
        lin, emb = (s.reveal_weights() for s in (
            (model.wide, model.deep) if wdl else (model.dense_arm, model.emb_arm)))
        va, vb, e = vd.party("A").vocab_sizes, vd.party("B").vocab_sizes, emb["Q_A"].shape[1]
        w_emb = _by_field(emb["W_A"], emb["W_B"], [e] * len(va), [e] * len(vb))
        values = [np.vstack([lin["W_A"], lin["W_B"]]),
                  _by_field(emb["Q_A"], emb["Q_B"], va, vb), w_emb]
        if wdl:
            twin = PlainWDL(view.numeric_dim, view.vocab_sizes, e, [w_emb.shape[1]])
            values += [p.data for p in model.deep_top.parameters()] + [model.bias.bias.data]
        else:
            twin = PlainDLRM(view.numeric_dim, view.vocab_sizes, e, w_emb.shape[1])
            values += [p.data for p in model.top.parameters()]
    for param, value in zip(twin.parameters(), values, strict=True):
        param.data[...] = value
    return twin


def _sparse(dim: int, nnz: int, classes: int = 2, zipf: float = 0.6):
    return lambda n, seed: make_sparse_classification(
        n, dim, nnz, n_classes=classes, seed=seed, flip=0.03, zipf=zipf)


def _mixed(dim: int, nnz: int):
    return lambda n, seed: make_mixed_classification(n, dim, nnz, 4, 8, seed=seed, flip=0.03)


# Figure 12 at the scaled Table 4 shapes: dataset, family, data, data seed,
# train / test rows, epochs (a steeper Zipf lets few rows carry signal).
FIG12 = [
    ("a9a", "lr", _sparse(123, 14), 925, 256, 128, 3),
    ("w8a", "lr", _sparse(300, 12), 123, 256, 128, 3),
    ("connect-4", "mlp", _sparse(126, 42, classes=3), 844, 256, 128, 3),
    ("news20", "mlr", _sparse(600, 40, classes=5, zipf=1.0), 146, 320, 128, 3),
    ("higgs", "lr", lambda n, seed: make_dense_classification(n, 28, seed=seed, flip=0.03),
     260, 256, 128, 3),
    ("avazu", "lr", _sparse(2000, 14, zipf=1.1), 226, 512, 128, 2),
    ("avazu", "wdl", _mixed(200, 10), 593, 224, 96, 4),
    ("industry", "dlrm", _mixed(200, 8), 338, 256, 128, 5),
]
# BlindFL steps compared with the twin (the third is the first whose loss
# momentum moves); the twin alone plays out the rest of the schedule.
LOSSLESS_STEPS, LOSSLESS_BATCH = 3, 16


def _lossless(model, train, test, cfg: TrainConfig, steps: int) -> dict[str, object]:
    """BlindFL's first ``steps`` losses and ops per step, and the losses
    (the first ``steps`` on the same batches) and test metric of its
    plaintext twin trained over ``cfg``'s whole schedule."""
    vd, twin = split_vertical(train), plain_twin(model, train)
    first = dataclasses.replace(cfg, epochs=1, telemetry="memory")
    blindfl = train_federated(model, vd, first, max_batches_per_epoch=steps)
    plain = train_plain(twin, collocated_view(train), cfg, collocated_view(test))
    return {"blindfl": blindfl.losses,
            "ops_per_step": paillier_ops(counter_totals(blindfl.trace)) / steps,
            "twin": plain.losses, "twin_metric": plain.final_metric}


def fig12(dataset: str, family: str, seed: int) -> dict[str, object]:
    """Figure 12, one combination: the lossless property (:func:`_lossless`)."""
    _, _, make, data_seed, n_train, n_test, epochs = next(
        c for c in FIG12 if c[:2] == (dataset, family))
    full, n = make(n_train + n_test, data_seed + seed), n_train + n_test
    train, test = full.subset(np.arange(n_train)), full.subset(np.arange(n_train, n))
    vd = split_vertical(train)
    # The full-copy refresh: ``delta`` moves untouched rows lazily (no
    # momentum step), which ``train_plain``'s dense SGD does not.
    ctx = _ctx(13 + seed)
    in_a, in_b = vd.party("A").dense_dim, vd.party("B").dense_dim
    vocab = (vd.party("A").vocab_sizes, vd.party("B").vocab_sizes)
    model = {
        "lr": lambda: FederatedLR(ctx, in_a, in_b),
        "mlr": lambda: FederatedMLR(ctx, in_a, in_b, vd.n_classes),
        "mlp": lambda: FederatedMLP(ctx, in_a, in_b, hidden=[16], n_out=vd.n_classes),
        "wdl": lambda: FederatedWDL(ctx, in_a, in_b, *vocab, emb_dim=4, deep_hidden=[8]),
        "dlrm": lambda: FederatedDLRM(ctx, in_a, in_b, *vocab, emb_dim=4, arm_dim=6),
    }[family]()
    cfg = TrainConfig(epochs=epochs, batch_size=LOSSLESS_BATCH, lr=0.1, momentum=0.9, seed=seed)
    return _lossless(model, train, test, cfg, LOSSLESS_STEPS)


FMNIST_DIM, FMNIST_HIDDEN, FMNIST_CLASSES = 784, 8, 10


def fmnist(seed: int) -> dict[str, object]:
    """Appendix D.1's fmnist MLP.  Figure 15: lossless over two steps, and
    the twin against NonFed-Party B (class signal sits mostly in A's half).
    Table 6: ops per mini-batch, BlindFL vs SecureML vs client-aided."""
    full = make_image_like(288, seed=101 + seed, noise=1.5, top_half_boost=2.5)
    train, test = full.subset(np.arange(160)), full.subset(np.arange(160, 288))
    half, b_dim = FMNIST_DIM // 2, FMNIST_DIM - FMNIST_DIM // 2
    model = FederatedMLP(_ctx(16 + seed), half, b_dim, [FMNIST_HIDDEN], FMNIST_CLASSES)
    cfg = TrainConfig(epochs=2, batch_size=LOSSLESS_BATCH, lr=0.05, momentum=0.9, seed=seed)
    row = _lossless(model, train, test, cfg, 2)
    b_only = PlainMLP(b_dim, [FMNIST_HIDDEN], FMNIST_CLASSES)
    row["b_only_metric"] = train_plain(b_only, party_b_view(split_vertical(train)), cfg,
                                       party_b_view(split_vertical(test))).final_metric
    row["secureml_ops"] = secureml_ops(LOSSLESS_BATCH, FMNIST_DIM, FMNIST_HIDDEN)
    row["client_ops"] = client_aided_ops(train.x_dense[:LOSSLESS_BATCH], FMNIST_HIDDEN, seed)
    return row


# -- Efficiency (Tables 5-8), counted ------------------------------------------
TABLE5_BATCH = 32
# dataset -> source-layer width (news20: 5 of 20 classes, as in Figure 9)
TABLE5_OUT = {"a9a": 1, "w8a": 1, "connect-4": 8, "higgs": 1, "news20": 5,
              "avazu-app": 1, "industry": 1}


def secureml_ops(batch: int, dim: int, out_dim: int) -> int:
    """One SecureML iteration's forward and backward crypto triples."""
    unit = PaillierTripleGenerator.unit_cost_ops
    return unit(batch, dim, out_dim) + unit(dim, batch, out_dim)


def secureml_traced_triple(seed: int) -> dict[str, int]:
    """A (2, 8, 1) triple's traced ops, and ``unit_cost_ops``'s count."""
    rng = np.random.default_rng(seed)
    kernel = SecureMLMatMul(rng, triple_source="crypto", seed=4 + seed)
    x = share_ring(rng.integers(0, 2**64, (2, 8), dtype=np.uint64), rng)
    w = share_ring(rng.integers(0, 2**64, (8, 1), dtype=np.uint64), rng)
    return {"traced": paillier_ops(counted(lambda: kernel.matmul(x, w))),
            "unit_cost_ops": PaillierTripleGenerator.unit_cost_ops(2, 8, 1)}


def client_aided_ops(x, out_dim: int, seed: int) -> int:
    """Traced ops of a client-aided SecureML iteration (dealer triples)."""
    rng = np.random.default_rng(seed)
    x_sh = outsource(x, rng)
    w_sh = share_ring(encode_ring(rng.normal(size=(x.shape[1], out_dim)) * 0.1), rng)
    return paillier_ops(counted(lambda: SecureMLMatMul(rng).training_iteration(x_sh, w_sh)))


def table5(names: list[str], seed: int) -> dict[str, dict[str, object]]:
    """Table 5: ops of one mini-batch's matrix products (a MatMul source
    step, delta refresh) vs SecureML's, crypto and client-aided."""
    rows = {}
    for name in names:
        entry, out = CATALOG[name], TABLE5_OUT[name]
        data = make_dense_classification(TABLE5_BATCH, entry.dim, seed=1 + seed) if (
            entry.kind == "dense") else make_sparse_classification(
            TABLE5_BATCH, entry.dim, entry.avg_nnz, seed=1 + seed)
        vd = split_vertical(data)
        x_a, x_b = vd.party("A").numeric_block(), vd.party("B").numeric_block()
        layer = MatMulSource(_ctx(2 + seed, share_refresh="delta"), x_a.shape[1], x_b.shape[1], out)
        grad = np.random.default_rng(seed).normal(size=(TABLE5_BATCH, out)) * 0.01
        blindfl = counted(lambda: _layer_step(layer, grad, x_a, x_b))
        rows[name] = {"sparsity": entry.sparsity, "dim": entry.dim, "out": out,
                      "blindfl": paillier_ops(blindfl), "bytes": blindfl.get("bytes.sent", 0),
                      "secureml": secureml_ops(TABLE5_BATCH, entry.dim, out),
                      "client": client_aided_ops(collocated_view(data).numeric, out, seed)}
    return rows


def table5_paper_scale_oom(seed: int) -> dict[str, str]:
    """Table 5's paper-scale cells: outsourcing densifies out of memory."""
    rng, cells = np.random.default_rng(5 + seed), {}
    for name, dim in (("avazu-app", 1_000_000), ("industry", 10_000_000)):
        sparse = make_sparse_classification(4, 100, 3, seed=6 + seed).x_sparse
        sparse.shape = (128, dim)  # the paper-scale shape, never materialised
        try:
            outsource(sparse, rng)
            cells[name] = "shared"
        except MemoryError:
            cells[name] = "OOM"
    return cells


TABLE7_WIDTHS, TABLE7_BATCH, TABLE8_BATCH = [4, 8, 16, 32], 8, 16


def table7(seed: int) -> dict[int, dict[str, int]]:
    """Table 7: one connect-4-like source-layer step per output width."""
    full = make_sparse_classification(192, 126, 42, n_classes=3, seed=110 + seed, flip=0.03)
    batch = split_vertical(full).take_rows(
        np.random.default_rng(seed).choice(192, TABLE7_BATCH, replace=False))
    x_a, x_b = batch.party("A").numeric_block(), batch.party("B").numeric_block()
    rows = {}
    for width in TABLE7_WIDTHS:
        layer = MatMulSource(_ctx(17 + seed, share_refresh="delta"), 63, 63, width)
        grad = np.random.default_rng(seed).normal(size=(TABLE7_BATCH, width)) * 0.01
        c = counted(lambda: _layer_step(layer, grad, x_a, x_b))
        rows[width] = {"ops": paillier_ops(c), "bytes": c.get("bytes.sent", 0)}
    return rows


def table8(seed: int) -> dict[int, dict[str, float]]:
    """Table 8: one step of the connect-4-like MLP with 8-unit plaintext
    layers between its 16-unit source layer and the head."""
    full = make_sparse_classification(192, 126, 42, n_classes=3, seed=111 + seed, flip=0.03)
    batch = batch_of(split_vertical(full), TABLE8_BATCH, seed=seed)
    rows = {}
    for depth in (3, 4, 5, 6):
        model = FederatedMLP(_ctx(19 + seed, share_refresh="delta"), 63, 63,
                             hidden=[16] + [8] * (depth - 2), n_out=3)
        opt, loss = FederatedSGD(model, lr=0.1, momentum=0.9), []
        c = counted(lambda: loss.append(_model_step(model, opt, batch, softmax_cross_entropy)))
        rows[depth] = {"ops": paillier_ops(c), "bytes": c.get("bytes.sent", 0), "loss": loss[0]}
    return rows


# -- Appendices B and C ---------------------------------------------------------
# Test AUC here at seed 0 of the exact-sigmoid box the Taylor head replaced
IDEAL_TOP_AUC = 0.9253


def appendix_b(seed: int) -> dict[str, object]:
    """Appendix B: LR with the secret-shared top vs the plaintext top: test
    AUC, losses (no party sees one), and what B received while training."""
    full = make_dense_classification(320, 16, seed=120 + seed, flip=0.03, nonlinear=False)
    train, test = (split_vertical(full.subset(np.arange(*r))) for r in ((224,), (224, 320)))
    cfg = TrainConfig(epochs=2, batch_size=32, lr=0.1, momentum=0.9, seed=seed)
    ctx = _ctx(21 + seed)
    model = FederatedSSLR(ctx, 8, 8)
    ss = train_federated(model, train, cfg)
    kinds = {m.kind for m in ctx.channel.transcript if m.receiver == "B"}
    plain = train_federated(FederatedLR(_ctx(21 + seed), 8, 8), train, cfg, test_data=test)
    return {"ss_auc": evaluate_federated(model, test)["auc"], "ss_losses": ss.losses,
            "b_saw_only_ciphertexts": kinds == {MessageKind.CIPHERTEXT},
            "plain_auc": plain.final_metric, "plain_steps": len(plain.losses)}


def appendix_c(seed: int) -> dict[int, dict[str, float]]:
    """Appendix C: one multi-party MatMul step with 2 and 3 Party A's: ops,
    and its forward's distance from ``sum X_i W_i`` (revealed weights)."""
    rng, rows = np.random.default_rng(seed), {}
    for m in (2, 3):
        ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=22 + seed, n_a_parties=m)
        layer = MultiPartyMatMulSource(ctx, {name: 6 for name in ctx.a_names}, in_b=6, out_dim=1)
        x = {name: rng.normal(size=(16, 6)) for name in (*ctx.a_names, "B")}
        grad, w0, z = rng.normal(size=(16, 1)) * 0.01, layer.reveal_weights(), []
        ops = paillier_ops(counted(lambda: z.append(_layer_step(layer, grad, x))))
        expected = sum(x[name] @ w0[f"W_{name}"] for name in (*ctx.a_names, "B"))
        rows[m] = {"ops": ops, "max_err": float(np.abs(z[0] - expected).max())}
    return rows


# -- ``python benchmarks/paper.py``: every row as a table ---------------------

def _cell(value: object) -> str:
    if isinstance(value, list) and len(value) > 4:
        return f"{_cell(value[0])} -> {_cell(value[-1])} ({len(value)} steps)"
    if isinstance(value, list):
        return " ".join(_cell(v) for v in value)
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _render(title: str, rows: dict) -> str:
    first = next(iter(rows.values()))
    cols = list(first) if isinstance(first, dict) else ["value"]
    body = [[str(k)] + [_cell(v[c] if isinstance(v, dict) else v) for c in cols]
            for k, v in rows.items()]
    return format_table(["row", *cols], body, title=title)


def main() -> int:
    s = 0
    tables = {
        "Figure 9, w8a-like LR: label-attack AUC per epoch": fig9("w8a", s),
        "Figure 9, news20-like MLR: attack accuracy per epoch": fig9("news20", s),
        "Figure 10: labels recovered from backward derivatives": fig10(s),
        "Figure 11: A's pieces vs the true weights": fig11(s),
        "Figure 12: lossless": {f"{d}, {f}": fig12(d, f, s) for d, f, *_ in FIG12},
        "Figure 15 and Table 6: fmnist MLP": {"fmnist": fmnist(s)},
        "Table 5: Paillier operations per mini-batch": table5(list(TABLE5_OUT), s),
        "Table 5: SecureML's cost model": {"(2, 8, 1) triple": secureml_traced_triple(s)},
        "Table 5: outsourcing at the paper's scale": table5_paper_scale_oom(s),
        "Table 7: source-layer width": table7(s),
        "Table 8: number of layers": table8(s),
        "Appendix B: secret-shared top model": appendix_b(s),
        "Appendix C: multi-party MatMul": appendix_c(s),
    }
    print("\n\n".join(_render(title, rows) for title, rows in tables.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
