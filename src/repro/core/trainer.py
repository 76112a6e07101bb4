"""Training and evaluation driver for federated models.

Implements the Figure 8 training routine once, for every model:

    for X, y in loader:
        output = model(X)            # federated forward
        fed_optimizer.zero_grad()
        loss = criterion(output, y)
        loss.backward()              # top-model autograd
        model.backward_sources()     # federated backward
        fed_optimizer.step()         # update shares + top model

plus the metric bookkeeping the Figure 12 / Figure 9 benchmarks need
(per-iteration training loss, per-epoch test metric).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.crypto.parallel import ParallelContext, use_parallel
from repro.core.federated import FederatedModule
from repro.obs.sinks import make_sink
from repro.obs.tracer import Tracer, use_tracer
from repro.obs import tracer as _obs
from repro.core.optimizer import FederatedSGD
from repro.data.loader import Batch, BatchLoader
from repro.data.partition import VerticalDataset
from repro.tensor.losses import bce_with_logits, softmax_cross_entropy
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.metrics import accuracy, roc_auc

__all__ = [
    "TrainConfig",
    "History",
    "train_federated",
    "train_multiparty",
    "evaluate_federated",
    "predict",
]


@dataclass
class TrainConfig:
    """What the training *loop* owns (paper defaults: lr 0.05, batch 128,
    momentum 0.9).  Protocol parameters — key size, packing, channel tier,
    blinding λ, share refresh — are fixed when the federation is built and
    live on :class:`~repro.comm.party.VFLConfig`.

    ``parallel_workers >= 2`` installs a
    :class:`~repro.crypto.parallel.ParallelContext` as the process default
    for the duration of training, so every homomorphic kernel in the source
    layers shards its exponentiations across that many processes.
    ``blinding_pool_per_epoch`` pre-computes that many ``r^n`` obfuscation
    blinders per party key at each epoch boundary (off the hot path), so
    in-epoch encryptions only pay a mulmod for re-randomisation.
    ``checkpoint_path`` + ``checkpoint_every`` persist the full training
    state (see :mod:`repro.core.checkpoint`) as codec frames on disk
    whenever the number of batches trained so far — restored ones
    included — is a multiple of N; resuming via ``train_federated(resume_from=...)`` is
    bit-identical to never having stopped.  ``crash_after_batches`` is the
    fault-injection knob for testing that property: the trainer raises
    :class:`~repro.core.checkpoint.TrainingInterrupted` after that many
    batches have run in this process.
    ``telemetry`` turns on the phase tracer (see :mod:`repro.obs`) for the
    run: ``"memory"`` keeps the trace on ``History.trace`` only, ``"null"``
    additionally streams spans to a no-op sink (plumbing check),
    ``"jsonl"``/``"chrome"`` also export to ``telemetry_path``.  ``None``
    (or ``"off"``) is the default: no tracer is installed and every
    instrumentation site short-circuits on one ``is None`` check.
    """

    epochs: int = 10
    batch_size: int = 128
    lr: float = 0.05
    momentum: float = 0.9
    seed: int = 0
    parallel_workers: int = 0
    blinding_pool_per_epoch: int = 0
    checkpoint_path: str | None = None
    checkpoint_every: int = 0
    crash_after_batches: int | None = None
    telemetry: str | None = None
    telemetry_path: str | None = None


@dataclass
class History:
    """Convergence record: loss per iteration, metric per epoch."""

    losses: list[float] = field(default_factory=list)
    epoch_metrics: list[float] = field(default_factory=list)
    metric_name: str = ""
    # Span dicts from the run's tracer (``TrainConfig.telemetry``); None
    # when telemetry was off.  Not checkpointed — a resumed run records
    # only its own process's trace.
    trace: list[dict] | None = None

    @property
    def final_metric(self) -> float:
        return self.epoch_metrics[-1]


def _criterion(n_classes: int) -> Callable[[Tensor, np.ndarray], Tensor]:
    if n_classes == 2:
        return bce_with_logits
    return softmax_cross_entropy


def train_federated(
    model: FederatedModule,
    train_data: VerticalDataset,
    config: TrainConfig,
    test_data: VerticalDataset | None = None,
    max_batches_per_epoch: int | None = None,
    resume_from: str | None = None,
) -> History:
    """Train with FederatedSGD; returns the convergence history.

    ``resume_from`` restores a checkpoint written by an earlier run onto
    this (freshly rebuilt, identically seeded) model and continues from
    the exact batch after it — RNG streams, blinding pools, momentum
    buffers and the mini-batch order all resume bit-identically, so the
    final trajectory matches an uninterrupted run.  The checkpoint never
    holds private keys; rebuilding the model from its seeds is what
    brings the key owner's private key back.
    """
    from repro.core.checkpoint import (
        load_checkpoint,
        model_key_ring,
        restore_checkpoint,
        save_checkpoint,
    )

    optimizer = FederatedSGD(model, lr=config.lr, momentum=config.momentum)
    criterion = _criterion(train_data.n_classes)
    rng = np.random.default_rng(config.seed)
    metric_name = "auc" if train_data.n_classes == 2 else "accuracy"
    history = History(metric_name=metric_name)
    start_epoch, resume_order, resume_batch = 0, None, 0
    if resume_from is not None:
        sections = load_checkpoint(resume_from, key_ring=model_key_ring(model))
        resume = restore_checkpoint(model, optimizer, rng, sections)
        start_epoch = resume.epoch
        resume_order = resume.order
        resume_batch = resume.next_batch
        history = resume.history
    if config.parallel_workers >= 2:
        engine = use_parallel(ParallelContext(workers=config.parallel_workers))
    else:
        engine = contextlib.nullcontext(None)
    tracer: Tracer | None = None
    if config.telemetry is not None and config.telemetry != "off":
        tracer = Tracer(sink=make_sink(config.telemetry, config.telemetry_path))
        scope = use_tracer(tracer)
    else:
        scope = contextlib.nullcontext(None)
    first_step = len(history.losses)
    with engine as parallel, scope:
        for epoch in range(start_epoch, config.epochs):
            with _obs.span("epoch", epoch=epoch):
                resuming = epoch == start_epoch and resume_order is not None
                if resuming:
                    # Mid-epoch re-entry: the prefill and the order shuffle
                    # already happened before the checkpoint was written —
                    # their effects live in the restored RNG/pool states.
                    order, first_batch = resume_order, resume_batch
                else:
                    if config.blinding_pool_per_epoch > 0:
                        with _obs.span("blinding_refill", epoch=epoch):
                            _prefill_blinding(
                                model, config.blinding_pool_per_epoch, parallel
                            )
                    order, first_batch = None, 0
                loader = BatchLoader(train_data, config.batch_size, rng=rng)
                if order is None:
                    order = loader.draw_order()
                for batch_no, batch in loader.batches(order, start=first_batch):
                    if (
                        max_batches_per_epoch is not None
                        and batch_no >= max_batches_per_epoch
                    ):
                        break

                    def save() -> None:
                        with _obs.span("checkpoint", epoch=epoch, batch=batch_no):
                            save_checkpoint(
                                config.checkpoint_path, model, optimizer,
                                epoch=epoch, next_batch=batch_no + 1,
                                order=order, loader_rng=rng, history=history,
                            )

                    with _obs.span("batch", epoch=epoch, batch=batch_no):
                        output = model.forward(batch, train=True)
                        optimizer.zero_grad()
                        loss = criterion(output, batch.y)
                        loss.backward()
                        model.backward_sources()
                        optimizer.step()
                        history.losses.append(loss.item())
                        _finish_step(config, len(history.losses), first_step, save)
                if test_data is not None:
                    history.epoch_metrics.append(
                        evaluate_federated(
                            model, test_data, config.batch_size
                        )[metric_name]
                    )
    if tracer is not None:
        # use_tracer closed the tracer on scope exit (root span included),
        # so the dict view below is the complete trace.
        history.trace = tracer.to_dicts()
    return history


def train_multiparty(
    model,
    x_by_party: dict[str, object],
    labels: np.ndarray | None,
    config: TrainConfig,
    *,
    steps: int,
    resume_from: str | None = None,
) -> list[float | None]:
    """Fixed-batch SGD loop for the N-party models (:mod:`repro.core.multiparty`).

    Runs ``steps`` calls to ``model.train_step`` on one aligned batch and
    returns the per-step losses (``None`` entries on endpoints where Party B
    is remote — loss only materialises at B).  Checkpoint cadence and crash
    injection are :func:`train_federated`'s (one shared step tail), adapted
    to the per-endpoint fabric layout: each endpoint writes its *own*
    local-parties checkpoint (see
    :func:`repro.core.checkpoint.save_endpoint_checkpoint`), and
    ``resume_from`` restores such a file onto a freshly built, identically
    seeded model so the continued trajectory is bit-identical to an
    uninterrupted run.  Opens no ``batch`` span: callers that trace wrap
    ``model.train_step`` themselves.
    """
    from repro.core.checkpoint import (
        restore_endpoint_checkpoint,
        save_endpoint_checkpoint,
    )

    start = 0
    losses: list[float | None] = []
    if resume_from is not None:
        start, saved = restore_endpoint_checkpoint(resume_from, model)
        if model.ctx.is_local("B"):
            losses = list(saved)
        else:
            # Non-B endpoints never see losses; keep index parity with B.
            losses = [None] * start
    for k in range(start, steps):
        losses.append(
            model.train_step(
                x_by_party, labels, lr=config.lr, momentum=config.momentum
            )
        )
        _finish_step(
            config, k + 1, start,
            lambda: save_endpoint_checkpoint(
                config.checkpoint_path, model, step=k + 1, losses=losses
            ),
        )
    return losses


def _finish_step(
    config: TrainConfig, step: int, first_step: int, save: Callable[[], object]
) -> None:
    """The tail of every training step: checkpoint cadence, then crash injection.

    ``step`` counts steps trained so far across resumes (``first_step`` of
    them restored rather than run here), so a resumed run checkpoints on
    the same steps an uninterrupted one would.  The injected crash counts
    steps run in *this* process and fires after the save, so the file a
    crashed run leaves behind always covers its last step.
    """
    if (
        config.checkpoint_path is not None
        and config.checkpoint_every > 0
        and step % config.checkpoint_every == 0
    ):
        save()
    ran = step - first_step
    if config.crash_after_batches is not None and ran >= config.crash_after_batches:
        from repro.core.checkpoint import TrainingInterrupted

        raise TrainingInterrupted(
            f"injected crash after {ran} steps in this process (step {step})",
            checkpoint_path=config.checkpoint_path,
        )


def _prefill_blinding(
    model: FederatedModule, count: int, parallel: ParallelContext | None
) -> None:
    """Refill every party key's obfuscation pool at an epoch boundary."""
    for ctx in model.federation_contexts():
        for party in ctx.parties.values():
            party.public_key.prefill_blinding(count, parallel=parallel)


def predict(
    model: FederatedModule, data: VerticalDataset, batch_size: int = 256
) -> np.ndarray:
    """Inference-mode forward over a dataset; returns raw model outputs."""
    outputs = []
    loader = BatchLoader(data, min(batch_size, data.n), shuffle=False, drop_last=False)
    with no_grad():
        for batch in loader:
            outputs.append(model.forward(batch, train=False).numpy())
    return np.vstack(outputs)


def evaluate_federated(
    model: FederatedModule, data: VerticalDataset, batch_size: int = 256
) -> dict[str, float]:
    """Test AUC (binary) or accuracy (multi-class), as in Figure 12."""
    scores = predict(model, data, batch_size)
    if data.n_classes == 2:
        return {"auc": roc_auc(data.y, scores.ravel())}
    return {"accuracy": accuracy(data.y, scores.argmax(axis=1))}


def batch_of(data: VerticalDataset, size: int, seed: int = 0) -> Batch:
    """Convenience: one random aligned batch (used by benches and tests)."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(data.n, size=min(size, data.n), replace=False)
    sliced = data.take_rows(idx)
    return Batch(parties=sliced.parties, y=sliced.y, indices=idx)
