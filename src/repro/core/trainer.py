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
(per-iteration training loss, per-epoch test metric).  The loop runs per
endpoint: on a fabric endpoint it drives only that endpoint's parties.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.federated import FederatedModule
from repro.obs.collect import JsonlSink
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


# The accepted ``TrainConfig.telemetry`` values.
TELEMETRY = (None, "memory", "jsonl")


@dataclass
class TrainConfig:
    """What the training *loop* owns (paper defaults: lr 0.05, batch 128,
    momentum 0.9).  Protocol parameters — key size, packing, channel tier,
    share refresh — are fixed when the federation is built and live on
    :class:`~repro.comm.party.VFLConfig`.

    Training is serial and every obfuscation blinder is drawn on demand:
    ``parallel_workers`` and ``blinding_pool_per_epoch`` remain only so
    callers that pass 0 keep working, and a value above 1 (above 0 for
    the pool) raises ``ValueError`` instead of being silently ignored.
    ``checkpoint_path`` + ``checkpoint_every`` persist the full training
    state (see :mod:`repro.core.checkpoint`) as codec frames on disk
    whenever the number of batches trained so far — restored ones
    included — is a multiple of N; resuming via ``train_federated(resume_from=...)`` is
    bit-identical to never having stopped.  ``crash_after_batches`` is the
    fault-injection knob for testing that property: the trainer raises
    :class:`~repro.core.checkpoint.TrainingInterrupted` after that many
    batches have run in this process.
    ``telemetry`` turns on the phase tracer (see :mod:`repro.obs`) for the
    run: ``"memory"`` keeps the trace on ``History.trace``, ``"jsonl"``
    also streams each span to ``telemetry_path`` as it closes.  ``None``
    is the default: no tracer is installed and every instrumentation site
    short-circuits on one ``is None`` check.  Any other format (a
    Chrome/Perfetto timeline, the per-party cost table) is a function of
    the span list — see :mod:`repro.obs.collect` and :mod:`repro.obs.report`.
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

    def __post_init__(self) -> None:
        if self.parallel_workers > 1:
            raise ValueError(
                f"parallel_workers={self.parallel_workers}: training runs "
                "serially; only 0 or 1 is accepted"
            )
        if self.blinding_pool_per_epoch > 0:
            raise ValueError(
                f"blinding_pool_per_epoch={self.blinding_pool_per_epoch}: "
                "blinders are drawn on demand; only 0 is accepted"
            )
        if self.telemetry not in TELEMETRY:
            raise ValueError(
                f"telemetry={self.telemetry!r}: expected one of {TELEMETRY}"
            )
        if self.telemetry == "jsonl" and self.telemetry_path is None:
            raise ValueError("telemetry='jsonl' requires a telemetry_path")


@dataclass
class History:
    """Convergence record: loss per iteration, metric per epoch (``None``
    entries on a fabric endpoint where Party B is remote)."""

    losses: list[float | None] = field(default_factory=list)
    epoch_metrics: list[float | None] = field(default_factory=list)
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
    resume_from: str | None = None,  # repro: api-ok kill-and-resume from a checkpoint
) -> History:
    """Train with FederatedSGD; returns the convergence history.

    ``resume_from`` restores a checkpoint written by an earlier run onto
    this (freshly rebuilt, identically seeded) model and continues from
    the exact batch after it — RNG and blinding streams, momentum
    buffers and the mini-batch order all resume bit-identically, so the
    final trajectory matches an uninterrupted run.  The checkpoint never
    holds private keys; rebuilding the model from its seeds is what
    brings the key owner's private key back.

    On a fabric endpoint (:func:`repro.comm.fabric.run_federation`) the
    loader hands out only the hosted parties' blocks of each batch (the
    order comes from the shared seed), the top model and the loss run only
    where Party B is local — elsewhere losses and test metrics are
    ``None``, as in :func:`train_multiparty` — and the checkpoint covers
    the hosted parties only.
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
    local = next(model.federation_contexts()).local_parties
    start_epoch, resume_order, resume_batch = 0, None, 0
    if resume_from is not None:
        sections = load_checkpoint(resume_from, key_ring=model_key_ring(model))
        resume = restore_checkpoint(model, optimizer, rng, sections)
        start_epoch = resume.epoch
        resume_order = resume.order
        resume_batch = resume.next_batch
        history = resume.history
    tracer: Tracer | None = None
    if config.telemetry is not None:
        sink = JsonlSink(config.telemetry_path) if config.telemetry == "jsonl" else None
        tracer = Tracer(sink=sink)
        scope = use_tracer(tracer)
    else:
        scope = contextlib.nullcontext(None)
    first_step = len(history.losses)
    with scope:
        for epoch in range(start_epoch, config.epochs):
            with _obs.span("epoch", epoch=epoch):
                resuming = epoch == start_epoch and resume_order is not None
                if resuming:
                    # Mid-epoch re-entry: the order shuffle already happened
                    # before the checkpoint was written — its effect lives
                    # in the restored RNG states.
                    order, first_batch = resume_order, resume_batch
                else:
                    order, first_batch = None, 0
                loader = BatchLoader(train_data, config.batch_size, rng=rng, parties=local)
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
                        loss = None if output is None else criterion(output, batch.y)
                        if loss is not None:
                            loss.backward()
                        model.backward_sources()
                        optimizer.step()
                        history.losses.append(None if loss is None else loss.item())
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
    resume_from: str | None = None,  # repro: api-ok kill-and-resume from an endpoint checkpoint
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

    start, losses = 0, []
    if resume_from is not None:
        start, losses = restore_endpoint_checkpoint(resume_from, model)
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


def predict(
    model: FederatedModule, data: VerticalDataset, batch_size: int = 256
) -> np.ndarray | None:
    """Inference-mode forward over a dataset; returns raw model outputs
    (``None`` on a fabric endpoint where Party B is remote)."""
    local = next(model.federation_contexts()).local_parties
    outputs = []
    loader = BatchLoader(
        data, min(batch_size, data.n), shuffle=False, drop_last=False, parties=local
    )
    with no_grad():
        for batch in loader:
            out = model.forward(batch, train=False)
            outputs.append(None if out is None else out.numpy())
    return None if outputs[0] is None else np.vstack(outputs)


def evaluate_federated(
    model: FederatedModule, data: VerticalDataset, batch_size: int = 256
) -> dict[str, float | None]:
    """Test AUC (binary) or accuracy (multi-class), as in Figure 12
    (``None`` where Party B, the label holder, is remote)."""
    scores = predict(model, data, batch_size)
    if data.n_classes == 2:
        return {"auc": None if scores is None else roc_auc(data.y, scores.ravel())}
    return {"accuracy": None if scores is None else accuracy(data.y, scores.argmax(axis=1))}


def batch_of(data: VerticalDataset, size: int, seed: int) -> Batch:
    """One random aligned batch of up to ``size`` rows, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(data.n, size=min(size, data.n), replace=False)
    sliced = data.take_rows(idx)
    return Batch(parties=sliced.parties, y=sliced.y, indices=idx)
