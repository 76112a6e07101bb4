"""The four benchmark workloads and how one of them is run and checked.

Each workload is a frozen :class:`Spec`.  :func:`make_inputs` builds its
data from the seed alone; :func:`execute` takes those inputs through the
public entry points (``train_federated``, ``train_multiparty``,
``run_federation``) with a step clock shimmed onto the *model instance*;
:func:`failed_steps` compares the produced losses with a same-seed
reference.  Why each workload exists is recorded in ``BENCHMARK.json`` and
in the README beside this file.
"""

from __future__ import annotations

import cProfile
import contextlib
import math
import pstats
import threading
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.comm.fabric import run_federation
from repro.comm.party import VFLConfig, VFLContext
from repro.core.models import FederatedDLRM, FederatedLR, FederatedWDL
from repro.core.multiparty import MultiPartyLR
from repro.core.trainer import TrainConfig, train_federated, train_multiparty
from repro.data.loader import BatchLoader
from repro.data.partition import split_vertical
from repro.data.synthetic import make_dense_classification, make_mixed_classification
from repro.obs import Tracer, use_tracer
from repro.obs import span as obs_span
from repro.tensor.losses import bce_with_logits
from repro.tensor.optim import SGD
from repro.tensor.tensor import Tensor

WARMUP = 2  # steps per run that belong to set-up, not to the timed window
LR, MOMENTUM = 0.05, 0.9  # the paper's defaults
FABRIC_ROLES = {"ep_a": ("A1", "A2"), "ep_b": ("B",)}
FABRIC_IN_DIMS = {"A1": 4, "A2": 4}
FABRIC_TIMEOUT_S = 60.0
REFERENCE_STEPS = {"two_party": 5, "fabric": 20}


@dataclass(frozen=True)
class Spec:
    name: str
    model: str  # lr | dlrm | wdl | mplr
    key_bits: int
    channel: str  # memory | serializing | fabric
    packing: bool
    refresh: str
    batch: int
    rows: int  # dataset rows (mplr: the one fixed batch)

    @property
    def fabric(self) -> bool:
        return self.channel == "fabric"

    @property
    def batches_per_epoch(self) -> int:
        return self.rows // self.batch

    def config(self) -> dict:
        return {
            "model": self.model, "key_bits": self.key_bits,
            "channel": self.channel, "packing": self.packing,
            "share_refresh": self.refresh, "batch": self.batch,
        }


SPECS = {
    s.name: s
    for s in (
        Spec("lr_dense_mem", "lr", 512, "memory", False, "reencrypt", 16, 272),
        Spec("dlrm_packed_mem", "dlrm", 256, "memory", True, "delta", 8, 136),
        Spec("wdl_unpacked_ser", "wdl", 256, "serializing", False, "reencrypt", 8, 136),
        Spec("mplr_fabric2", "mplr", 128, "fabric", False, "reencrypt", 16, 16),
    )
}


@dataclass
class Run:
    """What one execution of a workload produced, as measured from outside."""

    planned: int  # steps asked for, warm-up included
    t_start: float  # generated inputs in hand
    stamps: list[float] = field(default_factory=list)  # step entries + return
    step_bytes: list[int] = field(default_factory=list)  # wire bytes per step
    losses: list[float] = field(default_factory=list)
    error: str | None = None
    trace: list[dict] | None = None  # the program's own tracer, when traced
    spans: list[tuple] | None = None  # instrument.Recorder spans, when traced
    thread: int = 0  # the protocol thread those spans are folded on
    fabric: dict = field(default_factory=dict)  # spawn/shutdown/link ledgers
    profile_top: list[dict] | None = None

    @property
    def step_s(self) -> np.ndarray:
        return np.diff(self.stamps)[WARMUP:]

    @property
    def setup_s(self) -> float:
        return self.stamps[WARMUP] - self.t_start


def make_inputs(spec: Spec, seed: int):
    """The workload's inputs, a function of the seed and nothing else."""
    if spec.model == "lr":
        return split_vertical(make_dense_classification(spec.rows, 28, seed=seed))
    if spec.model == "mplr":
        rng = np.random.default_rng(seed)
        x = {p: rng.normal(size=(spec.rows, 4)) for p in ("A1", "A2", "B")}
        return x, (rng.random(spec.rows) < 0.5).astype(np.float64)
    return split_vertical(
        make_mixed_classification(
            spec.rows, sparse_dim=40, nnz_per_row=4, n_fields=4, vocab_size=6,
            seed=seed,
        )
    )


def plan_epochs(total_steps: int, batches_per_epoch: int) -> tuple[int, int]:
    """``(epochs, max_batches_per_epoch)`` that run exactly ``total_steps``."""
    per_epoch = next(
        m for m in range(min(batches_per_epoch, total_steps), 0, -1)
        if total_steps % m == 0
    )
    return total_steps // per_epoch, per_epoch


def _vfl_config(spec: Spec, reference: bool = False) -> VFLConfig:
    """The workload's federation config, or its memory/unpacked reference.

    The reference keeps the refresh mode: ``delta`` is lazy sparse momentum,
    a different optimiser from ``reencrypt`` once momentum is on.
    """
    return VFLConfig(
        key_bits=spec.key_bits,
        share_refresh=spec.refresh,
        packing=False if reference else spec.packing,
        channel="memory" if reference or spec.fabric else spec.channel,
        record_transcript=False,
    )


def _build_two_party(spec: Spec, data, seed: int, reference: bool = False):
    ctx = VFLContext(_vfl_config(spec, reference), seed=seed)
    if spec.model == "lr":
        return ctx, FederatedLR(ctx, 14, 14)
    vocab_a, vocab_b = data.party("A").vocab_sizes, data.party("B").vocab_sizes
    if spec.model == "dlrm":
        return ctx, FederatedDLRM(
            ctx, 20, 20, vocab_a, vocab_b, emb_dim=4, arm_dim=4, top_hidden=[4],
            seed=seed,
        )
    return ctx, FederatedWDL(
        ctx, 20, 20, vocab_a, vocab_b, emb_dim=2, deep_hidden=[4], seed=seed
    )


def _train_config(spec: Spec, seed: int, epochs: int, traced: bool) -> TrainConfig:
    return TrainConfig(
        epochs=epochs, batch_size=spec.batch, lr=LR, momentum=MOMENTUM, seed=seed,
        parallel_workers=0, blinding_pool_per_epoch=0,
        telemetry="memory" if traced else None,
    )


@contextlib.contextmanager
def _profiled(run: Run, enabled: bool):
    if not enabled:
        yield
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler).stats  # (file, line, name) -> tuple
        top = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:20]
        run.profile_top = [
            {
                "function": f"{path.rsplit('/', 1)[-1]}:{line}({name})",
                "calls": ncalls, "self_s": tottime, "cumulative_s": cumtime,
            }
            for (path, line, name), (_cc, ncalls, tottime, cumtime, _callers) in top
        ]


def _execute_two_party(spec, data, seed, steps, traced, profile) -> Run:
    run = Run(planned=steps, t_start=perf_counter())
    ctx, model = _build_two_party(spec, data, seed)
    forward, ledger = model.forward, ctx.channel.total_bytes

    def stamped_forward(*args, **kwargs):  # the step clock, on the instance
        run.step_bytes.append(ledger())
        run.stamps.append(perf_counter())
        return forward(*args, **kwargs)

    model.forward = stamped_forward
    epochs, per_epoch = plan_epochs(steps, spec.batches_per_epoch)
    config = _train_config(spec, seed, epochs, traced)
    try:
        with _profiled(run, profile):
            history = train_federated(
                model, data, config, max_batches_per_epoch=per_epoch
            )
        run.losses, run.trace = history.losses, history.trace
    except Exception:
        run.error = traceback.format_exc()
    run.stamps.append(perf_counter())
    run.step_bytes = np.diff(run.step_bytes + [ledger()]).tolist()
    run.thread = threading.get_ident()
    return run


def _fabric_program(channel, spec, inputs, seed, steps, recorder, profile):
    """One endpoint's side of ``mplr_fabric2``; only Party B's is measured."""
    t_program = perf_counter()
    x, y = inputs
    ctx = VFLContext(
        _vfl_config(spec), seed=seed, n_a_parties=2, channel=channel,
        local_parties=channel.local_parties,
    )
    model = MultiPartyLR(ctx, dict(FABRIC_IN_DIMS), 4)
    x_local = {p: v for p, v in x.items() if ctx.is_local(p)}
    config = TrainConfig(lr=LR, momentum=MOMENTUM)
    if not ctx.is_local("B"):
        train_multiparty(model, x_local, None, config, steps=steps)
        return None
    run = Run(planned=steps, t_start=0.0)
    # Receiver threads account inbound frames whenever they land, so a
    # ledger read at a step boundary can race the peer's next frame;
    # the tag names the step a frame belongs to.
    by_step: dict[int, int] = {}
    lock = threading.Lock()
    account = channel._account

    def account_by_step(msg):
        step = msg.tag.split(".")[1]
        if step.isdigit():
            with lock:
                by_step[int(step)] = by_step.get(int(step), 0) + msg.nbytes
        account(msg)

    channel._account = account_by_step
    train_step = model.train_step

    def stamped_step(*args, **kwargs):  # the step clock, and the tracer's batch
        run.stamps.append(perf_counter())
        with obs_span("batch"):
            return train_step(*args, **kwargs)

    model.train_step = stamped_step
    traced = recorder is not None
    tracer = Tracer() if traced else None
    try:
        with use_tracer(tracer), _profiled(run, profile):
            run.losses = train_multiparty(model, x_local, y, config, steps=steps)
    except Exception:
        run.error = traceback.format_exc()
    run.stamps.append(perf_counter())
    run.step_bytes = [by_step.get(k, 0) for k in range(1, len(run.stamps))]
    run.trace = tracer.to_dicts() if traced else None
    run.spans = recorder.spans if traced else None
    run.thread = threading.get_ident()
    run.fabric = {"t_program": t_program}
    return run


def _execute_fabric(spec, inputs, seed, steps, recorder, profile) -> Run:
    t_start = perf_counter()
    try:
        out = run_federation(
            _fabric_program,
            (spec, inputs, seed, steps, recorder, profile),
            roles=FABRIC_ROLES, mirror=False, timeout=FABRIC_TIMEOUT_S,
            record_transcript=False,
        )
    except Exception:
        return Run(planned=steps, t_start=t_start, error=traceback.format_exc())
    t_returned = perf_counter()
    run = out["results"]["ep_b"]
    run.t_start = t_start
    run.fabric = {
        "spawn_s": run.fabric["t_program"] - t_start,
        "shutdown_s": t_returned - run.stamps[-1],
        "link_stats": out["link_stats"],
    }
    return run


def execute(
    spec: Spec, inputs, seed: int, steps: int, *, recorder=None, profile: bool = False
) -> Run:
    """Run ``steps`` training steps (warm-up included) of one workload.

    ``recorder`` makes it a traced run: it is the already-installed
    :class:`instrument.Recorder` whose spans belong to this run (the fabric
    endpoints inherit the shims through ``fork``), and the program's own
    tracer is turned on beside it.
    """
    if spec.fabric:
        return _execute_fabric(spec, inputs, seed, steps, recorder, profile)
    traced = recorder is not None
    run = _execute_two_party(spec, inputs, seed, steps, traced, profile)
    run.spans = recorder.spans if traced else None
    return run


# ---------------------------------------------------------------- checks


def reference_losses(spec: Spec, inputs, seed: int, steps: int) -> list[float]:
    """Leading losses of the same-seed reference the workload must reproduce.

    The plaintext twin for ``lr_dense_mem`` (the lossless claim), the
    all-local run on the fabric, the memory/unpacked run otherwise.
    """
    steps = min(steps, REFERENCE_STEPS["fabric" if spec.fabric else "two_party"])
    if spec.model == "mplr":
        x, y = inputs
        ctx = VFLContext(_vfl_config(spec), seed=seed, n_a_parties=2)
        model = MultiPartyLR(ctx, dict(FABRIC_IN_DIMS), 4)
        return train_multiparty(
            model, x, y, TrainConfig(lr=LR, momentum=MOMENTUM), steps=steps
        )
    if spec.model == "lr":
        return _plaintext_twin_losses(spec, inputs, seed, steps)
    _ctx, model = _build_two_party(spec, inputs, seed, reference=True)
    epochs, per_epoch = plan_epochs(steps, spec.batches_per_epoch)
    return train_federated(
        model, inputs, _train_config(spec, seed, epochs, traced=False),
        max_batches_per_epoch=per_epoch,
    ).losses


def _plaintext_twin_losses(spec: Spec, data, seed: int, steps: int) -> list[float]:
    """Plain LR from the federated model's revealed initial weights (Fig. 12)."""
    _ctx, model = _build_two_party(spec, data, seed)
    w0 = model.source.reveal_weights()
    weight = Tensor(np.vstack([w0["W_A"], w0["W_B"]]), requires_grad=True)
    bias = Tensor(np.zeros(1), requires_grad=True)
    optimizer = SGD([weight, bias], lr=LR, momentum=MOMENTUM)
    loader = BatchLoader(data, spec.batch, rng=np.random.default_rng(seed))
    losses = []
    for batch, _ in zip(loader, range(steps)):
        x = np.hstack([batch.party("A").x_dense, batch.party("B").x_dense])
        optimizer.zero_grad()
        loss = bce_with_logits(Tensor(x) @ weight + bias, batch.y)
        loss.backward()
        optimizer.step()
        losses.append(loss.item())
    return losses


def failed_steps(spec: Spec, run: Run, reference: list[float]) -> tuple[int, list[str]]:
    """``(failed step count, reasons)`` for one run.

    A step fails when it never ran (everything after a crash), when its
    loss is not finite, or when it is one of the leading steps and its loss
    is off the reference: by more than 1e-4 from the plaintext twin, 1e-6
    from the memory/unpacked run, or at all from the all-local fabric run.
    A fabric run with a dirty link ledger fails every step.
    """
    reasons = []
    done = len(run.losses)
    bad = set(range(done, run.planned))
    if run.error is not None:
        reasons.append(f"run died after {done} steps:\n{run.error}")
    for k, loss in enumerate(run.losses):
        if loss is None or not math.isfinite(loss):
            bad.add(k)
            reasons.append(f"step {k}: non-finite loss {loss!r}")
    tolerance = {"mplr": 0.0, "lr": 1e-4}.get(spec.model, 1e-6)
    for k, (got, want) in enumerate(zip(run.losses, reference)):
        if got is None or not abs(got - want) <= tolerance:
            bad.add(k)
            reasons.append(f"step {k}: loss {got!r} != reference {want!r}")
    if spec.fabric and run.error is None:
        dirty = _dirty_ledger(run.fabric["link_stats"])
        if dirty:
            bad.update(range(run.planned))
            reasons.append(f"link ledger not clean: {dirty}")
    return len(bad), reasons


RECOVERY_COUNTERS = ("retransmits", "naks_sent", "naks_received", "timeouts", "reconnects")


def _dirty_ledger(link_stats: dict) -> list[str]:
    b_to_a = link_stats["ep_b"]["ep_a"]
    a_to_b = link_stats["ep_a"]["ep_b"]
    dirty = [
        f"{role}.{name}={ledger[name]}"
        for role, ledger in (("ep_b", b_to_a), ("ep_a", a_to_b))
        for name in RECOVERY_COUNTERS
        if ledger[name]
    ]
    for sender, receiver in ((b_to_a, a_to_b), (a_to_b, b_to_a)):
        if sender["data_sent"] != receiver["data_received"]:
            dirty.append(
                f"data_sent {sender['data_sent']} != "
                f"data_received {receiver['data_received']}"
            )
    return dirty
