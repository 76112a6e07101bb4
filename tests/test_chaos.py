"""Chaos tests: training through injected faults, kills, and resumes.

Tier-1 keeps two cases under hard timeouts:

* a seeded drop+corrupt+duplicate+reconnect schedule over a real
  two-role fabric run that must land **bit-identical** to the in-memory
  serializing tier — every frame included, because retransmitted
  envelopes are link overhead, never protocol bytes;
* a kill-and-resume: both endpoints die mid-epoch (injected
  ``TrainingInterrupted`` after the checkpoint), restart, resume from
  their own per-endpoint checkpoints and finish with the uninterrupted
  trajectory.

The full grid (more fault mixes, delays, Embed-MatMul) carries the
``chaos`` marker: ``pytest -m chaos``.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_transport import (
    _BUILDERS,
    ROLES,
    _assert_digests_match,
    _reference,
    local_pieces,
    train_program,
)

from repro.comm import VFLConfig, VFLContext
from repro.comm.fabric import run_federation
from repro.comm.faults import FaultPlan
from repro.core.checkpoint import TrainingInterrupted
from repro.core.trainer import TrainConfig, train_federated

CHAOS_TIMEOUT = 90.0
GRID_TIMEOUT = 300.0


# ---------------------------------------------------------------------------
# Programs (module scope: picklable under both fork and spawn).


def checkpoint_train_program(channel, base_path, resume, crash_after):
    """Train LR with per-batch checkpoints; optionally crash or resume.

    Each endpoint checkpoints its *own* parties' state under a
    role-specific path — neither side could hold the other's secret
    state, and on resume each side restores only its half.
    """
    ctx = VFLContext(VFLConfig(key_bits=128, packing=True), seed=3,
                     channel=channel)
    model, vd = _BUILDERS["lr"](ctx)
    path = f"{base_path}.{channel.role}"
    tc = TrainConfig(
        epochs=2, batch_size=16, lr=0.1, momentum=0.9, seed=0,
        checkpoint_path=path, checkpoint_every=1,
        crash_after_batches=crash_after,
    )
    try:
        history = train_federated(
            model, vd, tc, resume_from=path if resume else None
        )
    except TrainingInterrupted as exc:
        return {"interrupted": True, "checkpoint": exc.checkpoint_path}
    return {"losses": history.losses, "pieces": local_pieces(model)}


def _assert_resumed(second, reference):
    """The resumed legs, pooled, finish on the uninterrupted trajectory."""
    results = second["results"]
    assert results["host"]["losses"] == reference["losses"]
    assert results["guest"]["losses"] == [None] * len(reference["losses"])
    pooled = {**results["guest"]["pieces"], **results["host"]["pieces"]}
    assert set(pooled) == set(reference["pieces"])
    for name, value in reference["pieces"].items():
        np.testing.assert_array_equal(pooled[name], value, err_msg=name)


# ---------------------------------------------------------------------------
# Tier-1 smoke: faults on both endpoints, bit-identical to honest bytes.


def test_chaos_smoke_drop_corrupt_reconnect_is_bit_identical():
    """Seeded drops, corruption, duplicates and one mid-run disconnect on
    EACH direction of the link; the run must match the serializing tier
    bit-for-bit, every frame included (retransmissions are not protocol
    traffic)."""
    case = ("lr", True, 128)
    plans = {
        "guest": FaultPlan.seeded(
            41, frames=600, drop_rate=0.06, corrupt_rate=0.06,
            duplicate_rate=0.04, disconnect_at=23,
        ),
        "host": FaultPlan.seeded(
            42, frames=600, drop_rate=0.06, corrupt_rate=0.06,
            duplicate_rate=0.04, disconnect_at=57,
        ),
    }
    results = run_federation(
        train_program, case, roles=ROLES, timeout=CHAOS_TIMEOUT,
        sock_timeout=0.5, fault_plans=plans,
    )
    _assert_digests_match(results, _reference(*case))
    # The recovery counters come back with the results (no side channel):
    # the injected faults must be visible in the link's ledgers, and the
    # shutdown drain must have exchanged FINs.
    stats = {role: results["link_stats"][role][peer]
             for role, peer in (("guest", "host"), ("host", "guest"))}
    summed = {
        key: stats["guest"][key] + stats["host"][key] for key in stats["guest"]
    }
    recovery = (
        summed["retransmits"] + summed["naks_sent"] + summed["corrupt_dropped"]
        + summed["duplicates_dropped"] + summed["timeouts"]
    )
    assert recovery > 0, summed
    for role in ("guest", "host"):
        assert stats[role]["fins"] >= 1
        assert stats[role]["data_sent"] > 0


def test_kill_mid_epoch_then_resume_finishes_identically(tmp_path):
    """The headline scenario: both endpoints die mid-epoch under an
    injected disconnect, restart from their checkpoints, and the final
    losses/weights equal an uninterrupted run's exactly."""
    base = str(tmp_path / "federated.ckpt")
    # Leg 1: train under a disconnect fault, die after batch 4 of 6.
    plans = {"guest": FaultPlan.seeded(7, frames=400, disconnect_at=31)}
    first = run_federation(
        checkpoint_train_program, (base, False, 4), roles=ROLES,
        timeout=CHAOS_TIMEOUT, sock_timeout=0.5, fault_plans=plans,
    )
    for role in ("guest", "host"):
        assert first["results"][role]["interrupted"] is True
        assert first["results"][role]["checkpoint"] == f"{base}.{role}"
    # Leg 2: fresh processes, fresh sockets, resume from the checkpoints.
    second = run_federation(
        checkpoint_train_program, (base, True, None), roles=ROLES,
        timeout=CHAOS_TIMEOUT,
    )
    # Reference: the same program uninterrupted (losses/pieces only —
    # the resumed leg's channel counters start at the resume point).
    reference = _reference("lr", True, 128, "reencrypt", 2, 16)
    assert len(reference["losses"]) == 6
    _assert_resumed(second, reference)


# ---------------------------------------------------------------------------
# The full grid (pytest -m chaos).


@pytest.mark.chaos
@pytest.mark.parametrize(
    "model_kind,packing,key_bits,guest_seed,host_seed,disconnects",
    [
        ("lr", False, 128, 11, 12, (None, None)),
        ("lr", True, 256, 13, 14, (29, None)),
        ("wdl", False, 128, 15, 16, (None, 43)),
        ("wdl", True, 256, 17, 18, (37, 71)),
    ],
    ids=lambda v: str(v),
)
def test_chaos_grid_trains_bit_identically(
    model_kind, packing, key_bits, guest_seed, host_seed, disconnects
):
    """Heavier fault mixes (including delays) across both model families."""
    case = (model_kind, packing, key_bits)
    rates = dict(frames=1200, drop_rate=0.08, corrupt_rate=0.08,
                 duplicate_rate=0.05, delay_rate=0.03, delay=0.01)
    plans = {
        "guest": FaultPlan.seeded(guest_seed, disconnect_at=disconnects[0],
                                  **rates),
        "host": FaultPlan.seeded(host_seed, disconnect_at=disconnects[1],
                                 **rates),
    }
    results = run_federation(
        train_program, case, roles=ROLES, timeout=GRID_TIMEOUT,
        sock_timeout=0.5, fault_plans=plans,
    )
    _assert_digests_match(results, _reference(*case))


@pytest.mark.chaos
def test_chaos_kill_and_resume_under_faults(tmp_path):
    """Kill-and-resume with faults active on BOTH legs of the run."""
    base = str(tmp_path / "chaotic.ckpt")
    plans = {
        "guest": FaultPlan.seeded(21, frames=600, drop_rate=0.05,
                                  corrupt_rate=0.05, disconnect_at=19),
        "host": FaultPlan.seeded(22, frames=600, drop_rate=0.05,
                                 corrupt_rate=0.05),
    }
    first = run_federation(
        checkpoint_train_program, (base, False, 4), roles=ROLES,
        timeout=GRID_TIMEOUT, sock_timeout=0.5, fault_plans=plans,
    )
    assert all(
        first["results"][role]["interrupted"] for role in ("guest", "host")
    )
    resume_plans = {
        "guest": FaultPlan.seeded(23, frames=400, drop_rate=0.05,
                                  corrupt_rate=0.05),
        "host": FaultPlan.seeded(24, frames=400, drop_rate=0.05,
                                 corrupt_rate=0.05, disconnect_at=13),
    }
    second = run_federation(
        checkpoint_train_program, (base, True, None), roles=ROLES,
        timeout=GRID_TIMEOUT, sock_timeout=0.5, fault_plans=resume_plans,
    )
    _assert_resumed(second, _reference("lr", True, 128, "reencrypt", 2, 16))
