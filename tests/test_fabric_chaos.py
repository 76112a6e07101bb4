"""Chaos tests for the N-party fabric: faults, deaths, and resume.

Tier-1 keeps the headline cases under hard timeouts:

* a seeded drop+corrupt+duplicate+disconnect schedule on the A1<->B pair
  of a 3-endpoint star that must land **bit-identical** (losses
  float-exact, pooled weight pieces array-equal) to the all-local
  in-memory reference, with the recovery visible in that pair's ledgers
  and the untouched A2<->B pair still counting zero;
* the whole grid killed mid-epoch (injected ``TrainingInterrupted``
  after each endpoint's checkpoint) and resumed via
  ``run_federation(resume_from=...)`` to the uninterrupted trajectory;
* one endpoint dying without a FIN: the driver fails fast with the dead
  role named (kill-one-of-three), and a surviving endpoint's ``recv``
  surfaces ``peer ... unreachable`` once the reconnect budget is spent
  instead of hanging until the protocol deadline.

The heavier 4-endpoint grids carry the ``chaos`` marker:
``pytest -m chaos``.
"""

from __future__ import annotations

import os
import socket
import time

import numpy as np
import pytest

from test_fabric import (
    FABRIC_TIMEOUT,
    GRID3,
    IN_B,
    IN_DIMS,
    TRAIN_LR,
    TRAIN_STEPS,
    _assert_clean,
    _batches,
    _make_ctx,
    _memory_reference,
    train_program,
)

from repro.comm.fabric import FabricChannel, FabricTopology, run_federation
from repro.comm.faults import FaultPlan
from repro.comm.transport import (
    FatalTransportError,
    RetryPolicy,
    TransportError,
)
from repro.core.checkpoint import TrainingInterrupted
from repro.core.multiparty import MultiPartyLR
from repro.core.trainer import TrainConfig, train_multiparty

GRID4 = {
    "ep_a1": ("A1",),
    "ep_a2": ("A2",),
    "ep_a3": ("A3",),
    "ep_b": ("B",),
}
IN_DIMS4 = {"A1": 3, "A2": 2, "A3": 2}


def _pooled_pieces(out):
    pooled = {}
    for role in out["results"]:
        pooled.update(out["results"][role]["pieces"])
    return pooled


# ---------------------------------------------------------------------------
# Programs (module scope: picklable under both fork and spawn).


def chaos_ckpt_program(channel, in_dims, steps, ckpt_base, every, crash_after):
    """Train the N-party LR with per-endpoint checkpoints; crash or resume.

    Each endpoint checkpoints only its local parties' state under
    ``f"{ckpt_base}.{role}"``; on resume the driver hands the same
    per-role path back as ``channel.resume_from``.
    """
    ctx = _make_ctx(channel, n_a=len(in_dims))
    model = MultiPartyLR(ctx, dict(in_dims), IN_B)
    x_full, y = _batches()
    x = {k: v for k, v in x_full.items() if ctx.is_local(k)}
    labels = y if ctx.is_local("B") else None
    config = TrainConfig(
        lr=TRAIN_LR,
        momentum=0.9,
        checkpoint_path=(
            None
            if ckpt_base is None
            else f"{ckpt_base}.{channel.role}"
        ),
        checkpoint_every=every,
        crash_after_batches=crash_after,
    )
    try:
        losses = train_multiparty(
            model, x, labels, config, steps=steps,
            resume_from=channel.resume_from,
        )
    except TrainingInterrupted as exc:
        return {"interrupted": True, "checkpoint": exc.checkpoint_path}
    return {
        "losses": losses,
        "pieces": model.source.local_weight_pieces(),
    }


def dying_program(channel, in_dims, steps):
    """ep_a2 vanishes after step 1 — no FIN, no result report, just gone."""
    ctx = _make_ctx(channel, n_a=len(in_dims))
    model = MultiPartyLR(ctx, dict(in_dims), IN_B)
    x_full, y = _batches()
    x = {k: v for k, v in x_full.items() if ctx.is_local(k)}
    labels = y if ctx.is_local("B") else None
    for k in range(steps):
        model.train_step(x, labels, lr=TRAIN_LR)
        if k == 0 and channel.role == "ep_a2":
            os._exit(9)  # a real crash: skips shutdown, FIN and reporting
    return True


# ---------------------------------------------------------------------------
# Tier-1: faults on one pair of the star, bit-identical to memory.


def test_fabric_chaos_faulted_pair_is_bit_identical():
    """Seeded drops, corruption, duplicates and one mid-run disconnect on
    BOTH directions of the A1<->B pair; the grid must still train
    bit-identically to the all-local reference, the recovery must be
    visible in that pair's ledgers, and the untouched A2<->B pair must
    stay exactly clean."""
    plans = {
        ("ep_a1", "ep_b"): FaultPlan.seeded(
            61, frames=200, drop_rate=0.08, corrupt_rate=0.08,
            duplicate_rate=0.05, disconnect_at=5,
        ),
        ("ep_b", "ep_a1"): FaultPlan.seeded(
            62, frames=200, drop_rate=0.08, corrupt_rate=0.08,
            duplicate_rate=0.05,
        ),
    }
    out = run_federation(
        train_program, (IN_DIMS,), roles=GRID3, timeout=FABRIC_TIMEOUT,
        sock_timeout=0.5, fault_plans=plans,
    )
    ref_losses, ref_pieces, _ = _memory_reference()
    assert out["results"]["ep_b"]["losses"] == ref_losses
    pooled = _pooled_pieces(out)
    assert set(pooled) == set(ref_pieces)
    for name, value in ref_pieces.items():
        np.testing.assert_array_equal(pooled[name], value)
    stats = out["link_stats"]
    a1 = stats["ep_a1"]["ep_b"]
    b = stats["ep_b"]["ep_a1"]
    # The injected disconnect forces one reconnect, seen from both ends.
    assert a1["reconnects"] >= 1 and a1["resumes"] >= 1
    assert b["reconnects"] >= 1 and b["resumes"] >= 1
    recovery = sum(
        side[counter]
        for side in (a1, b)
        for counter in ("retransmits", "naks_sent", "corrupt_dropped",
                        "duplicates_dropped", "timeouts")
    )
    assert recovery > 0, (a1, b)
    # 100% delivery on the faulted pair: every logical frame accepted.
    assert a1["data_sent"] == b["data_received"]
    assert b["data_sent"] == a1["data_received"]
    # The fault-free pair never paid for its neighbours' chaos.
    _assert_clean(stats["ep_a2"]["ep_b"])
    _assert_clean(stats["ep_b"]["ep_a2"])


# ---------------------------------------------------------------------------
# Tier-1: kill the whole grid mid-epoch, resume bit-identically.


def test_fabric_kill_grid_then_resume_bit_identical(tmp_path):
    """All three endpoints die after checkpointing step 2 of 4; a fresh
    grid resumed via ``run_federation(resume_from=...)`` finishes with
    the uninterrupted run's exact losses and weight pieces."""
    base = str(tmp_path / "grid.ckpt")
    steps = 4
    first = run_federation(
        chaos_ckpt_program, (IN_DIMS, steps, base, 2, 2),
        roles=GRID3, timeout=FABRIC_TIMEOUT,
    )
    for role in GRID3:
        assert first["results"][role]["interrupted"] is True
        expected = f"{base}.{role}"
        assert first["results"][role]["checkpoint"] == expected
        assert os.path.exists(expected)
    # Leg 2: fresh processes, fresh sockets, resume from the checkpoints.
    second = run_federation(
        chaos_ckpt_program, (IN_DIMS, steps, None, 0, None),
        roles=GRID3, timeout=FABRIC_TIMEOUT, resume_from=base,
    )
    ref_losses, ref_pieces, _ = _memory_reference(steps=steps)
    assert second["results"]["ep_b"]["losses"] == ref_losses
    pooled = _pooled_pieces(second)
    assert set(pooled) == set(ref_pieces)
    for name, value in ref_pieces.items():
        np.testing.assert_array_equal(pooled[name], value)


# ---------------------------------------------------------------------------
# Tier-1: endpoint death is detected fast and named.


def test_fabric_kill_one_of_three_fails_fast_with_role_named():
    """ep_a2 dies without a FIN mid-run: the driver must fail the grid
    well inside the protocol deadline with the dead role named, instead
    of letting the survivors hang out the full timeout."""
    start = time.monotonic()
    with pytest.raises(TransportError, match="ep_a2.*exit code 9"):
        run_federation(
            dying_program, (IN_DIMS, TRAIN_STEPS),
            roles=GRID3, timeout=FABRIC_TIMEOUT,
        )
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, (
        f"death detection took {elapsed:.1f}s — the watchdog is not "
        f"polling liveness, or the survivors are not reaped promptly"
    )


def test_fabric_inband_peer_death_names_unreachable_role():
    """A surviving endpoint whose established link dies FIN-less must
    surface ``peer ... unreachable`` from recv() once the bounded
    reconnect budget is spent — never hang."""
    topo = FabricTopology({"ep_a": ("A1",), "ep_z": ("B",)})
    listener_a = socket.create_server(("127.0.0.1", 0))
    listener_z = socket.create_server(("127.0.0.1", 0))
    ports = {
        "ep_a": listener_a.getsockname()[1],
        "ep_z": listener_z.getsockname()[1],
    }
    cha = FabricChannel("ep_a", topo, ports, listener_a, timeout=30.0)
    chz = FabricChannel("ep_z", topo, ports, listener_z, timeout=30.0)
    cha._close_timeout = chz._close_timeout = 0.5
    cha._retry = chz._retry = RetryPolicy(max_retries=2, base_delay=0.02, max_delay=0.05,
                                          jitter=0.1, seed=3)
    try:
        cha._ensure_link("ep_z")
        # Wait for ep_z's acceptor to register its side of the link.
        for _ in range(200):
            with chz._grid:
                if "ep_a" in chz._links:
                    break
            time.sleep(0.01)
        else:
            pytest.fail("ep_z never registered the accepted link")
        # FIN-less death of ep_z: sockets and listener vanish, no drain.
        chz._closing = True
        with chz._grid:
            dead_socks = [link.sock for link in chz._links.values()]
        for dead in dead_socks:
            dead.close()
        listener_z.close()
        with pytest.raises(FatalTransportError, match="peer 'ep_z' unreachable"):
            cha.recv("A1", tag="never.arrives")
    finally:
        cha._closing = True
        chz._closing = True
        for ch in (cha, chz):
            with ch._grid:
                socks = [link.sock for link in ch._links.values()]
            for s in socks:
                try:
                    s.close()
                except OSError:
                    pass
        for lst in (listener_a, listener_z):
            try:
                lst.close()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# The heavier grids (pytest -m chaos).


@pytest.mark.chaos
def test_chaos_four_endpoint_grid_bit_identical():
    """Faults on three of the star's directed links — disconnects
    included — across a 4-endpoint grid."""
    plans = {
        ("ep_a1", "ep_b"): FaultPlan.seeded(
            71, frames=400, drop_rate=0.06, corrupt_rate=0.06,
            duplicate_rate=0.04, disconnect_at=7,
        ),
        ("ep_b", "ep_a3"): FaultPlan.seeded(
            72, frames=400, drop_rate=0.06, corrupt_rate=0.06,
            duplicate_rate=0.04,
        ),
        ("ep_a2", "ep_b"): FaultPlan.seeded(
            73, frames=400, drop_rate=0.05, corrupt_rate=0.05,
            disconnect_at=11,
        ),
    }
    out = run_federation(
        train_program, (IN_DIMS4,), roles=GRID4, timeout=FABRIC_TIMEOUT * 2,
        sock_timeout=0.5, fault_plans=plans,
    )
    ref_losses, ref_pieces, _ = _memory_reference(in_dims=IN_DIMS4)
    assert out["results"]["ep_b"]["losses"] == ref_losses
    pooled = _pooled_pieces(out)
    for name, value in ref_pieces.items():
        np.testing.assert_array_equal(pooled[name], value)


@pytest.mark.chaos
def test_chaos_kill_grid_and_resume_under_faults(tmp_path):
    """Kill-and-resume with link faults active on BOTH legs."""
    base = str(tmp_path / "chaotic-grid.ckpt")
    steps = 4
    plans = {
        ("ep_a1", "ep_b"): FaultPlan.seeded(
            81, frames=300, drop_rate=0.05, corrupt_rate=0.05,
            disconnect_at=9,
        ),
    }
    first = run_federation(
        chaos_ckpt_program, (IN_DIMS, steps, base, 2, 2),
        roles=GRID3, timeout=FABRIC_TIMEOUT, sock_timeout=0.5,
        fault_plans=plans,
    )
    assert all(first["results"][role]["interrupted"] for role in GRID3)
    resume_plans = {
        ("ep_b", "ep_a1"): FaultPlan.seeded(
            82, frames=300, drop_rate=0.05, corrupt_rate=0.05,
        ),
    }
    second = run_federation(
        chaos_ckpt_program, (IN_DIMS, steps, None, 0, None),
        roles=GRID3, timeout=FABRIC_TIMEOUT, sock_timeout=0.5,
        fault_plans=resume_plans, resume_from=base,
    )
    ref_losses, ref_pieces, _ = _memory_reference(steps=steps)
    assert second["results"]["ep_b"]["losses"] == ref_losses
    pooled = _pooled_pieces(second)
    for name, value in ref_pieces.items():
        np.testing.assert_array_equal(pooled[name], value)
