"""Federation fabric tests: one process per endpoint over the link grid.

The tier-1 core runs one 3-endpoint federation (two Party A processes
plus the key owner) under a hard timeout and checks it is bit-identical
to the all-local in-memory tier — losses float-exact, weight pieces
array-equal — plus a golden-transcript conformance check of the
per-endpoint protocol and the cross-endpoint trace collector.  The wider
grids (4+ endpoint processes) carry the ``nparty`` marker.

Program functions live at module scope so the runner works under both
``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import json
import os
import socket

import numpy as np
import pytest

import golden_transcript
from golden_transcript import message_summary
from repro.comm.fabric import FabricTopology, run_federation
from repro.comm.faults import FaultPlan
from repro.comm.party import VFLConfig, VFLContext
from repro.comm.transport import (
    ENV_OVERHEAD,
    FatalTransportError,
    TransportTimeout,
)
from repro.core.embed_matmul_layer import EmbedMatMulSource
from repro.core.matmul_layer import MatMulSource
from repro.core.multiparty import MultiPartyLR, MultiPartyMatMulSource
from repro.obs import JsonlSink, Tracer, counter_totals, use_tracer
from repro.obs import span as obs_span
from repro.obs.collect import (
    critical_path,
    chrome_timeline,
    merge_traces,
    read_jsonl_trace,
)
from repro.tensor.sparse import CSRMatrix

FABRIC_TIMEOUT = 90.0
TRAIN_STEPS = 3
TRAIN_LR = 0.1

GRID3 = {"ep_a1": ("A1",), "ep_a2": ("A2",), "ep_b": ("B",)}
IN_DIMS = {"A1": 3, "A2": 2}
IN_B = 2

# Counters that must stay zero on a clean loopback run: the reliability
# layer may only contribute the fixed envelope, never recovery traffic.
CLEAN_ZERO = (
    "retransmits",
    "naks_sent",
    "naks_received",
    "duplicates_dropped",
    "corrupt_dropped",
    "timeouts",
    "reconnects",
    "resumes",
)


def _batches():
    rng = np.random.default_rng(42)
    x = {
        "A1": rng.normal(size=(12, 3)),
        "A2": rng.normal(size=(12, 2)),
        "B": rng.normal(size=(12, 2)),
    }
    y = (rng.random(12) < 0.5).astype(np.float64)
    return x, y


def _make_ctx(channel=None, n_a=2, channel_kind=None, seed=5, **cfg_kwargs):
    if channel_kind is not None:
        cfg_kwargs["channel"] = channel_kind
    return VFLContext(
        VFLConfig(**{"key_bits": 128, **cfg_kwargs}),
        seed=seed,
        n_a_parties=n_a,
        channel=channel,
    )


def train_program(channel, in_dims, steps=TRAIN_STEPS, traced_dir=None):
    """Per-endpoint training: each process runs only its parties' side.

    A traced run installs its tracer before anything is built: a frame that
    landed before the install would be consumed inside a traced ``recv``
    span without its ``link.data_received`` on any span (a peer's first
    frame can beat this endpoint's model construction)."""
    tracer = None
    if traced_dir is not None:
        tracer = Tracer(
            sink=JsonlSink(os.path.join(traced_dir, f"{channel.role}.jsonl"))
        )
    losses = []
    with use_tracer(tracer):
        ctx = _make_ctx(channel, n_a=len(in_dims))
        model = MultiPartyLR(ctx, dict(in_dims), IN_B)
        x_full, y = _batches()
        if len(in_dims) != 2:  # wider grids re-slice the A features
            rng = np.random.default_rng(42)
            x_full = {
                name: rng.normal(size=(12, dim)) for name, dim in in_dims.items()
            }
            x_full["B"] = rng.normal(size=(12, IN_B))
        x = {k: v for k, v in x_full.items() if ctx.is_local(k)}
        labels = y if ctx.is_local("B") else None
        for k in range(steps):
            with obs_span("batch", batch=k):
                losses.append(model.train_step(x, labels, lr=TRAIN_LR))
    return {
        "losses": losses,
        "pieces": model.source.local_weight_pieces(),
        "bytes_by_sender": dict(channel.bytes_by_sender),
        "hub_built": model.source._b is not None,
        "spokes_built": sorted(model.source._a),
        "private_keys": sorted(
            name for name, party in ctx.parties.items() if party.private_key is not None
        ),
    }


def matmul_source_program(channel=None, steps=2, share_refresh="reencrypt"):
    """``MatMulSource`` under its own name: each endpoint feeds its party's
    batch only (``None`` for the other) and B alone sees Z and ``gZ``.  Under
    ``delta`` A's batches alternate CSR and dense (a third of X_A is zero)."""
    ctx = _make_ctx(channel, n_a=1, share_refresh=share_refresh)
    layer = MatMulSource(ctx, 3, IN_B, 2, name="mm")
    rng = np.random.default_rng(7)
    zs = []
    for step in range(steps):
        x_a, x_b, gz = rng.normal(size=(4, 3)), rng.normal(size=(4, IN_B)), rng.normal(size=(4, 2))
        if share_refresh == "delta" and step % 2 == 0:
            x_a[:, 1] = 0.0
            x_a = CSRMatrix.from_dense(x_a)
        zs.append(layer.forward(x_a if ctx.is_local("A") else None,
                                x_b if ctx.is_local("B") else None))
        layer.backward(gz if ctx.is_local("B") else None)
        layer.apply_updates(lr=TRAIN_LR, momentum=0.9)
    pieces = {}
    if layer._a is not None:
        pieces.update(U_A=layer._a.u, VB_A=layer._a.v_b)
    if layer._b is not None:
        pieces.update(U_B=layer._b.u, V_A=layer._b.v_a["A"])
    supports = [m.payload for m in ctx.channel.transcript if m.tag.endswith(".bwd.support")]
    return {"z": zs, "pieces": pieces, "supports": supports}


EMBED_CELLS = [(packing, refresh) for packing in (False, True) for refresh in ("reencrypt", "delta")]


def embed_program(channel=None, steps=3):
    """A two-party ``EmbedMatMulSource`` per packing x refresh cell (256-bit
    keys where packed): each endpoint feeds its own party's ids only and
    reports the end(s) it built, its plaintext pieces and Z where B is."""
    cells = []
    for k, (packing, refresh) in enumerate(EMBED_CELLS):
        ctx = _make_ctx(channel, n_a=1, seed=40 + k, key_bits=256 if packing else 128,
                        packing=packing, share_refresh=refresh)
        layer = EmbedMatMulSource(ctx, [4, 3], [5, 2], emb_dim=2, out_dim=2, name=f"em{k}")
        rng = np.random.default_rng(k)
        zs = []
        for _ in range(steps):
            x_a = rng.integers(0, [4, 3], size=(4, 2))
            x_b, gz = rng.integers(0, [5, 2], size=(4, 2)), rng.normal(size=(4, 2)) * 0.1
            zs.append(layer.forward(x_a if ctx.is_local("A") else None,
                                    x_b if ctx.is_local("B") else None))
            layer.backward(gz if ctx.is_local("B") else None)
            layer.apply_updates(lr=TRAIN_LR, momentum=0.9)
        cells.append({
            "z": zs,
            "ends": [end.name for end in layer._ends],
            "pieces": {f"{end.name}.{slot}": getattr(end, slot) for end in layer._ends
                       for slot in ("s", "t_peer", "u", "v_peer")},
            "private_keys": sorted(n for n, p in ctx.parties.items() if p.private_key is not None),
        })
    return cells


def late_key_program(channel):
    """A second context on a channel whose link is already up: B encrypts
    under the new keys at once, while A builds its second context late, so
    B's frame reaches A before A's own context registers those keys."""
    import time

    from repro.comm.message import MessageKind
    from repro.crypto.crypto_tensor import CryptoTensor

    first = _make_ctx(channel, n_a=1, seed=60)
    if first.is_local("B"):
        channel.send("B", "A", "warm", 1, MessageKind.PUBLIC)  # dials the link
        second = _make_ctx(channel, n_a=1, seed=61)
        tensor = CryptoTensor.encrypt(second.A.public_key, np.arange(3.0))
        channel.send("B", "A", "ct", tensor, MessageKind.CIPHERTEXT)
        return {"back": channel.recv("B", "back").decrypt(second.B.private_key).tolist()}
    channel.recv("A", "warm")
    time.sleep(0.5)
    second = _make_ctx(channel, n_a=1, seed=61)
    got = channel.recv("A", "ct").decrypt(second.A.private_key)
    back = CryptoTensor.encrypt(second.B.public_key, got * 2)
    channel.send("A", "B", "back", back, MessageKind.CIPHERTEXT)
    return {"got": got.tolist()}


def nodelay_program(channel, in_dims):
    """Train, then report ``TCP_NODELAY`` of every link socket in use."""
    out = train_program(channel, in_dims)
    out["nodelay"] = {
        peer: link.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        for peer, link in channel._links.items()
    }
    return out


def _memory_reference(in_dims=IN_DIMS, steps=TRAIN_STEPS, channel_kind=None):
    """The all-local run every fabric trajectory must reproduce exactly."""
    ctx = _make_ctx(n_a=len(in_dims), channel_kind=channel_kind)
    model = MultiPartyLR(ctx, dict(in_dims), IN_B)
    x, y = _batches()
    if len(in_dims) != 2:
        rng = np.random.default_rng(42)
        x = {name: rng.normal(size=(12, dim)) for name, dim in in_dims.items()}
        x["B"] = rng.normal(size=(12, IN_B))
    losses = [model.train_step(x, y, lr=TRAIN_LR) for _ in range(steps)]
    return losses, model.source.local_weight_pieces(), ctx.channel


def _assert_clean(stats: dict) -> None:
    for key in CLEAN_ZERO:
        assert stats[key] == 0, f"link counter {key} nonzero: {stats}"


# ---------------------------------------------------------------------------
# Topology and driver validation (no processes spawned).


def test_topology_validation():
    topo = FabricTopology(GRID3)
    assert set(topo.parties) == {"A1", "A2", "B"}
    assert topo.home_of("A2") == "ep_a2"
    with pytest.raises(LookupError, match="not placed"):
        topo.home_of("A9")
    with pytest.raises(ValueError, match="at least two"):
        FabricTopology({"solo": ("A1", "A2", "B")})
    with pytest.raises(ValueError, match="hosts no parties"):
        FabricTopology({"x": (), "y": ("B",)})
    with pytest.raises(ValueError, match="claimed by both"):
        FabricTopology({"x": ("A1", "B"), "y": ("B",)})


def test_run_federation_mode_validation():
    from repro.comm.faults import FaultPlan

    plan = FaultPlan.seeded(1, frames=10, drop_rate=0.5)
    with pytest.raises(ValueError, match="mirrored lockstep tier is gone"):
        run_federation(train_program, roles={"guest": ("A",), "host": ("B",)}, mirror=True)
    with pytest.raises(ValueError, match="must be a FaultPlan"):
        run_federation(
            train_program, roles=GRID3, fault_plans={"ep_b": object()}
        )
    with pytest.raises(ValueError, match="unknown fabric role"):
        run_federation(
            train_program, roles=GRID3, fault_plans={("ep_zz", "ep_b"): plan}
        )
    with pytest.raises(ValueError, match="two distinct roles"):
        run_federation(
            train_program, roles=GRID3, fault_plans={("ep_b", "B"): plan}
        )
    with pytest.raises(ValueError, match="role name or a"):
        run_federation(
            train_program,
            roles=GRID3,
            fault_plans={("ep_a1", "ep_a2", "ep_b"): plan},
        )
    with pytest.raises(ValueError, match="sock_timeout must be positive"):
        run_federation(train_program, roles=GRID3, sock_timeout=0.0)


def test_per_link_plan_addressing():
    """Directed pairs, party-name aliases, and role shorthand normalise."""
    from repro.comm.faults import FaultPlan, per_link_plans

    a = FaultPlan.seeded(1, frames=5, drop_rate=0.5)
    b = FaultPlan.seeded(2, frames=5, corrupt_rate=0.5)
    aliases = {p: r for r, ps in GRID3.items() for p in ps}
    plans = per_link_plans(
        {("A1", "B"): a, "ep_b": b}, GRID3, aliases
    )
    # The pair key targets one direction; the shorthand fans out to every
    # outbound link of the key owner.
    assert plans["ep_a1"] == {"ep_b": a}
    assert plans["ep_b"] == {"ep_a1": b, "ep_a2": b}
    assert "ep_a2" not in plans
    # An explicit pair overrides the shorthand for the same link.
    plans = per_link_plans(
        {"ep_b": b, ("ep_b", "ep_a2"): a}, GRID3, aliases
    )
    assert plans["ep_b"] == {"ep_a1": b, "ep_a2": a}


def test_fabric_endpoint_rejects_remote_actors():
    """Acting for a party homed at another endpoint is fatal."""
    import socket

    from repro.comm.fabric import FabricChannel
    from repro.comm.message import MessageKind

    listener = socket.create_server(("127.0.0.1", 0))
    ch = FabricChannel("ep_a1", FabricTopology(GRID3), {}, listener)
    try:
        with pytest.raises(FatalTransportError, match="remote party 'B', which runs at role 'ep_b'"):
            ch.send("B", "A1", "t", 1.0, MessageKind.PUBLIC)
        with pytest.raises(FatalTransportError, match="remote party 'B', which runs at role 'ep_b'"):
            ch.recv("B")
    finally:
        ch.shutdown()


def test_recv_timeout_names_the_tags_the_mailbox_does_hold():
    """A mis-ordered program — the failure a reorder can introduce — must
    not die with only the tag it wanted: the tags it *was* sent (public
    step names, no payload) tell a wrong order from a dead peer."""
    import threading

    from repro.comm import fabric
    from repro.comm.message import MessageKind

    roles = {"ep_a": ("A",), "ep_b": ("B",)}
    listeners = {role: socket.create_server(("127.0.0.1", 0)) for role in roles}
    ports = {role: sock.getsockname()[1] for role, sock in listeners.items()}
    ends = {
        role: fabric.FabricChannel(
            role, FabricTopology(roles), ports, listeners[role], timeout=0.5
        )
        for role in roles
    }
    try:
        with pytest.raises(TransportTimeout, match="tag 'lr.1.fwd.Z_A'; its mailbox holds nothing"):
            ends["ep_b"].recv("B", tag="lr.1.fwd.Z_A")
        ends["ep_a"].send("A", "B", "lr.1.fwd.XV_A", 1.0, MessageKind.PUBLIC)
        ends["ep_a"].send("A", "B", "lr.1.fwd.Z_A", 2.0, MessageKind.PUBLIC)
        with pytest.raises(
            TransportTimeout,
            match=r"waiting for tag 'lr.1.bwd.gW_A'; its mailbox holds "
            r"\['lr.1.fwd.XV_A', 'lr.1.fwd.Z_A'\]",
        ):
            ends["ep_b"].recv("B", tag="lr.1.bwd.gW_A")
        # The refused ask consumed nothing: the right order still drains.
        assert ends["ep_b"].recv("B", tag="lr.1.fwd.XV_A") == 1.0
        assert ends["ep_b"].recv("B", tag="lr.1.fwd.Z_A") == 2.0
    finally:
        # Together: each side's FIN drain waits for the other's FIN.
        closers = [threading.Thread(target=end.shutdown) for end in ends.values()]
        for t in closers:
            t.start()
        for t in closers:
            t.join(timeout=20)
    assert not any(t.is_alive() for t in closers)


def test_close_wakes_receivers_and_acceptor_instead_of_waiting_out_a_poll(monkeypatch):
    """``shutdown()`` returns as soon as the FIN drain is done: the receiver
    and acceptor threads are woken through their sockets, not found at
    their next poll timeout (stretched here far past the bound)."""
    import threading
    import time

    from repro.comm import fabric
    from repro.comm.message import MessageKind

    monkeypatch.setattr(fabric, "_POLL_S", 5.0)
    roles = {"ep_a": ("A",), "ep_b": ("B",)}
    listeners = {role: socket.create_server(("127.0.0.1", 0)) for role in roles}
    ports = {role: sock.getsockname()[1] for role, sock in listeners.items()}
    ends = {
        role: fabric.FabricChannel(role, FabricTopology(roles), ports, listeners[role])
        for role in roles
    }
    ends["ep_a"].send("A", "B", "ping", 1.0, MessageKind.PUBLIC)
    assert ends["ep_b"].recv("B", tag="ping") == 1.0
    ends["ep_b"].send("B", "A", "pong", 2.0, MessageKind.PUBLIC)
    assert ends["ep_a"].recv("A", tag="pong") == 2.0
    took: dict[str, float] = {}

    def close(role: str) -> None:
        start = time.perf_counter()
        ends[role].shutdown()
        took[role] = time.perf_counter() - start

    closers = [threading.Thread(target=close, args=(role,)) for role in roles]
    for t in closers:
        t.start()
    for t in closers:
        t.join(timeout=20)
    assert not any(t.is_alive() for t in closers)
    assert sorted(took) == ["ep_a", "ep_b"] and max(took.values()) < 1.0, took
    assert not any(t.is_alive() for end in ends.values() for t in end._rx_threads.values())
    assert not any(end._acceptor.is_alive() for end in ends.values())


# ---------------------------------------------------------------------------
# The core 3-endpoint run: bit-identical, clean links, structured result.


def test_three_endpoints_bit_identical():
    ref_losses, ref_pieces, _ = _memory_reference()
    out = run_federation(
        train_program,
        (IN_DIMS,),
        roles=GRID3,
        timeout=FABRIC_TIMEOUT,
    )
    # Structured shape: role results never share a namespace with stats.
    assert set(out) == {"results", "link_stats"}
    results = out["results"]
    assert set(results) == set(GRID3)

    # Losses materialise at the key owner only and are float-exact.
    assert results["ep_b"]["losses"] == ref_losses
    assert results["ep_a1"]["losses"] == [None] * TRAIN_STEPS
    assert results["ep_a2"]["losses"] == [None] * TRAIN_STEPS

    # Pooled per-endpoint weight pieces == the all-local model's pieces,
    # array-equal: blinders and HE2SS masks cancelled exactly.
    pooled = {}
    for role in GRID3:
        pieces = results[role]["pieces"]
        assert not set(pieces) & set(pooled), "piece owned by two endpoints"
        pooled.update(pieces)
    assert set(pooled) == set(ref_pieces)
    for name, arr in ref_pieces.items():
        np.testing.assert_array_equal(pooled[name], arr, err_msg=name)

    # Every protocol message touches the key owner, so its two links
    # carry everything; A1<->A2 never talk and must never have dialled.
    stats = out["link_stats"]
    assert set(stats["ep_b"]) == {"ep_a1", "ep_a2"}
    assert set(stats["ep_a1"]) == {"ep_b"}
    assert set(stats["ep_a2"]) == {"ep_b"}
    for role, per_peer in stats.items():
        for peer, ledger in per_peer.items():
            _assert_clean(ledger)
            mirror = stats[peer][role]
            assert ledger["data_sent"] == mirror["data_received"]
            assert ledger["data_received"] == mirror["data_sent"]
            assert ledger["data_sent"] > 0


def test_two_party_matmul_crosses_processes_without_the_mirror():
    """Figure 6 is the one-spoke case of the actor programs, so a two-party
    MatMul step runs on a two-role fabric: losses and pieces
    float-exact against all-local, clean ledgers, and the A endpoint built
    no hub state and cannot decrypt for B."""
    in_dims = {"A": 3}
    ref_losses, ref_pieces, _ = _memory_reference(in_dims=in_dims)
    roles = {"ep_a": ("A",), "ep_b": ("B",)}
    out = run_federation(
        train_program, (in_dims,), roles=roles, timeout=FABRIC_TIMEOUT
    )
    results = out["results"]
    assert results["ep_b"]["losses"] == ref_losses
    assert results["ep_a"]["losses"] == [None] * TRAIN_STEPS
    assert not set(results["ep_a"]["pieces"]) & set(results["ep_b"]["pieces"])
    pooled = {**results["ep_a"]["pieces"], **results["ep_b"]["pieces"]}
    assert set(pooled) == set(ref_pieces)
    for name, arr in ref_pieces.items():
        np.testing.assert_array_equal(pooled[name], arr, err_msg=name)
    for role, (spokes, hub, keys) in {"ep_a": (["A"], False, ["A"]), "ep_b": ([], True, ["B"])}.items():
        assert results[role]["spokes_built"] == spokes
        assert results[role]["hub_built"] is hub
        assert results[role]["private_keys"] == keys
    stats = out["link_stats"]
    _assert_clean(stats["ep_a"]["ep_b"])
    _assert_clean(stats["ep_b"]["ep_a"])
    assert stats["ep_a"]["ep_b"]["data_sent"] == stats["ep_b"]["ep_a"]["data_received"] > 0

    # ... and under the two-party class's own name and tag spelling.
    local = matmul_source_program()
    split = run_federation(
        matmul_source_program, roles=roles, timeout=FABRIC_TIMEOUT
    )["results"]
    assert split["ep_a"]["z"] == [None, None]
    for z, ref in zip(split["ep_b"]["z"], local["z"]):
        np.testing.assert_array_equal(z, ref)
    assert (set(split["ep_a"]["pieces"]), set(split["ep_b"]["pieces"])) == (
        {"U_A", "VB_A"}, {"U_B", "V_A"}
    )
    for name, arr in {**split["ep_a"]["pieces"], **split["ep_b"]["pieces"]}.items():
        np.testing.assert_array_equal(arr, local["pieces"][name], err_msg=name)


def test_delta_matmul_crosses_processes_on_the_support_frame():
    """Under ``share_refresh="delta"`` A sends ``bwd.support`` every step —
    a CSR batch's column support, ``None`` for a dense one — so B awaits a
    wire fact instead of asking the driver, and a delta ``MatMulSource``
    runs on a two-role fabric float-exact vs all-local."""
    roles = {"ep_a": ("A",), "ep_b": ("B",)}
    local = matmul_source_program(steps=2, share_refresh="delta")
    assert local["supports"][0].tolist() == [0, 2] and local["supports"][1] is None
    out = run_federation(
        matmul_source_program, (2, "delta"), roles=roles, timeout=FABRIC_TIMEOUT
    )
    split = out["results"]
    assert split["ep_a"]["z"] == [None, None]
    for z, ref in zip(split["ep_b"]["z"], local["z"]):
        np.testing.assert_array_equal(z, ref)
    for name, arr in {**split["ep_a"]["pieces"], **split["ep_b"]["pieces"]}.items():
        np.testing.assert_array_equal(arr, local["pieces"][name], err_msg=name)
    _assert_clean(out["link_stats"]["ep_a"]["ep_b"])
    _assert_clean(out["link_stats"]["ep_b"]["ep_a"])


def test_keys_registered_after_the_link_travel_ahead_of_their_frames():
    """A ciphertext header names its key by fingerprint, so a key a channel
    registers after its link is up goes to the peer as a hello on the link,
    ahead of the first frame that names it: one extra link frame from B,
    none back from A (B's hello already told A's ring those keys)."""
    out = run_federation(
        late_key_program, roles={"ep_a": ("A",), "ep_b": ("B",)},
        timeout=FABRIC_TIMEOUT,
    )
    assert out["results"]["ep_a"]["got"] == [0.0, 1.0, 2.0]
    assert out["results"]["ep_b"]["back"] == [0.0, 2.0, 4.0]
    stats = out["link_stats"]
    assert stats["ep_b"]["ep_a"]["data_sent"] == 3  # warm, the keys' hello, ct
    assert stats["ep_a"]["ep_b"]["data_sent"] == 1  # back
    _assert_clean(stats["ep_a"]["ep_b"])
    _assert_clean(stats["ep_b"]["ep_a"])


def test_embed_matmul_crosses_processes_without_the_mirror():
    """Figure 7 is one end program run at A and at B, so a two-party
    Embed-MatMul layer trains on a two-role fabric in every
    packing x refresh cell: Z at B and every plaintext piece float-exact vs
    all-local, the A endpoint built no B end and holds only A's private key,
    and both link ledgers are clean."""
    roles = {"ep_a": ("A",), "ep_b": ("B",)}
    local = embed_program()
    out = run_federation(embed_program, roles=roles, timeout=FABRIC_TIMEOUT)
    split = out["results"]
    for cell, ref, at_a, at_b in zip(EMBED_CELLS, local, split["ep_a"], split["ep_b"]):
        assert (at_a["ends"], at_b["ends"], ref["ends"]) == (["A"], ["B"], ["A", "B"]), cell
        assert (at_a["private_keys"], at_b["private_keys"]) == (["A"], ["B"]), cell
        assert at_a["z"] == [None] * 3, cell
        for z, z_ref in zip(at_b["z"], ref["z"]):
            np.testing.assert_array_equal(z, z_ref, err_msg=str(cell))
        pooled = {**at_a["pieces"], **at_b["pieces"]}
        assert set(pooled) == set(ref["pieces"]), cell
        for name, arr in ref["pieces"].items():
            np.testing.assert_array_equal(pooled[name], arr, err_msg=f"{cell} {name}")
    _assert_clean(out["link_stats"]["ep_a"]["ep_b"])
    _assert_clean(out["link_stats"]["ep_b"]["ep_a"])


def test_link_counters_land_on_the_send_and_recv_leaves(tmp_path):
    """On the socket tiers the ``send`` / ``recv`` leaves are where ``link.*``
    lands: a blocking send's own ``data_sent`` and envelope are bumped inside
    its ``send`` leaf, the receiver thread's counters go to whatever span is
    innermost just then.  The channel's byte and frame counters never do."""
    out = run_federation(
        train_program,
        (IN_DIMS, 2, str(tmp_path)),
        roles=GRID3,
        timeout=FABRIC_TIMEOUT,
    )
    for role in GRID3:
        for ledger in out["link_stats"][role].values():
            _assert_clean(ledger)
        trace = read_jsonl_trace(os.path.join(str(tmp_path), f"{role}.jsonl"))
        sends = [s for s in trace if s["phase"] == "send"]
        recvs = [s for s in trace if s["phase"] == "recv"]
        assert sends and recvs
        for leaf in sends:
            assert leaf["counters"]["link.data_sent"] == 1
            assert leaf["counters"]["link.envelope_bytes"] == ENV_OVERHEAD
        for leaf in sends + recvs:
            assert all(key.startswith("link.") for key in leaf["counters"])
        totals = counter_totals(trace)
        assert totals["link.data_sent"] == totals["frames.sent"] == len(sends)
        assert totals["link.data_received"] == len(recvs)


def test_link_sockets_disable_nagle_on_both_ends_and_after_reconnect():
    """Every link socket — dialled, accepted, and the pair that replaces
    them after an injected disconnect — runs with ``TCP_NODELAY``: the
    protocol's small request/response frames must never wait out a
    delayed ACK."""
    plans = {("ep_a1", "ep_b"): FaultPlan.seeded(7, frames=50, disconnect_at=4)}
    out = run_federation(
        nodelay_program, (IN_DIMS,), roles=GRID3, timeout=FABRIC_TIMEOUT,
        sock_timeout=0.5, fault_plans=plans,
    )
    assert out["results"]["ep_b"]["losses"] == _memory_reference()[0]
    flags = {role: res["nodelay"] for role, res in out["results"].items()}
    assert set(flags["ep_b"]) == {"ep_a1", "ep_a2"}
    assert set(flags["ep_a1"]) == set(flags["ep_a2"]) == {"ep_b"}
    assert all(flag for links in flags.values() for flag in links.values()), flags
    # The faulted pair really was on its second connection when it answered.
    stats = out["link_stats"]
    assert stats["ep_a1"]["ep_b"]["reconnects"] >= 1
    assert stats["ep_b"]["ep_a1"]["reconnects"] >= 1
    _assert_clean(stats["ep_a2"]["ep_b"])


def test_fabric_byte_ledger_reconciles_with_serializing_tier():
    """The key owner's ledger (every message touches B) equals the
    all-local serializing run's per-sender byte ledger exactly."""
    _, _, channel = _memory_reference(channel_kind="serializing")
    out = run_federation(
        train_program, (IN_DIMS,), roles=GRID3, timeout=FABRIC_TIMEOUT
    )
    assert out["results"]["ep_b"]["bytes_by_sender"] == dict(
        channel.bytes_by_sender
    )


def test_colocated_parties_short_circuit():
    """A role hosting two parties keeps their hops in-process (codec
    round-trip, no socket) and still matches the reference trajectory."""
    ref_losses, ref_pieces, _ = _memory_reference()
    out = run_federation(
        train_program,
        (IN_DIMS,),
        roles={"edge": ("A1",), "hub": ("A2", "B")},
        timeout=FABRIC_TIMEOUT,
    )
    results = out["results"]
    assert results["hub"]["losses"] == ref_losses
    pooled = {**results["edge"]["pieces"], **results["hub"]["pieces"]}
    for name, arr in ref_pieces.items():
        np.testing.assert_array_equal(pooled[name], arr, err_msg=name)
    # A2<->B ran co-located: the only link in the grid is edge<->hub.
    assert set(out["link_stats"]["edge"]) == {"hub"}
    assert set(out["link_stats"]["hub"]) == {"edge"}


def test_traced_run_merges_into_one_lane_per_role(tmp_path):
    """A traced fabric run trains bit-identically, and its per-endpoint
    JSONL traces merge into one timeline with a process lane per role."""
    ref_losses, ref_pieces, _ = _memory_reference(steps=4)
    trace_dir = str(tmp_path)
    out = run_federation(
        train_program,
        (IN_DIMS, 4, trace_dir),
        roles=GRID3,
        timeout=FABRIC_TIMEOUT,
    )
    results = out["results"]
    assert results["ep_b"]["losses"] == ref_losses
    pooled = {}
    for role in GRID3:
        pooled.update(results[role]["pieces"])
    for name, arr in ref_pieces.items():
        np.testing.assert_array_equal(pooled[name], arr, err_msg=name)
    for per_peer in out["link_stats"].values():
        for ledger in per_peer.values():
            _assert_clean(ledger)

    # --- the collector on real per-endpoint traces -----------------------
    traces = {
        role: read_jsonl_trace(os.path.join(trace_dir, f"{role}.jsonl"))
        for role in GRID3
    }
    merged = merge_traces(traces)
    ids = [s["id"] for s in merged]
    assert len(ids) == len(set(ids)), "merged span ids must be unique"
    assert all(s["id"].startswith(f"{s['role']}:") for s in merged)

    timeline = chrome_timeline(merged)
    lanes = {
        e["args"]["name"]: e["pid"]
        for e in timeline["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    assert set(lanes) == set(GRID3), "one process lane per endpoint"
    assert len(set(lanes.values())) == len(GRID3)

    batches = {
        role: {
            s["attrs"]["batch"]
            for s in merged
            if s["role"] == role and s.get("phase") == "batch"
        }
        for role in GRID3
    }
    assert all(seen == {0, 1, 2, 3} for seen in batches.values())


# ---------------------------------------------------------------------------
# Golden conformance: the per-endpoint protocol on the wire.


def transcript_program(channel):
    """The golden ``multiparty`` scenario, executed per endpoint."""
    ctx = VFLContext(VFLConfig(key_bits=128), seed=77, n_a_parties=2, channel=channel)
    layer = MultiPartyMatMulSource(
        ctx, {"A1": 3, "A2": 2}, in_b=2, out_dim=2, name="gm"
    )
    # Every endpoint replays the full draw sequence so B's grad matches
    # the golden stream; only local slices are ever fed to the layer.
    rng = np.random.default_rng(13)
    x_full = {
        "A1": rng.normal(size=(3, 3)),
        "A2": rng.normal(size=(3, 2)),
        "B": rng.normal(size=(3, 2)),
    }
    grad = rng.normal(size=(3, 2)) * 0.1
    x = {k: v for k, v in x_full.items() if ctx.is_local(k)}
    layer.forward(x)
    layer.backward(grad if ctx.is_local("B") else None)
    layer.apply_updates(lr=0.05, momentum=0.9)
    return [message_summary(m) for m in channel.transcript]


def _by_pair(records):
    """Group summaries by directed (sender, receiver) pair, seq dropped.

    Cross-sender arrival order is scheduling-dependent and per-endpoint
    ``seq`` counters differ from the all-local global counter; per-pair
    FIFO order, tags, kinds, frame sizes and payload headers are the
    protocol and must match the golden exactly.
    """
    pairs: dict[tuple[str, str], list[dict]] = {}
    for rec in records:
        rec = {k: v for k, v in rec.items() if k != "seq"}
        pairs.setdefault((rec["sender"], rec["receiver"]), []).append(rec)
    return pairs


def test_fabric_transcript_matches_multiparty_golden():
    golden = json.loads(golden_transcript.GOLDEN_PATH.read_text())
    expected = _by_pair(golden["multiparty"])
    out = run_federation(
        transcript_program, roles=GRID3, timeout=FABRIC_TIMEOUT
    )
    locals_of = {role: set(parties) for role, parties in GRID3.items()}
    for role, records in out["results"].items():
        actual = _by_pair(records)
        # An endpoint's transcript covers exactly the directed pairs that
        # touch its local parties — outbound at send, inbound at decode.
        touching = {
            pair
            for pair in expected
            if set(pair) & locals_of[role]
        }
        assert set(actual) == touching, f"{role}: unexpected pair set"
        for pair, msgs in actual.items():
            assert msgs == expected[pair], f"{role}: pair {pair} diverged"
    # The key owner saw every protocol message (no A<->A traffic exists).
    assert set(_by_pair(out["results"]["ep_b"])) == set(expected)


# ---------------------------------------------------------------------------
# Collector unit tests (synthetic traces).


def _span(sid, t0, dur, phase="batch", parent=None, party=None, **attrs):
    return {
        "id": sid,
        "parent": parent,
        "phase": phase,
        "party": party,
        "t_start": t0,
        "dur_s": dur,
        "attrs": attrs,
        "counters": {},
    }


def test_merge_traces_namespaces_and_orders():
    merged = merge_traces(
        {
            "b": [_span("s0", 1.0, 0.5), _span("s1", 2.0, 0.5, parent="s0")],
            "a": [_span("s0", 0.0, 0.5)],  # raw id collides across roles
        }
    )
    assert [s["id"] for s in merged] == ["a:s0", "b:s0", "b:s1"]
    assert merged[2]["parent"] == "b:s0"
    assert merged[0]["parent"] is None
    assert [s["role"] for s in merged] == ["a", "b", "b"]


def test_merge_traces_rejects_duplicate_id_within_role():
    with pytest.raises(ValueError, match="duplicate span id"):
        merge_traces({"a": [_span("s0", 0.0, 1.0), _span("s0", 2.0, 1.0)]})


def test_read_jsonl_trace_validates(tmp_path):
    good = tmp_path / "good.jsonl"
    good.write_text(
        json.dumps(_span("s0", 0.0, 1.0)) + "\n\n"  # blank lines skipped
        + json.dumps(_span("s1", 1.0, 1.0)) + "\n"
    )
    assert [s["id"] for s in read_jsonl_trace(str(good))] == ["s0", "s1"]
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text("{not json\n")
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        read_jsonl_trace(str(bad_json))
    no_id = tmp_path / "noid.jsonl"
    no_id.write_text('{"phase": "batch"}\n')
    with pytest.raises(ValueError, match="no 'id' field"):
        read_jsonl_trace(str(no_id))


def test_chrome_timeline_one_lane_per_role():
    merged = merge_traces(
        {
            "a": [_span("s0", 0.0, 1.0, party="A1", batch=0)],
            "b": [
                _span("s0", 0.2, 1.0, party="B", batch=0),
                _span("s1", 1.4, 1.0, party="B", batch=1),
            ],
        }
    )
    timeline = chrome_timeline(merged)
    names = {
        e["args"]["name"]: e["pid"]
        for e in timeline["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    assert set(names) == {"a", "b"}
    assert len(set(names.values())) == 2
    events = [e for e in timeline["traceEvents"] if e["ph"] == "X"]
    assert {e["pid"] for e in events} == set(names.values())
    assert all(e["args"]["span_id"].count(":") == 1 for e in events)
    by_id = {e["args"]["span_id"]: e for e in events}
    assert by_id["a:s0"]["ts"] == 0.0 and by_id["a:s0"]["dur"] == 1e6
    assert by_id["b:s0"]["args"]["batch"] == 0


def _two_role_step():
    """One step on roles ``a`` (party A) and ``b`` (party B, the key owner).

    B sends m1, blocks on m2, finds m3 waiting, sends m4; A blocks on m1,
    sends m3 then m2, and finds m4 waiting.  Times are chosen so every
    busy / hop figure below is exact in binary floating point.
    """
    def send(sid, t0, party, tag):
        return _span(sid, t0, 0.25, phase="send", parent="batch", party=party, tag=tag)

    def recv(sid, t0, dur, party, tag, **attrs):
        return _span(sid, t0, dur, phase="recv", parent="batch", party=party, tag=tag, **attrs)

    return {
        "a": [
            _span("batch", 0.5, 8.5),
            recv("r1", 0.75, 0.75, "A", "m1", blocked=True),  # got at 1.5
            send("s3", 3.0, "A", "m3"),
            send("s2", 5.0, "A", "m2"),
            recv("r4", 8.5, 0.0, "A", "m4"),
        ],
        "b": [
            _span("batch", 0.0, 10.0),
            send("s1", 1.0, "B", "m1"),
            recv("r2", 2.0, 4.0, "B", "m2", blocked=True),  # got at 6.0
            recv("r3", 7.0, 0.0, "B", "m3"),  # sent at 3.0: never waited
            send("s4", 8.0, "B", "m4"),
            recv("r9", 9.0, 0.5, "B", "ghost", blocked=True),  # no send span
        ],
    }


def test_critical_path_links_by_tag_walks_back_and_closes():
    (step,) = critical_path(merge_traces(_two_role_step()))
    assert (step["step"], step["role"], step["wall_s"]) == (0, "b", 10.0)
    # Walked back from B's end: B since it got m2 <- the m2 hop <- A since it
    # got m1 <- the m1 hop <- B from the start of its span.  The blocked
    # ``ghost`` recv has no send in the trace and cannot be followed.
    assert step["segments"] == [
        {"role": "b", "party": "B", "entered_by": None, "busy_s": 1.0, "wait_s": 0.0},
        {"role": "a", "party": "A", "entered_by": "m1", "busy_s": 3.5, "wait_s": 0.5},
        {"role": "b", "party": "B", "entered_by": "m2", "busy_s": 4.0, "wait_s": 1.0},
    ]
    assert sum(s["busy_s"] + s["wait_s"] for s in step["segments"]) == step["wall_s"]
    messages = {m["tag"]: m for m in step["messages"]}
    assert set(messages) == {"m1", "m2", "m3", "m4"}
    assert messages["m2"] == {
        "tag": "m2", "sender": "A", "receiver": "B", "sent_at": 5.0,
        "asked_at": 2.0, "got_at": 6.0, "wait_s": 4.0, "slack_s": 0.0, "depth": 2,
    }
    # A recv that never waited: no wait at all, and the message sat ready.
    assert messages["m3"]["wait_s"] == 0.0 and messages["m3"]["slack_s"] == 4.0
    # Depth follows each party's own order: m1, then m2 and m3 (A had heard
    # m1), then m4 (B had heard m2 and m3) — not the clock: m3 left before m2.
    assert {t: m["depth"] for t, m in messages.items()} == {
        "m1": 1, "m2": 2, "m3": 2, "m4": 3,
    }
    assert step["depth"] == 3


def test_critical_path_steps_are_counted_per_role_and_tags_must_be_unique():
    trace = _two_role_step()
    for role, spans in trace.items():  # a second, empty step on both roles
        spans.append(_span("batch2", 20.0, 1.0))
    first, second = critical_path(merge_traces(trace))
    assert first["depth"] == 3 and second["step"] == 1
    assert second["messages"] == [] and second["depth"] == 0
    assert second["segments"] == [
        {"role": "b", "party": "B", "entered_by": None, "busy_s": 1.0, "wait_s": 0.0}
    ]
    ownerless = {
        role: [dict(s, party="C") if s["party"] == "B" else s for s in spans]
        for role, spans in trace.items()
    }
    with pytest.raises(ValueError, match="touches the key owner 'B'"):
        critical_path(merge_traces(ownerless))
    trace["a"].append(
        _span("dup", 30.0, 0.1, phase="send", parent="batch2", party="A", tag="m3")
    )
    with pytest.raises(ValueError, match="'m3' has two send spans"):
        critical_path(merge_traces(trace))


# ---------------------------------------------------------------------------
# A two-role run is a fabric run: structured result, every option.


def hosted_parties_program(channel):
    return sorted(channel.local_parties)


def test_two_party_result_is_structured_only():
    result = run_federation(
        hosted_parties_program, roles={"guest": ("A",), "host": ("B",)},
        timeout=FABRIC_TIMEOUT,
    )
    assert type(result) is dict and set(result) == {"results", "link_stats"}
    assert result["results"] == {"guest": ["A"], "host": ["B"]}
    # The two endpoints never exchanged a frame, so no link was dialled.
    assert result["link_stats"] == {"guest": {}, "host": {}}
    with pytest.raises(KeyError):  # the flat per-role shape is gone
        result["guest"]


def test_two_roles_take_resume_like_any_grid(tmp_path):
    """Two roles are no special case: ``resume_from`` reaches both
    endpoints, as on a grid of three."""
    base = str(tmp_path / "ckpt")
    out = run_federation(
        resume_path_program, roles={"guest": ("A",), "host": ("B",)},
        resume_from=base, timeout=FABRIC_TIMEOUT,
    )
    assert out["results"] == {"guest": f"{base}.guest", "host": f"{base}.host"}


def resume_path_program(channel):
    return channel.resume_from


# ---------------------------------------------------------------------------
# Wider grids (4+ endpoint processes) — opt in with ``pytest -m nparty``.


@pytest.mark.nparty
def test_four_endpoint_grid_bit_identical():
    in_dims = {"A1": 3, "A2": 2, "A3": 2}
    ref_losses, ref_pieces, _ = _memory_reference(in_dims=in_dims)
    out = run_federation(
        train_program,
        (in_dims,),
        roles={
            "ep_a1": ("A1",),
            "ep_a2": ("A2",),
            "ep_a3": ("A3",),
            "ep_b": ("B",),
        },
        timeout=FABRIC_TIMEOUT * 2,
    )
    results = out["results"]
    assert results["ep_b"]["losses"] == ref_losses
    pooled = {}
    for role in results:
        pooled.update(results[role]["pieces"])
    assert set(pooled) == set(ref_pieces)
    for name, arr in ref_pieces.items():
        np.testing.assert_array_equal(pooled[name], arr, err_msg=name)
    # Star topology: every link touches the key owner, A's never connect.
    stats = out["link_stats"]
    assert set(stats["ep_b"]) == {"ep_a1", "ep_a2", "ep_a3"}
    for role in ("ep_a1", "ep_a2", "ep_a3"):
        assert set(stats[role]) == {"ep_b"}
        _assert_clean(stats[role]["ep_b"])
