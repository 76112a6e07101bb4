"""Cross-process training: ``train_federated`` per endpoint on a two-role fabric.

The tier-1 smoke trains one small federation with Party A and Party B in
separate OS processes over loopback TCP, with a hard timeout (a deadlocked
protocol fails fast instead of hanging ``pytest -x -q``), and checks it
against the same seeded program on the in-process serializing tier: B's
losses and test metric float-exact, A's ``None``, every plaintext weight
piece array-equal once pooled across the two endpoints, and the byte and
message ledgers equal.  The heavier grid — LR, WDL and DLRM, packed and
unpacked, delta and reencrypt refresh — carries the ``net`` marker (run
with ``pytest -m net``).  The fabric channel's unit behaviour runs on two
endpoints inside one process.

Program functions live at module scope so the runner works under both
``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.comm import VFLConfig, VFLContext, codec
from repro.comm.channel import make_channel
from repro.comm.fabric import FabricChannel, FabricTopology, run_federation
from repro.comm.message import MessageKind
from repro.comm.transport import (
    FatalTransportError,
    ReliableLink,
    TransportError,
    TransportTimeout,
)
from repro.core.models import FederatedDLRM, FederatedLR, FederatedWDL
from repro.core.trainer import TrainConfig, train_federated
from repro.data.partition import split_vertical
from repro.data.synthetic import (
    make_dense_classification,
    make_mixed_classification,
)

SMOKE_TIMEOUT = 60.0
NET_TIMEOUT = 300.0
ROLES = {"guest": ("A",), "host": ("B",)}


# ---------------------------------------------------------------------------
# Deterministic training programs (identical in every process / tier).


def _lr_model(ctx):
    return FederatedLR(ctx, 3, 3), split_vertical(
        make_dense_classification(48, 6, seed=50)
    )


def _quickstart_model(ctx):
    """The quickstart shape: 12 + 12 dense features, federated LR."""
    full = make_dense_classification(96, 24, seed=51)
    return FederatedLR(ctx, 12, 12), split_vertical(full)


def _mixed(seed):
    return split_vertical(make_mixed_classification(
        40, sparse_dim=12, nnz_per_row=3, n_fields=2, vocab_size=5, seed=seed
    ))


def _wdl_model(ctx):
    vd = _mixed(52)
    pa, pb = vd.party("A"), vd.party("B")
    return FederatedWDL(
        ctx, pa.dense_dim, pb.dense_dim, pa.vocab_sizes, pb.vocab_sizes,
        emb_dim=4, deep_hidden=[4],
    ), vd


def _dlrm_model(ctx):
    vd = _mixed(53)
    pa, pb = vd.party("A"), vd.party("B")
    return FederatedDLRM(
        ctx, pa.dense_dim, pb.dense_dim, pa.vocab_sizes, pb.vocab_sizes,
        emb_dim=2, arm_dim=2, top_hidden=[2],
    ), vd


_BUILDERS = {
    "lr": _lr_model, "quickstart": _quickstart_model, "wdl": _wdl_model,
    "dlrm": _dlrm_model,
}

# Every plaintext piece slot an actor may hold (spoke, hub, Embed-MatMul end).
_PIECE_SLOTS = ("u", "v_b", "v_a", "s", "t_peer", "v_peer")


def local_pieces(model) -> dict[str, np.ndarray]:
    """Every plaintext weight piece this process holds, keyed by layer,
    party and slot: pooled across a fabric's endpoints they are exactly
    the all-local model's pieces, and no key is held twice."""
    out = {}
    for layer in model.source_layers():
        for actor in (layer._a, layer._b):
            for slot in _PIECE_SLOTS if actor is not None else ():
                value = getattr(actor, slot, None)
                items = value.items() if isinstance(value, dict) else [("", value)]
                for peer, arr in items:
                    if arr is not None:
                        out[f"{layer.name}.{actor.name}.{slot}{peer}"] = np.array(arr)
    return out


def train_program(
    channel,
    model_kind: str,
    packing: bool,
    key_bits: int,
    share_refresh: str = "reencrypt",
    epochs: int = 1,
    batch_size: int = 16,
    evaluate: bool = False,
):
    """Build a seeded federation on ``channel``, train, return a digest.

    On a fabric endpoint the context hosts the channel's parties only, so
    this is one endpoint's side of the run; in process it is the whole run.
    """
    cfg = VFLConfig(
        key_bits=key_bits, packing=packing, share_refresh=share_refresh
    )
    ctx = VFLContext(cfg, seed=3, channel=channel)
    model, vd = _BUILDERS[model_kind](ctx)
    tc = TrainConfig(
        epochs=epochs, batch_size=batch_size, lr=0.1, momentum=0.9, seed=0
    )
    history = train_federated(model, vd, tc, test_data=vd if evaluate else None)
    return {
        "losses": history.losses,
        "metrics": history.epoch_metrics,
        "pieces": local_pieces(model),
        "private_keys": sorted(
            name for name, party in ctx.parties.items() if party.private_key is not None
        ),
        "total_bytes": channel.total_bytes(),
        "n_messages": len(channel.transcript),
        "kinds": sorted(
            (k.value, v) for k, v in channel.messages_by_kind.items()
        ),
        "frames": _frames(channel.transcript),
    }


def _frames(transcript) -> list[tuple]:
    """Every message's route, tag, kind and frame size less its sequence
    number's varint: a channel numbers the sends it carries, so a fabric
    endpoint's numbers are smaller than a single process's."""
    return sorted(
        (m.sender, m.receiver, m.tag, m.kind.value,
         m.nbytes - max(1, (m.seq.bit_length() + 6) // 7))
        for m in transcript
    )


def _reference(*case):
    """The same program, all-local, on the in-memory serializing tier."""
    return train_program(make_channel("serializing"), *case)


def _assert_digests_match(out, reference):
    """The fabric run is the reference run split in two, float for float."""
    results = out["results"]
    guest, host = results["guest"], results["host"]
    assert host["losses"] == reference["losses"]
    assert guest["losses"] == [None] * len(reference["losses"])
    assert host["metrics"] == reference["metrics"]
    assert guest["metrics"] == [None] * len(reference["metrics"])
    assert (guest["private_keys"], host["private_keys"]) == (["A"], ["B"])
    assert not set(guest["pieces"]) & set(host["pieces"]), "piece held twice"
    pooled = {**guest["pieces"], **host["pieces"]}
    assert set(pooled) == set(reference["pieces"])
    for name, value in reference["pieces"].items():
        np.testing.assert_array_equal(pooled[name], value, err_msg=name)
    # Two parties: every message is sent or received at each endpoint, so
    # each endpoint's transcript is the whole protocol's.
    for role in ("guest", "host"):
        for key in ("n_messages", "kinds", "frames"):
            assert results[role][key] == reference[key], (role, key)


# ---------------------------------------------------------------------------
# Tier-1: one fast smoke, hard timeout, bit-for-bit against honest bytes.


def test_two_process_socket_smoke_matches_serializing_run():
    """Separate PIDs + loopback TCP == in-memory honest bytes, bit-for-bit.

    This is the acceptance property in miniature: the packed LR protocol
    trains across a real socket, each process running only its own party
    (the trainer's top model and loss at B alone), and lands on exactly the
    losses, test AUC and weight pieces of the single-process
    SerializingChannel run.
    """
    case = ("lr", True, 256, "reencrypt", 1, 16, True)
    out = run_federation(train_program, case, roles=ROLES, timeout=SMOKE_TIMEOUT)
    reference = _reference(*case)
    assert reference["n_messages"] > 0 and reference["total_bytes"] > 0
    assert reference["metrics"] and reference["metrics"][0] is not None
    _assert_digests_match(out, reference)


def test_two_process_dlrm_delta_matches_serializing_run():
    """Both source-layer families in one model, packed, under the delta
    refresh: Embed-MatMul's touched rows and MatMul's support frame cross
    between the two processes and the run stays float-exact."""
    case = ("dlrm", True, 256, "delta", 1, 8)
    out = run_federation(train_program, case, roles=ROLES, timeout=SMOKE_TIMEOUT)
    _assert_digests_match(out, _reference(*case))


def test_serializing_drop_in_matches_memory_bit_for_bit():
    """The honest-bytes tier is a drop-in: identical training trajectory."""
    for packing, key_bits in ((False, 128), (True, 256)):
        mem = train_program(make_channel("memory"), "lr", packing, key_bits)
        ser = _reference("lr", packing, key_bits)
        assert mem["losses"] == ser["losses"]
        for name, value in mem["pieces"].items():
            np.testing.assert_array_equal(ser["pieces"][name], value)
        # Byte accounting differs by design: estimator vs measured frames.
        assert ser["total_bytes"] > mem["total_bytes"]
        assert ser["n_messages"] == mem["n_messages"]


# ---------------------------------------------------------------------------
# The link under both ends' traffic at once.


def test_link_drains_when_both_ends_send_large_frames_at_once():
    """Send early, receive late makes both ends of a link send at once.
    With every frame larger than the socket buffers, each ``sendall``
    completes only while the peer's reader drains it — so reading and
    acking must never wait on the write in progress at their own end."""
    raw_a, raw_b = socket.socketpair()
    links = []
    for raw in (raw_a, raw_b):
        raw.settimeout(0.25)
        links.append(ReliableLink(raw))
    frames = [bytes([i]) * (1 << 20) for i in range(3)]
    received: list[list[bytes]] = [[], []]
    errors: list[BaseException] = []
    stop = threading.Event()

    def read(end):
        try:
            while len(received[end]) < len(frames):
                frame = links[end].recv_frame(stop.is_set)
                if frame is None:
                    return
                received[end].append(frame)
        except BaseException as exc:  # surfaced in the main thread
            errors.append(exc)

    def send(end):
        try:
            for frame in frames:
                links[end].send_frame(frame)
        except BaseException as exc:  # surfaced in the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=fn, args=(end,), daemon=True)
        for fn in (read, send)
        for end in (0, 1)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the four threads finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
        stop.set()
        raw_a.close()
        raw_b.close()
    assert not errors, errors[0]
    assert not any(thread.is_alive() for thread in threads), "link wedged"
    assert received == [frames, frames]
    for link in links:
        assert link.stats.extra_frames() == 0 and link.stats.timeouts == 0


# ---------------------------------------------------------------------------
# FabricChannel unit behaviour: two endpoints in one process (no children).


def _endpoints(roles=ROLES, timeout=5.0):
    """One FabricChannel per role, wired to each other's listeners."""
    listeners = {role: socket.create_server(("127.0.0.1", 0)) for role in roles}
    ports = {role: lst.getsockname()[1] for role, lst in listeners.items()}
    topology = FabricTopology(roles)
    return [
        FabricChannel(role, topology, ports, listeners[role], timeout=timeout)
        for role in roles
    ]


def _close(*channels) -> dict[str, BaseException | None]:
    """Shut the endpoints down together — each drains until its peer's FIN
    — and return what each shutdown raised, by role."""
    raised: dict[str, BaseException | None] = {}

    def stop(ch):
        try:
            ch.shutdown()
            raised[ch.role] = None
        except TransportError as exc:
            raised[ch.role] = exc

    threads = [threading.Thread(target=stop, args=(ch,)) for ch in channels]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    return raised


def test_network_channel_handshake_and_frame_flow():
    """The first send dials the peer; the hellos carry the keys its
    ciphertext names, and the frame lands decoded in the peer's mailbox."""
    cha, chb = _endpoints()
    try:
        ctx = VFLContext(VFLConfig(key_bits=128), seed=1, channel=cha)
        VFLContext(VFLConfig(key_bits=128), seed=1, channel=chb)
        payload = np.arange(6.0).reshape(2, 3)
        cha.send("A", "B", "t", payload, MessageKind.SHARE)
        np.testing.assert_array_equal(chb.recv("B", "t"), payload)
        assert cha.total_bytes() == chb.total_bytes() > payload.nbytes
        from repro.crypto.crypto_tensor import CryptoTensor

        ct = CryptoTensor.encrypt(ctx.B.public_key, np.arange(3.0))
        cha.send("A", "B", "ct", ct, MessageKind.CIPHERTEXT)
        got = chb.recv("B", "ct")
        assert got.public_key is chb.key_ring[ctx.B.public_key.n]
        assert set(cha._links) == {"host"} and set(chb._links) == {"guest"}
    finally:
        _close(cha, chb)


def test_network_channel_overlapping_ownership_fails():
    """A party has one home: the topology refuses two claims, and a hello
    claiming parties the topology places elsewhere fails the endpoint."""
    with pytest.raises(ValueError, match="claimed by both"):
        FabricTopology({"guest": ("A", "B"), "host": ("B",)})
    cha, chb = _endpoints()
    try:
        rogue = socket.create_connection(("127.0.0.1", chb._ports["host"]))
        rogue.sendall(codec.encode_hello(["A", "B"]))
        with pytest.raises(FatalTransportError, match="claims parties"):
            chb.recv("B", "t")
        rogue.close()
    finally:
        _close(cha, chb)


def test_network_channel_desync_detected():
    """A receive for a tag the peer never sent fails loudly, naming the
    tags the mailbox does hold — a mis-ordered program, not a dead peer."""
    cha, chb = _endpoints(timeout=0.5)
    try:
        cha.send("A", "B", "x", 1, MessageKind.PUBLIC)
        with pytest.raises(TransportTimeout, match=r"holds \['x'\]"):
            chb.recv("B", "y")
        assert chb.recv("B", "x") == 1
    finally:
        _close(cha, chb)


def test_network_channel_hard_timeout_fails_fast():
    """A silent peer trips the recv deadline, not an infinite hang."""
    cha, chb = _endpoints(timeout=0.2)
    try:
        start = time.monotonic()
        with pytest.raises(TransportError, match="timed out"):
            chb.recv("B")
        assert time.monotonic() - start < 2.0
    finally:
        _close(cha, chb)


def test_network_channel_colocated_parties_use_local_hop():
    """Two parties on one endpoint exchange without touching a socket."""
    edge, hub = _endpoints({"edge": ("A1", "A2"), "hub": ("B",)})
    try:
        payload = np.arange(3.0)
        edge.send("A1", "A2", "t", payload, MessageKind.SHARE)
        np.testing.assert_array_equal(edge.recv("A2", "t"), payload)
        assert edge.total_bytes() > 0 and not edge._links and not hub._links
    finally:
        _close(edge, hub)


def test_network_channel_preserves_fifo_across_local_and_wire():
    """Per directed pair, frames arrive in send order — over the wire and
    on a co-located hop alike — so an untagged recv reads them in order."""
    edge, hub = _endpoints({"edge": ("A1",), "hub": ("A2", "B")})
    try:
        for sender, ch in (("A2", hub), ("A1", edge)):
            for k in range(3):
                ch.send(sender, "B", f"{sender}.{k}", k, MessageKind.PUBLIC)
            assert [hub.recv("B") for _ in range(3)] == [0, 1, 2], sender
    finally:
        _close(edge, hub)


def test_network_channel_shutdown_rejects_unconsumed_delivery():
    """A delivery that was never recv'd fails the drain check."""
    edge, hub = _endpoints({"edge": ("A1", "A2"), "hub": ("B",)})
    edge.send("A1", "A2", "t", 1, MessageKind.PUBLIC)
    raised = _close(edge, hub)
    assert "undelivered" in str(raised["edge"]) and raised["hub"] is None


def test_network_channel_shutdown_rejects_undrained_protocol():
    """A frame that crossed the wire but was never consumed fails the
    receiving endpoint's shutdown."""
    cha, chb = _endpoints()
    cha.send("A", "B", "t", 1, MessageKind.PUBLIC)
    deadline = time.monotonic() + 5.0
    while chb.pending("B") == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    raised = _close(cha, chb)
    assert "undelivered" in str(raised["host"]) and raised["guest"] is None


def test_runner_surfaces_child_failures():
    with pytest.raises(TransportError, match="boom"):
        run_federation(_crashing_program, roles=ROLES, timeout=SMOKE_TIMEOUT)


def _crashing_program(channel):
    raise RuntimeError("boom")


def test_runner_fails_fast_when_an_endpoint_dies_silently():
    """A child killed before it can report (OOM, SIGKILL) must surface as
    an "endpoint died" error within a liveness-poll grace period, not
    burn the whole run timeout."""
    start = time.monotonic()
    with pytest.raises(TransportError, match="endpoint died.*exit code"):
        run_federation(_dying_program, roles=ROLES, timeout=SMOKE_TIMEOUT)
    assert time.monotonic() - start < SMOKE_TIMEOUT / 2


def _dying_program(channel):
    if channel.role == "guest":
        os._exit(3)  # no exception, no result: the process just vanishes


# ---------------------------------------------------------------------------
# The full grid: the three two-party models over real sockets (pytest -m net).


@pytest.mark.net
@pytest.mark.parametrize(
    "model_kind,packing,key_bits,share_refresh",
    [
        (model, packing, 256 if packing else 128, refresh)
        for model in ("lr", "wdl", "dlrm")
        for packing in (False, True)
        for refresh in ("reencrypt", "delta")
    ],
    ids=lambda v: str(v),
)
def test_two_process_training_grid(model_kind, packing, key_bits, share_refresh):
    """LR, WDL and DLRM, packed and unpacked, delta and reencrypt: each
    trains on a two-role fabric exactly as on the serializing tier, and the
    serializing tier exactly as in memory."""
    case = (model_kind, packing, key_bits, share_refresh, 1, 8, True)
    out = run_federation(train_program, case, roles=ROLES, timeout=NET_TIMEOUT)
    reference = _reference(*case)
    _assert_digests_match(out, reference)
    memory = train_program(make_channel("memory"), *case)
    assert memory["losses"] == reference["losses"]
    assert memory["metrics"] == reference["metrics"]


@pytest.mark.net
def test_two_process_quickstart_sized_packed_matmul():
    """The acceptance case at quickstart scale: 12+12 features, 96 rows."""
    case = ("quickstart", True, 256, "reencrypt", 1, 32)
    out = run_federation(train_program, case, roles=ROLES, timeout=NET_TIMEOUT)
    _assert_digests_match(out, _reference(*case))
