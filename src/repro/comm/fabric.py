"""The federation fabric: one OS process per endpoint, each running its own parties.

The one cross-process execution model, for two parties as for the
Appendix C star of M Party A's around the key owner — an endpoint
**grid**:

* each endpoint hosts one or more parties (its *placement*) and executes
  **only their side** of the protocol: every source layer runs per actor
  (MatMul spoke and hub, Embed-MatMul ends; :mod:`repro.core.matmul_layer`),
  so a remote party's program and state never exist here;
* endpoints are wired by lazily-established duplex
  :class:`~repro.comm.transport.ReliableLink` s: the first send toward a
  peer dials it, pairs that never exchange traffic never connect;
* crossing dials (both ends of a pair dialing at once) are resolved by
  the lower-named role of the pair, whose accept/dial decision is taken
  under one lock and is authoritative — the higher-named role's refused
  dial simply waits for the authoritative dial to land;
* each endpoint holds a *per-endpoint key store*: all seeded public keys
  (so ciphertexts decode against the shared key objects), but only its
  own parties' private keys — see
  :class:`~repro.comm.party.VFLContext` ``local_parties``.  Ciphertext
  frames name their key by fingerprint, so both hellos of a link carry
  the keys their channel has registered, and a key registered after the
  link is up travels to the peer as a hello on the link, ahead of the
  first frame that names it;
* an outbound frame is written to its link by the program thread that
  produced it, in program order.  The link's own work per frame is a few
  microseconds, but ``sendall`` also waits for the GIL: while the link's
  receiver thread holds it, a 200-600 B send averaged 0.8-1.2 ms (max
  5.8 ms) on a 2-CPU box at the default 5 ms switch interval, against
  0.04-0.10 ms without that contention.  A sender thread would queue on
  the same lock, so there is nothing for one to overlap;
* incoming frames are decoded on per-link receiver threads (each link's
  one reader) into a tag-addressed mailbox, because arrival order
  *between* senders is scheduling-dependent; per-link FIFO (and
  therefore per-pair protocol order) is still exact.

Fault tolerance
---------------
Each grid link is a full :class:`~repro.comm.transport.ReliableLink`:
per-link fault plans (``run_federation(fault_plans={(sender, receiver):
plan})``) wrap the sender's side of a duplex socket in a
:class:`~repro.comm.faults.FaultySocket` at dial/accept time and rebind
it across reconnects, so a seeded chaos schedule survives the socket
swap while hello/NAK/RESUME/FIN control traffic passes clean.  Link
death recovers deterministically — the lower-named role redials, the
higher-named role's acceptor hands the fresh socket to its waiting
reconnector — and a peer that stays dead past the seeded retry budget
surfaces as ``FatalTransportError("peer <role> unreachable ...")`` on
both the send and receive paths instead of a hang.  The driver watches
child liveness during startup and the result gather, so a killed
endpoint fails the whole grid fast with the dead role named.

Determinism
-----------
Losses and weights of a fabric run are bit-identical to the in-process
tiers because each party's RNG draw order is preserved on its home
endpoint, obfuscation blinders never survive decryption, and HE2SS masks
cancel exactly in the reassembled weight pieces.  What *is*
scheduling-dependent is cross-sender arrival order (absorbed by the
mailbox) and blinding-stream positions (value-free by construction).
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import socket
import threading
import time
import traceback
from collections import deque

from repro.comm import codec
from repro.comm.channel import CodecChannel
from repro.comm.faults import FaultPlan, FaultySocket, per_link_plans
from repro.comm.message import Message
from repro.comm.transport import (
    FatalTransportError,
    ReliableLink,
    RetryableTransportError,
    RetryPolicy,
    TransportDisconnected,
    TransportError,
    TransportTimeout,
    no_delay,
    read_frame,
)
from repro.obs import tracer as _obs

__all__ = [
    "FabricTopology",
    "FabricChannel",
    "run_federation",
]

# Receiver threads poll their socket in short slices so close requests are
# observed promptly; this is a scheduling knob, not a protocol timeout.
_POLL_S = 0.25

# How many poll slices the higher-named role of a pair waits for the
# lower-named role's redial before burning one reconnect attempt — each
# attempt of the seeded retry budget re-enters this window.
_RECONNECT_WAIT_SLICES = 8

# How long closing a link waits for the peer's FIN before giving up.
_CLOSE_TIMEOUT_S = 10.0

# After a death, a failure report or the deadline, how long the driver
# waits for all surviving endpoints together before terminating them.
_FAIL_GRACE_S = 0.5


class FabricTopology:
    """The placement map of a federation: which role hosts which parties.

    Roles are endpoint names (one OS process each); parties are protocol
    actors.  Every party lives at exactly one role — the fabric refuses
    overlapping claims: a party's state and keys exist in one process only.
    """

    def __init__(self, roles: dict[str, tuple[str, ...] | list[str]]):
        if len(roles) < 2:
            raise ValueError("a federation needs at least two endpoints")
        self.roles: dict[str, tuple[str, ...]] = {}
        home: dict[str, str] = {}
        for role, parties in roles.items():
            parties = tuple(parties)
            if not parties:
                raise ValueError(f"role {role!r} hosts no parties")
            self.roles[role] = parties
            for party in parties:
                if party in home:
                    raise ValueError(
                        f"party {party!r} is claimed by both role "
                        f"{home[party]!r} and role {role!r}"
                    )
                home[party] = role
        self._home = home

    @property
    def parties(self) -> tuple[str, ...]:
        return tuple(self._home)

    def home_of(self, party: str) -> str:
        """The role hosting ``party``."""
        try:
            return self._home[party]
        except KeyError:
            raise LookupError(
                f"party {party!r} is not placed anywhere in the topology "
                f"{self.roles}"
            ) from None


class FabricChannel(CodecChannel):
    """One endpoint of the fabric: it sends and receives for its own parties only.

    A send whose *sender* is remote — or a recv for a remote party — is a
    programming error and fails fatally: that party's program runs in
    another process.  A send to a co-located party short-circuits through
    the codec like the serializing tier; a send to a remote party
    transmits the frame on the pair's link (dialled on first use).

    Byte accounting covers both directions: outbound frames are charged
    at the send site, inbound frames at decode (same measured length on
    both ends of a link) — so the key owner's ledger, which every
    protocol message touches, reconciles with the single-process tiers.
    """

    def __init__(
        self,
        role: str,
        topology: FabricTopology,
        ports: dict[str, int],
        listener: socket.socket,
        *,
        record_transcript: bool = True,
        timeout: float = 120.0,
        sock_timeout: float | None = None,
        fault_plans: dict[str, FaultPlan] | None = None,
        idle_nak_peers=None,
        resume_from: str | None = None,
    ):
        super().__init__(record_transcript)
        if role not in topology.roles:
            raise ValueError(f"role {role!r} is not in the topology")
        if sock_timeout is not None and sock_timeout <= 0:
            raise ValueError("sock_timeout must be positive")
        self.role = role
        self.topology = topology
        self.local_parties = frozenset(topology.roles[role])
        self._ports = dict(ports)
        self._listener = listener
        self._listener.settimeout(_POLL_S)
        self._retry = RetryPolicy()
        self._timeout = timeout
        self._close_timeout = _CLOSE_TIMEOUT_S
        # Per-peer outbound fault schedules (this endpoint is the sender
        # side of each faulted direction); wrappers persist across
        # reconnects so the frame counter — and the remaining schedule —
        # survives the socket swap.
        self._fault_plans = dict(fault_plans or {})
        self._fault_socks: dict[str, FaultySocket] = {}
        # sock_timeout bounds a receiver's idle patience on fault-armed
        # links: after that much consecutive silence it NAKs its next
        # expected sequence number so tail-dropped frames get
        # retransmitted.  None (the default) keeps the infinite patience
        # that clean-link zero-counter ledgers are gated on.
        self._idle_nak_polls = (
            None
            if sock_timeout is None
            else max(1, int(sock_timeout / _POLL_S + 0.999))
        )
        self._idle_nak_peers = (
            None if idle_nak_peers is None else frozenset(idle_nak_peers)
        )
        # Per-role checkpoint path handed down by run_federation's
        # resume_from; programs read it to restore their local parties.
        self.resume_from = resume_from
        # Reconnect handoff: _admit deposits a redialled socket here for
        # the higher-named role's waiting reconnector (guarded by _grid).
        self._reconnect_pending: dict[str, socket.socket] = {}
        self._awaiting_reconnect: set[str] = set()
        self._wedged: list[str] = []
        # Link grid state, guarded by one condition: the authoritative
        # crossing-dial decision (accept vs refuse vs already-dialing) is
        # a single atomic check-and-mark under this lock.
        self._grid = threading.Condition()
        self._links: dict[str, ReliableLink] = {}
        self._dialing: set[str] = set()
        self._rx_threads: dict[str, threading.Thread] = {}
        # Mailbox: receiver threads deposit decoded messages per party;
        # recv() selects by tag because cross-sender arrival order is
        # scheduling-dependent (per-sender order stays FIFO).
        self._mail_cv = threading.Condition()
        self._mail: dict[str, deque[Message]] = {}
        self._rx_errors: list[tuple[str, str]] = []
        self._ledger_lock = threading.Lock()
        # The moduli each linked peer's ring holds: every key a hello
        # carried either way.  A key registered here after a link is up
        # (a later context on the same channel) goes to the peer as a hello
        # on the link ahead of the first frame that names it.
        self._peer_keys: dict[str, set[int]] = {}
        self._peer_keys_lock = threading.Lock()
        self._pending_frame: bytes | None = None
        self._draining = False
        self._closing = False
        self._acceptor = threading.Thread(
            target=self._accept_loop, name=f"fabric-accept-{role}", daemon=True
        )
        self._acceptor.start()

    # ------------------------------------------------------------- link grid

    def _register_link(self, peer_role: str, sock: socket.socket) -> None:
        # Callers hold self._grid.
        sock.settimeout(_POLL_S)
        link = ReliableLink(
            self._wrap_fault(peer_role, sock),
            retry=self._retry,
            reconnect=self._make_reconnect(peer_role),
        )
        self._links[peer_role] = link
        thread = threading.Thread(
            target=self._recv_loop,
            args=(peer_role, link),
            name=f"fabric-rx-{self.role}-{peer_role}",
            daemon=True,
        )
        self._rx_threads[peer_role] = thread
        thread.start()

    def _wrap_fault(self, peer_role: str, sock: socket.socket):
        """Wrap (or re-wrap) the socket toward ``peer_role`` in its fault
        schedule.  The wrapper is created once per peer and rebound across
        reconnects, so the DATA-frame counter keeps counting through the
        socket swap and later scheduled faults stay armed."""
        plan = self._fault_plans.get(peer_role)
        if plan is None:
            return sock
        wrapper = self._fault_socks.get(peer_role)
        if wrapper is None:
            wrapper = FaultySocket(sock, plan)
            self._fault_socks[peer_role] = wrapper
            return wrapper
        return wrapper.rebind(sock)

    def _idle_polls_for(self, peer_role: str) -> int | None:
        if self._idle_nak_polls is None:
            return None
        if (
            self._idle_nak_peers is not None
            and peer_role not in self._idle_nak_peers
        ):
            return None
        return self._idle_nak_polls

    def _make_reconnect(self, peer_role: str):
        """The per-link reconnector: redial or await the peer's redial.

        Reconnect direction is deterministic — the lower-named role of a
        pair redials (it holds the peer's listener port), the higher-named
        role waits for ``_admit`` to hand over the fresh socket.  Both
        sides re-run the hello handshake, then :class:`ReliableLink`'s
        recovery performs the RESUME exchange and replays unacked frames.
        """
        if self.role < peer_role:
            if peer_role not in self._ports:
                return None  # manually wired link: nothing to redial

            def _redial() -> socket.socket:
                fresh = self._dial(peer_role)
                fresh.settimeout(_POLL_S)
                return self._wrap_fault(peer_role, fresh)

            return _redial

        def _reaccept() -> socket.socket:
            # A redial that lands before this side noticed the link died
            # is refused by _admit like any crossing dial; the dialer's
            # seeded backoff retries until this flag is up.
            with self._grid:
                self._awaiting_reconnect.add(peer_role)
                for _ in range(_RECONNECT_WAIT_SLICES):
                    if peer_role in self._reconnect_pending or self._closing:
                        break
                    self._grid.wait(_POLL_S)
                fresh = self._reconnect_pending.pop(peer_role, None)
                if fresh is None:
                    raise TransportTimeout(
                        f"no redial from {peer_role!r} arrived within the "
                        f"reconnect window"
                    )
                self._awaiting_reconnect.discard(peer_role)
            fresh.settimeout(_POLL_S)
            return self._wrap_fault(peer_role, fresh)

        return _reaccept

    def _dial(self, peer_role: str) -> socket.socket:
        """Connect to ``peer_role``'s listener and run the hello handshake:
        send this endpoint's hello, read the hello-ack and check that the
        role dialled is the role that answered.  The socket is closed on
        any failure; a peer that closes without a hello-ack surfaces as a
        :class:`RetryableTransportError` or ``OSError``."""
        sock = socket.create_connection(
            ("127.0.0.1", self._ports[peer_role]), timeout=self._timeout
        )
        try:
            no_delay(sock).settimeout(min(self._timeout, 10.0))
            sock.sendall(self._hello_to(peer_role))
            acked_by = self._hello(sock)  # the hello-ack
            if acked_by != peer_role:
                raise FatalTransportError(
                    f"dialled role {peer_role!r} but {acked_by!r} answered — "
                    f"mis-wired port map"
                )
        except BaseException:
            try:
                sock.close()
            except OSError:
                pass
            raise
        return sock

    def _hello_to(self, peer_role: str, keys=None) -> bytes:
        """A hello toward ``peer_role``: this endpoint's parties and public
        keys (by default every key its ring holds), so the peer can resolve
        a ciphertext frame even before its own context registers keys."""
        keys = list(self.key_ring.values()) if keys is None else keys
        self._note_peer_keys(peer_role, keys)
        return codec.encode_hello(sorted(self.local_parties), keys)

    def _note_peer_keys(self, peer_role: str, keys) -> None:
        with self._peer_keys_lock:
            self._peer_keys.setdefault(peer_role, set()).update(key.n for key in keys)

    def _keys_peer_lacks(self, peer_role: str) -> list:
        with self._peer_keys_lock:
            known = self._peer_keys.get(peer_role, set())
            return [key for n, key in tuple(self.key_ring.items()) if n not in known]

    def _hello(self, sock: socket.socket) -> str:
        """Read the peer's hello (adding keys the ring lacks) and resolve
        it to a role in the topology."""
        frame = read_frame(sock)
        peer_parties, keys = codec.decode_hello(frame, key_ring=self.key_ring)
        if not peer_parties:
            raise FatalTransportError("peer hello names no parties")
        peer_role = self.topology.home_of(peer_parties[0])
        if set(peer_parties) != set(self.topology.roles[peer_role]):
            raise FatalTransportError(
                f"peer hello claims parties {sorted(peer_parties)} but the "
                f"topology places {sorted(self.topology.roles[peer_role])} "
                f"at role {peer_role!r}"
            )
        if peer_role == self.role:
            raise FatalTransportError(
                f"endpoint {self.role!r} received its own role in a hello — "
                f"mis-wired port map"
            )
        self._note_peer_keys(peer_role, keys)
        return peer_role

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed: shutdown in progress
            try:
                self._admit(sock)
            except BaseException:
                try:
                    sock.close()
                except OSError:
                    pass
                if self._closing or self._draining:
                    return
                with self._mail_cv:
                    self._rx_errors.append((self.role, traceback.format_exc()))
                    self._mail_cv.notify_all()

    def _admit(self, sock: socket.socket) -> None:
        no_delay(sock).settimeout(min(self._timeout, 10.0))
        peer_role = self._hello(sock)
        with self._grid:
            if (
                peer_role in self._links
                and peer_role in self._awaiting_reconnect
            ):
                # Link-death recovery: the lower-named peer redialled and
                # this side's reconnector is waiting for the handoff.
                # Complete the hello and deposit the fresh socket; a newer
                # redial supersedes any undelivered one.
                sock.sendall(self._hello_to(peer_role))
                stale = self._reconnect_pending.pop(peer_role, None)
                if stale is not None:
                    try:
                        stale.close()
                    except OSError:
                        pass
                self._reconnect_pending[peer_role] = sock
                self._grid.notify_all()
                return
            if peer_role in self._links or (
                self.role < peer_role and peer_role in self._dialing
            ):
                # Crossing dial: this endpoint is the lower-named role of
                # the pair, so its own in-flight (or landed) dial is the
                # authoritative connection.  Closing without a hello-ack
                # tells the dialer to wait for ours instead.
                sock.close()
                return
            sock.sendall(self._hello_to(peer_role))
            self._register_link(peer_role, sock)
            self._grid.notify_all()

    def _ensure_link(self, peer_role: str) -> ReliableLink:
        """The pair's link, dialling it on first use."""
        with self._grid:
            link = self._links.get(peer_role)
            if link is not None:
                return link
            if peer_role in self._dialing:
                return self._await_link(peer_role)
            self._dialing.add(peer_role)
        try:
            sock = self._dial(peer_role)
        except (RetryableTransportError, OSError):
            # The peer closed our dial without a hello-ack: on a crossing
            # dial the lower-named role refuses the non-authoritative
            # connection, and its own dial is already in flight — wait
            # for the acceptor to land it.  (A genuinely dead peer makes
            # the wait below time out instead.)
            with self._grid:
                self._dialing.discard(peer_role)
                self._grid.notify_all()
            return self._await_link(peer_role)
        with self._grid:
            self._dialing.discard(peer_role)
            existing = self._links.get(peer_role)
            if existing is not None:
                # The acceptor landed the peer's dial while ours was in
                # flight; ours lost — use the registered link.
                try:
                    sock.close()
                except OSError:
                    pass
                self._grid.notify_all()
                return existing
            self._register_link(peer_role, sock)
            self._grid.notify_all()
            return self._links[peer_role]

    def _await_link(self, peer_role: str) -> ReliableLink:
        # repro: nondeterministic-ok link-establishment deadline — a
        # watchdog on connection setup, outside protocol state
        deadline = time.monotonic() + self._timeout
        with self._grid:
            while True:
                link = self._links.get(peer_role)
                if link is not None:
                    return link
                # repro: nondeterministic-ok link-establishment countdown
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    raise TransportTimeout(
                        f"no link between {self.role!r} and {peer_role!r} "
                        f"materialised within {self._timeout}s"
                    )
                self._grid.wait(min(_POLL_S, remaining))

    # ---------------------------------------------------------------- inbound

    def _recv_loop(self, peer_role: str, link: ReliableLink) -> None:
        try:
            while True:
                frame = link.recv_frame(
                    lambda: self._closing,
                    recover_ok=lambda: not (self._closing or self._draining),
                    idle_nak_polls=self._idle_polls_for(peer_role),
                )
                if frame is None:
                    return  # clean stop
                kind, _ = codec.parse_preamble(frame[: codec.PREAMBLE_SIZE])
                if kind == codec.FRAME_HELLO:  # keys registered after the link
                    _parties, keys = codec.decode_hello(frame, key_ring=self.key_ring)
                    self._note_peer_keys(peer_role, keys)
                    continue
                msg = codec.decode_message(frame, key_ring=self.key_ring)
                self._account(msg)
                if self.record_transcript:
                    self.transcript.append(msg)
                with self._mail_cv:
                    self._mail.setdefault(msg.receiver, deque()).append(msg)
                    self._mail_cv.notify_all()
        except (TransportDisconnected, OSError):
            if self._closing or self._draining:
                return  # peer finished and left: nothing owed either way
            # The link already burnt its whole reconnect budget inside
            # recv_frame; a FIN-less death that stays dead is a
            # vanished peer, named here so recv()/shutdown() fail with the
            # role instead of hanging until the protocol deadline.
            with self._mail_cv:
                self._rx_errors.append(
                    (
                        peer_role,
                        f"peer {peer_role!r} unreachable — reconnect budget "
                        f"spent without re-establishing the link\n"
                        f"{traceback.format_exc()}",
                    )
                )
                self._mail_cv.notify_all()
        except BaseException:
            with self._mail_cv:
                self._rx_errors.append((peer_role, traceback.format_exc()))
                self._mail_cv.notify_all()

    def _account(self, msg: Message) -> None:
        # Receiver threads and the protocol thread share the ledger.
        with self._ledger_lock:
            super()._account(msg)

    def _check_rx(self) -> None:
        # Callers hold self._mail_cv.
        if self._rx_errors:
            peer_role, tb = self._rx_errors[0]
            raise FatalTransportError(
                f"fabric receiver {self.role!r}<-{peer_role!r} failed:\n{tb}"
            )

    # ---------------------------------------------------------------- channel

    def _transcode(self, msg: Message) -> Message:
        if msg.sender not in self.local_parties:
            raise FatalTransportError(
                f"endpoint {self.role!r} cannot send for remote party "
                f"{msg.sender!r}, which runs at role "
                f"{self.topology.home_of(msg.sender)!r}"
            )
        frame = codec.encode_message(msg)
        if msg.receiver in self.local_parties:
            # Co-located hop: serializing-tier semantics — the receiver
            # sees only what the bytes carry, nbytes is measured.
            return codec.decode_message(frame, key_ring=self.key_ring)
        msg.nbytes = len(frame)
        self._pending_frame = frame
        return msg

    def _deliver(self, msg: Message) -> None:
        if msg.receiver in self.local_parties:
            with self._mail_cv:
                self._mail.setdefault(msg.receiver, deque()).append(msg)
                self._mail_cv.notify_all()
            return
        frame, self._pending_frame = self._pending_frame, None
        peer_role = self.topology.home_of(msg.receiver)
        try:
            link = self._ensure_link(peer_role)
            # Every key this frame names was registered before it was
            # encoded, so it is in the link's hello or in this list.
            news = self._keys_peer_lacks(peer_role)
            if news:
                link.send_frame(self._hello_to(peer_role, news))
            link.send_frame(frame)
        except TransportDisconnected as exc:
            # The link's bounded reconnect already ran and failed: the
            # peer is gone, and no amount of protocol-level retrying can
            # bring the frame stream back — fail with the role named.
            raise FatalTransportError(
                f"peer {peer_role!r} unreachable — reconnect budget spent "
                f"({exc})"
            ) from exc

    def recv(self, receiver: str, tag: str | None = None) -> object:
        if receiver not in self.local_parties:
            raise FatalTransportError(
                f"endpoint {self.role!r} cannot recv for remote party "
                f"{receiver!r}, which runs at role "
                f"{self.topology.home_of(receiver)!r}"
            )
        # repro: nondeterministic-ok recv deadline — a watchdog against
        # peer death; the selected message is determined by tag, not time
        deadline = time.monotonic() + self._timeout
        with _obs.span("recv", party=receiver, tag=tag) as span, self._mail_cv:
            while True:
                self._check_rx()
                found = self._pop_mail(receiver, tag)
                if found is not None:
                    return found.payload
                # repro: nondeterministic-ok recv deadline countdown
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    # Tags are public step names (no payload): what the
                    # mailbox *does* hold is what tells a mis-ordered
                    # program from a dead peer.
                    held = [m.tag for m in self._mail.get(receiver, ())]
                    raise TransportTimeout(
                        f"party {receiver!r} timed out after "
                        f"{self._timeout}s waiting for tag {tag!r}; its "
                        f"mailbox holds {held or 'nothing'}"
                    )
                if span is not None:
                    # The message was not there when asked for: the one
                    # fact the critical-path report cannot get from clocks.
                    span.attrs["blocked"] = True
                self._mail_cv.wait(min(_POLL_S, remaining))

    def _pop_mail(self, receiver: str, tag: str | None) -> Message | None:
        # Callers hold self._mail_cv.  Tag-selective: frames from
        # different senders interleave nondeterministically, so the
        # protocol names the step it expects instead of trusting heads.
        box = self._mail.get(receiver)
        if not box:
            return None
        if tag is None:
            return box.popleft()
        for i, msg in enumerate(box):
            if msg.tag == tag:
                del box[i]
                return msg
        return None

    def pending(self, receiver: str) -> int:
        with self._mail_cv:
            box = self._mail.get(receiver)
            return len(box) if box else 0

    def link_stats(self) -> dict[str, dict]:
        """Final per-peer reliability ledgers (keyed by peer role)."""
        return {
            peer_role: link.stats.as_dict()
            for peer_role, link in sorted(self._links.items())
        }

    # --------------------------------------------------------------- shutdown

    def shutdown(self) -> None:
        """Drain the grid, verify the protocol completed, close everything.

        FIN is announced on every live link and the endpoint stays up —
        receiver threads keep servicing NAKs — until each peer's FIN
        covers everything received, so a slow peer can still recover its
        tail frames from us.  Leftover mailbox entries after the drain
        mean this endpoint's program under-consumed and fail loudly.
        """
        try:
            self._draining = True
            for link in self._links.values():
                try:
                    link._send_fin()
                except (TransportError, OSError):
                    pass  # peer already gone: nothing left to protect
            # repro: nondeterministic-ok fin-drain deadline — close-time
            # watchdog; protocol state is already final here
            deadline = time.monotonic() + self._close_timeout
            while True:
                done = all(
                    link._peer_fin is not None
                    and link._peer_fin <= link.recv_seq
                    for link in self._links.values()
                )
                if done:
                    break
                # repro: nondeterministic-ok fin-drain countdown
                if time.monotonic() >= deadline:
                    break  # silent peer: close anyway, its driver reports
                time.sleep(0.01)
        finally:
            self._closing = True
            with self._grid:
                pending = list(self._reconnect_pending.values())
                self._reconnect_pending.clear()
                self._grid.notify_all()
            # shutdown() before close(): closing a descriptor does not wake
            # a thread blocked on it, so receivers and the acceptor would
            # only notice ``_closing`` at their next poll slice.
            for sock in (*pending, *(link.sock for link in self._links.values()), self._listener):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # never connected, or the peer went first
                try:
                    sock.close()
                except OSError:
                    pass
            # A thread that outlives its join is a wedged receiver (or
            # acceptor) — record it loudly instead of returning as if the
            # endpoint wound down cleanly.
            wedged = []
            for peer_role, thread in self._rx_threads.items():
                thread.join(timeout=5.0)
                if thread.is_alive():
                    wedged.append(f"receiver {self.role!r}<-{peer_role!r}")
            self._acceptor.join(timeout=5.0)
            if self._acceptor.is_alive():
                wedged.append(f"acceptor {self.role!r}")
            self._wedged = wedged
        with self._mail_cv:
            self._check_rx()
            leftovers = {
                party: len(box) for party, box in self._mail.items() if box
            }
        if leftovers:
            raise FatalTransportError(
                f"protocol ended with undelivered messages pending for "
                f"{leftovers}"
            )
        if self._wedged:
            raise FatalTransportError(
                f"fabric shutdown left threads wedged past their 5s join: "
                f"{', '.join(self._wedged)}"
            )


# ---------------------------------------------------------------------------
# Federation driver: one child process per endpoint.


def _fabric_endpoint_main(
    role: str,
    topology: FabricTopology,
    program,
    args: tuple,
    port_report_queue,
    port_map_queue,
    result_queue,
    timeout: float,
    record_transcript: bool,
    sock_timeout: float | None = None,
    fault_plans: dict[str, FaultPlan] | None = None,
    idle_nak_peers=None,
    resume_from: str | None = None,
) -> None:
    """Child-process entry: listen, learn the port map, run, report."""
    listener = None
    channel = None
    try:
        listener = socket.create_server(("127.0.0.1", 0))
        port_report_queue.put((role, listener.getsockname()[1]))
        ports = port_map_queue.get(timeout=timeout)
        channel = FabricChannel(
            role,
            topology,
            ports,
            listener,
            record_transcript=record_transcript,
            timeout=timeout,
            sock_timeout=sock_timeout,
            fault_plans=fault_plans,
            idle_nak_peers=idle_nak_peers,
            resume_from=resume_from,
        )
        result = program(channel, *args)
        channel.shutdown()
        result_queue.put((role, True, result, channel.link_stats()))
    except BaseException:
        result_queue.put((role, False, traceback.format_exc(), None))
    finally:
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass


def _await_results(
    children: dict[str, object], result_queue, timeout: float
) -> tuple[dict[str, object], dict[str, object]]:
    """Collect every endpoint's report under a hard deadline.

    Returns ``(results, link_stats)`` keyed by role; raises
    :class:`FatalTransportError` on deadline expiry, on a child dying
    before reporting (with its exit code), or on any reported failure
    (with the child's traceback).  Children are always joined/terminated
    before returning: after a clean run each gets its own join, after a
    failure the survivors — likely blocked on the failed peer — get
    :data:`_FAIL_GRACE_S` in all to exit before they are terminated.
    """
    results: dict[str, object] = {}
    link_stats: dict[str, object] = {}
    failures: dict[str, str] = {}
    # repro: nondeterministic-ok driver watchdog deadline — the parent
    # process's kill-switch clock, outside the protocol state
    deadline = time.monotonic() + timeout
    clean = False
    try:
        while len(results) + len(failures) < len(children):
            # repro: nondeterministic-ok watchdog countdown (driver only)
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                raise FatalTransportError(
                    f"federation run produced no result within {timeout}s — "
                    f"protocol deadlock; terminating all endpoints"
                )
            # Poll in short slices so child deaths are observed promptly.
            try:
                role, ok, payload, stats = result_queue.get(
                    timeout=min(_POLL_S, remaining)
                )
            except queue_mod.Empty:
                pass
            else:
                if ok:
                    results[role] = payload
                    link_stats[role] = stats
                else:
                    failures[role] = payload
                continue
            # Liveness check: a child that exited without reporting is dead.
            # One that exits normally flushes its queue feeder first, so once
            # its exit code is known any report it made is readable: the
            # death is declared only when the queue holds nothing more.
            dead = {
                role: child.exitcode
                for role, child in children.items()
                if child.exitcode is not None
                and role not in results
                and role not in failures
            }
            if dead and result_queue.empty():
                detail = ", ".join(
                    f"{role} (exit code {code})" for role, code in dead.items()
                )
                raise FatalTransportError(
                    f"endpoint died before reporting a result: {detail}"
                )
        clean = not failures
    finally:
        # repro: nondeterministic-ok driver reap deadline (driver only)
        reap_by = time.monotonic() + _FAIL_GRACE_S
        for child in children.values():
            # repro: nondeterministic-ok driver reap deadline (driver only)
            child.join(timeout=5.0 if clean else max(0.0, reap_by - time.monotonic()))
            if child.is_alive():
                child.terminate()
                child.join(timeout=5.0)
    if failures:
        detail = "\n\n".join(
            f"--- {role} endpoint failed ---\n{tb}" for role, tb in failures.items()
        )
        raise FatalTransportError(f"federation run failed:\n{detail}")
    return results, link_stats


def run_federation(
    program,
    args: tuple = (),
    *,
    roles: dict[str, tuple[str, ...]],
    mirror: bool = False,
    timeout: float = 120.0,
    record_transcript: bool = True,
    sock_timeout: float | None = None,
    fault_plans: dict | None = None,
    resume_from: str | None = None,  # repro: api-ok kill-and-resume of a federation
) -> dict[str, object]:
    """Run ``program`` on one OS process per role and gather the results.

    Endpoints are forked where the platform can fork, spawned otherwise.
    ``roles`` maps each endpoint name to the tuple of parties it hosts
    (every party exactly once).  Each process calls ``program(channel,
    *args)`` with its :class:`FabricChannel` and executes only its parties'
    protocol side over the lazily-dialled link grid.  Returns
    ``{"results": {role: value}, "link_stats": {role: {peer_role: ledger}}}``.

    Programs are written per actor: a party's phase touches its own state,
    its own ``Party`` and the channel, and a driver runs the phases of the
    parties this endpoint hosts (asked of the context once, when the actors
    are built), issuing every send computable from local state before the
    first blocking receive of a phase (each avoidable receive-then-send is
    a hop of peer wait) — see :mod:`repro.core.multiparty`.
    :func:`repro.core.trainer.train_federated` is such a driver for the
    two-party models.  A program that asks for a tag out of order fails at
    ``timeout`` with the tags its mailbox does hold.

    ``fault_plans`` addresses *directed links*: a ``(sender, receiver)``
    key (role or party names) faults that one direction of the pair's
    duplex link, a bare role is shorthand for every outbound link of that
    endpoint (see :func:`repro.comm.faults.per_link_plans`).
    ``sock_timeout`` bounds receiver idle patience on fault-armed links
    (idle-NAK loss detection); clean links keep infinite patience so their
    ledgers stay at zero.  ``resume_from`` hands each endpoint the per-role
    checkpoint path ``f"{resume_from}.{role}"`` as ``channel.resume_from``,
    from which programs restore their local parties.  Every frame is
    written by the program thread that produced it, in program order.

    ``mirror`` survives only as ``False``, for callers that still pass it:
    the second execution model it once selected is gone, and
    ``mirror=True`` raises.
    """
    if mirror:
        raise ValueError(
            "the mirrored lockstep tier is gone: every run is on the fabric, "
            "where each endpoint executes only its own parties"
        )
    topology = FabricTopology(roles)
    if sock_timeout is not None and sock_timeout <= 0:
        raise ValueError("sock_timeout must be positive")
    mp = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    result_queue = mp.Queue()

    # Directed per-link fault plans: normalise the addressing, then arm
    # idle-NAK loss detection on exactly the links a plan touches (either
    # direction) — clean links keep their zero ledgers.
    link_plans: dict[str, dict[str, FaultPlan]] = {}
    idle_peers: dict[str, set[str]] = {role: set() for role in topology.roles}
    if fault_plans:
        aliases = {
            party: role
            for role, parties in topology.roles.items()
            for party in parties
        }
        link_plans = per_link_plans(fault_plans, topology.roles, aliases)
        for sender_role, links in link_plans.items():
            for receiver_role in links:
                idle_peers[sender_role].add(receiver_role)
                idle_peers[receiver_role].add(sender_role)
    port_report_queue = mp.Queue()
    port_map_queues = {role: mp.Queue() for role in topology.roles}
    children = {
        role: mp.Process(
            target=_fabric_endpoint_main,
            args=(
                role,
                topology,
                program,
                tuple(args),
                port_report_queue,
                port_map_queues[role],
                result_queue,
                timeout,
                record_transcript,
                sock_timeout,
                link_plans.get(role),
                frozenset(idle_peers[role]),
                None if resume_from is None else f"{resume_from}.{role}",
            ),
            daemon=True,
            name=f"blindfl-{role}",
        )
        for role in topology.roles
    }
    for child in children.values():
        child.start()

    # Gather every endpoint's listening port, then broadcast the full map —
    # link establishment itself stays lazy (dial on first send).  The
    # gather polls child liveness in short slices: an endpoint that dies
    # before reporting fails the grid immediately, with the dead role
    # named, instead of burning the whole timeout.
    ports: dict[str, int] = {}
    # repro: nondeterministic-ok port-gather deadline — a liveness
    # watchdog on federation startup, outside protocol state
    deadline = time.monotonic() + timeout
    while len(ports) < len(children):
        try:
            role, port = port_report_queue.get(timeout=_POLL_S)
            ports[role] = port
            continue
        except queue_mod.Empty:
            pass
        dead = {
            role: child.exitcode
            for role, child in children.items()
            if role not in ports and child.exitcode is not None
        }
        if dead:
            for child in children.values():
                child.terminate()
            detail = ", ".join(
                f"{role} (exit code {code})" for role, code in sorted(dead.items())
            )
            raise FatalTransportError(
                f"endpoint died before reporting a listening port: {detail}"
            )
        # repro: nondeterministic-ok port-gather countdown
        if time.monotonic() >= deadline:
            for child in children.values():
                child.terminate()
            missing = sorted(set(children) - set(ports))
            raise FatalTransportError(
                f"endpoints {missing} never reported a listening port"
            )
    for role_queue in port_map_queues.values():
        role_queue.put(ports)

    results, link_stats = _await_results(children, result_queue, timeout)
    return {"results": results, "link_stats": link_stats}
