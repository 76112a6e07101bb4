"""Microbenchmark for the reliable link's retransmission overhead.

The reliability sublayer (ack/NAK retransmission, see
:mod:`repro.comm.transport`) must be *free on a clean link*: acks
piggyback on DATA envelopes, NAKs are receiver-driven, and nothing is
ever sent twice unless something was actually lost.  The measurable
claim, and the gate in ``run_bench.check_transport``, is counting-only
(wall clock on a loopback socketpair is all syscall noise):

* **fault rate 0** — zero retransmits, zero NAKs, zero duplicates, zero
  extra frames; link overhead is exactly ``ENV_OVERHEAD`` bytes per
  codec frame, and every byte beyond that is protocol payload;
* **fault rate > 0** (informational row) — the same transfer completes,
  delivering every frame exactly once, with the recovery traffic
  visible in the stats instead of hidden in the accounting.

Emits ``BENCH_transport.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_transport.py
    PYTHONPATH=src python benchmarks/bench_transport.py --quick
"""

from __future__ import annotations

import argparse
import json
import socket
import threading
import time
from pathlib import Path

import numpy as np

import run_bench
from repro.comm import codec
from repro.comm.fabric import run_federation
from repro.comm.faults import FaultPlan, FaultySocket
from repro.comm.message import MessageKind
from repro.comm.transport import ENV_OVERHEAD, ReliableLink, RetryPolicy

REPO_ROOT = Path(__file__).resolve().parent.parent

TWO_PARTY_TIMEOUT = 60.0


def _retry() -> RetryPolicy:
    return RetryPolicy(max_retries=8, base_delay=0.02, max_delay=0.2,
                       jitter=0.1, seed=1)


def _exchange(n_rounds: int, payload_elems: int, plan: FaultPlan | None) -> dict:
    """Ping-pong ``n_rounds`` codec frames through a link.

    A protocol round is request/response — every send is answered before
    the next — so the bench uses the same shape: side A sends and waits for
    the echo, side B echoes every frame.  Each ``recv_frame`` — the
    link's one reader, the loop every fabric receiver thread runs —
    services pending NAKs, and piggybacked acks keep the resend buffer at
    one frame, exactly as in a real training run.  ``plan`` (if any)
    faults side A's outgoing DATA envelopes, and then both readers NAK
    after one idle poll slice, as on a fault-armed fabric link.
    """
    frame = codec.encode_payload_frame(np.arange(payload_elems, dtype=np.float64))
    raw_a, raw_b = socket.socketpair()
    raw_a.settimeout(0.5)
    raw_b.settimeout(0.5)
    sock_a = FaultySocket(raw_a, plan) if plan is not None else raw_a
    link_a = ReliableLink(sock_a, retry=_retry())
    link_b = ReliableLink(raw_b, retry=_retry())
    polls = None if plan is None else 1
    echoed = 0
    errors: list[BaseException] = []

    def echo_side() -> None:
        nonlocal echoed
        try:
            for _ in range(n_rounds):
                body = link_b.recv_frame(idle_nak_polls=polls)
                link_b.send_frame(body)
                echoed += 1
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    thread = threading.Thread(target=echo_side, daemon=True)
    start = time.perf_counter()
    thread.start()
    for _ in range(n_rounds):
        link_a.send_frame(frame)
        link_a.recv_frame(idle_nak_polls=polls)
    elapsed = time.perf_counter() - start
    thread.join(timeout=30.0)
    try:
        if errors:
            raise errors[0]
        if thread.is_alive():
            raise RuntimeError("bench echo thread wedged")
        return {
            "rounds": n_rounds,
            "frame_bytes": len(frame),
            "payload_elems": payload_elems,
            "echoed": echoed,
            "wall_s": elapsed,
            "round_trips_per_s": n_rounds / elapsed if elapsed > 0 else None,
            "protocol_bytes": 2 * n_rounds * len(frame),
            "env_overhead_per_frame": ENV_OVERHEAD,
            "sender": link_a.stats.as_dict(),
            "receiver": link_b.stats.as_dict(),
        }
    finally:
        for s in (raw_a, raw_b):
            try:
                s.close()
            except OSError:
                pass


def pingpong_program(channel, n_rounds, payload_elems):
    """Cross-process ping-pong, one side per endpoint (module scope:
    picklable by spawn).

    A pings and awaits each pong, B answers each ping.  Link stats
    deliberately are NOT returned here — the bench reads them from
    ``run_federation``'s ``link_stats`` key to exercise that surfacing path.
    """
    payload = np.arange(payload_elems, dtype=np.float64)
    for i in range(n_rounds):
        if "A" in channel.local_parties:
            channel.send("A", "B", f"ping.{i}", payload, MessageKind.PUBLIC)
            channel.recv("A", f"pong.{i}")
        else:
            channel.recv("B", f"ping.{i}")
            channel.send("B", "A", f"pong.{i}", payload, MessageKind.PUBLIC)
    return {"bytes_by_sender": dict(channel.bytes_by_sender)}


def _two_party(n_rounds: int, payload_elems: int) -> dict:
    """Real two-process fabric run; each endpoint's ledger of its one link
    comes from the return value."""
    start = time.perf_counter()
    results = run_federation(
        pingpong_program, (n_rounds, payload_elems),
        roles={"guest": ("A",), "host": ("B",)},
        timeout=TWO_PARTY_TIMEOUT, retry=_retry(),
    )
    elapsed = time.perf_counter() - start
    stats = results["link_stats"]
    return {
        "rounds": n_rounds,
        "payload_elems": payload_elems,
        "wall_s": elapsed,
        "bytes_by_sender": results["results"]["guest"]["bytes_by_sender"],
        "guest": stats["guest"]["host"],
        "host": stats["host"]["guest"],
    }


def run(quick: bool = False, repeat: int = 1) -> dict:
    """The grid: clean rows (gated) plus one faulted row (informational)."""
    if quick:
        clean_cases = [(64, 16), (64, 512)]
        faulted_rounds, faulted_elems = 64, 64
    else:
        clean_cases = [(256, 16), (256, 512), (1024, 128)]
        faulted_rounds, faulted_elems = 256, 128
    clean_rows = []
    for n_rounds, elems in clean_cases:
        best = None
        for _ in range(repeat):
            row = _exchange(n_rounds, elems, plan=None)
            if best is None or row["wall_s"] < best["wall_s"]:
                best = row
        clean_rows.append(best)
    plan = FaultPlan.seeded(
        97, frames=faulted_rounds * 2, drop_rate=0.05, corrupt_rate=0.05,
        duplicate_rate=0.03,
    )
    faulted_row = _exchange(faulted_rounds, faulted_elems, plan=plan)
    faulted_row["fault_plan"] = {
        "seed": plan.seed,
        "events": len(plan.events),
        "drop_rate": 0.05,
        "corrupt_rate": 0.05,
        "duplicate_rate": 0.03,
    }
    two_party_row = _two_party(16 if quick else 64, 64)
    return {
        "meta": run_bench.bench_meta(quick=quick, env_overhead=ENV_OVERHEAD),
        "clean": clean_rows,
        "faulted": faulted_row,
        "two_party": two_party_row,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI-sized grid")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_transport.json"
    )
    args = parser.parse_args(argv)
    results = run(quick=args.quick, repeat=args.repeat)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    for row in results["clean"]:
        stats = row["sender"]
        print(
            f"clean {row['rounds']}x{row['frame_bytes']}B: "
            f"{row['round_trips_per_s']:.0f} round-trips/s, retransmits "
            f"{stats['retransmits']}, naks {row['receiver']['naks_sent']}, "
            f"overhead {ENV_OVERHEAD}B/frame"
        )
    f = results["faulted"]
    print(
        f"faulted {f['rounds']}x{f['frame_bytes']}B: echoed "
        f"{f['echoed']}/{f['rounds']}, retransmits "
        f"{f['sender']['retransmits']}, naks {f['receiver']['naks_sent']}, "
        f"duplicates dropped {f['receiver']['duplicates_dropped']}"
    )
    tp = results["two_party"]
    print(
        f"two-party {tp['rounds']} rounds: guest data_sent "
        f"{tp['guest']['data_sent']}, host data_sent {tp['host']['data_sent']}, "
        f"fins {tp['guest']['fins']}+{tp['host']['fins']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
