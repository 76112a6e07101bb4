"""N-party fabric benchmark: a clean and a faulted endpoint grid.

Runs one 3-endpoint federation (two Party A processes + the key owner)
on clean links and emits the evidence behind the fabric's claims, gated
by ``run_bench.check_fabric``:

* **determinism** — the run's losses are float-exact against the
  all-local in-memory reference and the pooled per-endpoint weight
  pieces are array-equal;
* **clean links** — every per-peer ledger counts zero recovery traffic
  (loopback, fault-free), envelope bytes are exactly ``ENV_OVERHEAD``
  per DATA frame, and the grid is a star: Party A endpoints only ever
  link to the key owner;
* **chaos survival** — a second run injects a deterministic
  drop+corrupt+duplicate schedule on the one A1→B link: delivery stays
  100% (sender's logical frames == receiver's accepted frames), losses
  and weight pieces stay bit-identical to the all-local reference, the
  faulted link's ledgers show the recovery actually happened
  (NAKs, retransmits, dropped corruption/duplicates all nonzero), and
  the untouched A2↔B link still counts zero recovery traffic.

* **message depth** — every run is traced on every endpoint and
  :func:`repro.obs.collect.critical_path` reads the merged traces: the
  longest chain of dependent messages in one ``train_step`` is exactly 5
  (it was ``4M + 1`` = 9 before the send-early order).  The count is
  timing-free and is the only part of the report that is gated.

Wall clock and the critical path itself (where the key owner's step went:
busy and hop time per role, time blocked in ``recv`` per role) are
informational — on a shared 2-CPU box nothing timed is gated.

Emits ``BENCH_fabric.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_fabric.py
    PYTHONPATH=src python benchmarks/bench_fabric.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

import run_bench
from repro.comm.fabric import run_federation
from repro.comm.faults import FaultEvent, FaultPlan
from repro.comm.party import VFLConfig, VFLContext
from repro.comm.transport import ENV_OVERHEAD
from repro.core.multiparty import MultiPartyLR
from repro.obs import JsonlSink, Tracer, use_tracer
from repro.obs import span as obs_span
from repro.obs.collect import critical_path, merge_traces, read_jsonl_trace
from repro.utils.tabulate import format_table

REPO_ROOT = Path(__file__).resolve().parent.parent

FABRIC_TIMEOUT = 90.0
GRID = {"ep_a1": ("A1",), "ep_a2": ("A2",), "ep_b": ("B",)}
IN_DIMS = {"A1": 4, "A2": 3}
IN_B = 3
N_ROWS = 16
LR = 0.1

# Chaos row: a fixed fault schedule on the one A1→B direction.  Explicit
# events rather than seeded rates — the quick run pushes only a handful
# of frames down that link, and the row is gated on every fault class
# visibly firing *and* recovering.
FAULT_PLANS = {
    ("ep_a1", "ep_b"): FaultPlan(
        events=(
            FaultEvent(2, "corrupt"),
            FaultEvent(4, "drop"),
            FaultEvent(6, "duplicate"),
        )
    )
}
FAULT_SOCK_TIMEOUT = 0.5


def _data():
    rng = np.random.default_rng(1234)
    x = {
        "A1": rng.normal(size=(N_ROWS, IN_DIMS["A1"])),
        "A2": rng.normal(size=(N_ROWS, IN_DIMS["A2"])),
        "B": rng.normal(size=(N_ROWS, IN_B)),
    }
    y = (rng.random(N_ROWS) < 0.5).astype(np.float64)
    return x, y


def _build(channel=None):
    ctx = VFLContext(VFLConfig(key_bits=128), seed=31, n_a_parties=2, channel=channel)
    return ctx, MultiPartyLR(ctx, dict(IN_DIMS), IN_B)


def fabric_program(channel, steps, trace_dir):
    """Per-endpoint side of the benchmark run (module scope: picklable)."""
    ctx, model = _build(channel)
    x_full, y = _data()
    x = {k: v for k, v in x_full.items() if ctx.is_local(k)}
    labels = y if ctx.is_local("B") else None
    tracer = Tracer(
        sink=JsonlSink(os.path.join(trace_dir, f"{channel.role}.jsonl"))
    )
    losses = []
    with use_tracer(tracer):
        for k in range(steps):
            with obs_span("batch", batch=k):
                losses.append(model.train_step(x, labels, lr=LR))
    return {
        "losses": losses,
        "pieces": model.source.local_weight_pieces(),
    }


def _reference(steps: int):
    ctx, model = _build()
    x, y = _data()
    losses = [model.train_step(x, y, lr=LR) for _ in range(steps)]
    return losses, model.source.local_weight_pieces()


def _fabric_run(
    steps: int,
    fault_plans: dict | None = None,
    sock_timeout: float | None = None,
) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench_fabric_") as trace_dir:
        start = time.perf_counter()
        out = run_federation(
            fabric_program,
            (steps, trace_dir),
            roles=GRID,
            timeout=FABRIC_TIMEOUT,
            fault_plans=fault_plans,
            sock_timeout=sock_timeout,
        )
        wall = time.perf_counter() - start
        merged = merge_traces(
            {
                role: read_jsonl_trace(os.path.join(trace_dir, f"{role}.jsonl"))
                for role in GRID
            }
        )
    results = out["results"]
    pooled: dict[str, np.ndarray] = {}
    for role in GRID:
        pooled.update(results[role]["pieces"])
    return {
        "wall_s": wall,
        "losses": results["ep_b"]["losses"],
        "pooled_pieces": pooled,
        "link_stats": out["link_stats"],
        "merged": merged,
    }


def _path_summary(report: list[dict]) -> dict:
    """Fold :func:`critical_path`'s per-step report into the bench row.

    ``message_depth`` is the counted, gated part.  The shares are of the
    key owner's summed step wall clock: ``recv_wait_share[role]`` is the
    time that role's parties spent blocked in ``recv``, ``path_share[role]``
    is where the critical path ran (``busy``) and which role the hops it
    crossed were headed for (``wait``).
    """
    wall = sum(step["wall_s"] for step in report)
    home = {party: role for role, parties in GRID.items() for party in parties}
    recv_wait = dict.fromkeys(GRID, 0.0)
    path = {role: {"busy": 0.0, "wait": 0.0} for role in GRID}
    for step in report:
        for msg in step["messages"]:
            recv_wait[home[msg["receiver"]]] += msg["wait_s"]
        for seg in step["segments"]:
            path[seg["role"]]["busy"] += seg["busy_s"]
            path[seg["role"]]["wait"] += seg["wait_s"]
    return {
        "message_depth": [step["depth"] for step in report],
        "wall_s": wall,
        "closure_error": max(
            abs(
                sum(seg["busy_s"] + seg["wait_s"] for seg in step["segments"])
                / step["wall_s"]
                - 1.0
            )
            for step in report
        ),
        "recv_wait_share": {role: t / wall for role, t in recv_wait.items()},
        "path_share": {
            role: {kind: t / wall for kind, t in side.items()}
            for role, side in path.items()
        },
    }


def run(quick: bool = False) -> dict:
    steps = 3 if quick else 6
    ref_losses, ref_pieces = _reference(steps)

    blocking = _fabric_run(steps)
    faulted = _fabric_run(
        steps, fault_plans=FAULT_PLANS, sock_timeout=FAULT_SOCK_TIMEOUT
    )
    n_spans_merged = len(blocking["merged"])

    def summarise(row: dict) -> dict:
        pooled = row.pop("pooled_pieces")
        report = critical_path(row.pop("merged"))
        return {
            **row,
            "losses_match_memory": row["losses"] == ref_losses,
            "pieces_match_memory": set(pooled) == set(ref_pieces)
            and all(
                np.array_equal(pooled[name], ref_pieces[name])
                for name in ref_pieces
            ),
            "critical_path": _path_summary(report),
            "last_path": report[-1]["segments"],  # printed by main()
        }

    return {
        "meta": run_bench.bench_meta(
            quick=quick,
            steps=steps,
            grid={role: list(parties) for role, parties in GRID.items()},
            env_overhead=ENV_OVERHEAD,
            faulted_link=["ep_a1", "ep_b"],
            fault_schedule=[
                [ev.frame, ev.action] for ev in FAULT_PLANS[("ep_a1", "ep_b")].events
            ],
        ),
        "memory_losses": ref_losses,
        "blocking": summarise(blocking),
        "faulted": summarise(faulted),
        "n_spans_merged": n_spans_merged,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI-sized run")
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_fabric.json"
    )
    args = parser.parse_args(argv)
    results = run(quick=args.quick)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    for mode in ("blocking", "faulted"):
        row = results[mode]
        b_stats = row["link_stats"]["ep_b"]
        frames = sum(s["data_sent"] + s["data_received"] for s in b_stats.values())
        print(
            f"{mode}: {row['wall_s']:.2f}s for {results['meta']['steps']} steps, "
            f"losses_match={row['losses_match_memory']}, "
            f"pieces_match={row['pieces_match_memory']}, "
            f"{frames} frames through the key owner"
        )
    for mode in ("blocking", "faulted"):
        summary = results[mode]["critical_path"]
        print(
            f"{mode}: message depth per step {summary['message_depth']}; "
            "blocked in recv, share of the key owner's steps: "
            + ", ".join(
                f"{role} {share:.0%}"
                for role, share in summary["recv_wait_share"].items()
            )
            + f" (path closes to {summary['closure_error']:.1e})"
        )
        print(
            format_table(
                ["role", "party", "entered_by", "busy_ms", "wait_ms"],
                [
                    [
                        seg["role"], seg["party"], seg["entered_by"] or "-",
                        seg["busy_s"] * 1e3, seg["wait_s"] * 1e3,
                    ]
                    for seg in results[mode]["last_path"]
                ],
                title=f"{mode}: critical path of the last step",
            )
        )
    a1 = results["faulted"]["link_stats"]["ep_a1"]["ep_b"]
    b = results["faulted"]["link_stats"]["ep_b"]["ep_a1"]
    print(
        f"faulted A1->B recovery: {a1['retransmits']} retransmits / "
        f"{b['naks_sent']} NAKs / {b['corrupt_dropped']} corrupt + "
        f"{b['duplicates_dropped']} duplicates dropped"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
