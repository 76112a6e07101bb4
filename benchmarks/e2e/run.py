"""End-to-end benchmark: seconds per federated training step, and where it goes.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace [0|1]] [--quick] [--profile] [--out F]

Without ``--trace`` every workload gets a timed run (end-to-end metrics,
shims and tracer off) and then a separate traced run (per-layer metrics);
``--trace 0`` / ``--trace 1`` do one or the other, which is how the driver
of ``BENCHMARK.json`` calls it.  Every metric is printed by name with its
unit, outputs are checked against a same-seed reference, and the last line
of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the workload that ran
last.  Nothing is written unless ``--out`` is given; ``--out F`` appends this
invocation to the runs already in ``F``, so repeats are separate processes.
See the README beside this file for what each metric means and which layer
should move which.
"""

from __future__ import annotations

import sys

if __name__ == "__main__":
    sys.dont_write_bytecode = True  # a run leaves the checkout as git made it

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import instrument  # noqa: E402
import workloads  # noqa: E402
from workloads import SPECS, WARMUP  # noqa: E402

DEFAULT_SECONDS = 20
SETUP_SAMPLES = 5  # set-ups per timed run; setup_s is their median
CALIBRATION_STEPS = 2  # timed steps of each extra set-up, sizing the window
WIRE_STEPS = 40  # timed steps wire_bytes_per_step is taken over, every run
TRACED_STEPS = 20  # timed steps of a traced run
TRACED_STEPS_FABRIC = 40
QUICK_STEPS = 4
PROFILE_STEPS = 10

END_TO_END = {
    "step_s_p10": "s",
    "wire_bytes_per_step": "B/step",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

_STEP_TIME_LAYERS = [
    layer for layer in instrument.LAYERS if layer != "crypto.paillier.keygen"
]
_INCLUSIVE_ROWS = [
    f"core.{layer}.{part}"
    for layer in ("matmul", "embed", "multiparty")
    for part in ("forward", "backward", "update")
]
_COUNTERS = {
    "crypto.pow.mul": ("pow.mul",),
    "crypto.pow.shift": ("pow.shift",),
    "crypto.pow.crt": ("pow.crt",),
    "crypto.pow.blind": ("pow.blind.lambda", "pow.blind.classic"),
    "crypto.ct.encrypted": ("ct.encrypted",),
    "crypto.ct.decrypted": ("ct.decrypted",),
    "crypto.ct.packed": ("ct.packed",),
    "comm.channel.frames": ("frames.sent",),
}
PER_LAYER = {
    **{f"{layer}_s": "s/step" for layer in _STEP_TIME_LAYERS},
    **{f"{row}_s": "s/step" for row in _INCLUSIVE_ROWS},
    "core.init_s": "s",
    "crypto.paillier.keygen_s": "s",
    **{name: "1/step" for name in _COUNTERS},
    "crypto.pool.hit_share": "share",
    "comm.transport.envelope_bytes": "B/step",
    "comm.transport.recovery_events": "count",
    "comm.fabric.spawn_s": "s",
    "comm.fabric.shutdown_s": "s",
    "core.trainer.step_s_p50": "s",
    "core.trainer.step_s_p90": "s",
    "core.trainer.samples_per_s": "1/s",
    "core.trainer.unattributed_share": "share",
    "obs.trace_overhead_share": "share",
}


def traced_steps(spec, quick: bool) -> int:
    if quick:
        return QUICK_STEPS
    return TRACED_STEPS_FABRIC if spec.fabric else TRACED_STEPS


def step_s_p10(run) -> float:
    """The gated step time: the lower decile of the timed steps.

    On a shared box contention only ever adds time, and it moves the
    median of identical steps by tens of percent between quarter-hours;
    the lower decile stays with the program.
    """
    return float(np.percentile(run.step_s, 10))


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus that of its reaped children."""
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def timed_run(spec, inputs, seed: int, seconds: float, quick: bool):
    """Set up ``SETUP_SAMPLES`` times; the last set-up runs the timed window.

    The extra set-ups each run a few steps past warm-up, which sizes the
    window: the final run is asked for as many steps as fit ``seconds`` at
    the fastest step seen (noise only ever slows a step down).
    """
    if quick:
        return workloads.execute(spec, inputs, seed, WARMUP + QUICK_STEPS), []
    probes = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = workloads.execute(spec, inputs, seed, WARMUP + CALIBRATION_STEPS)
        if probe.error is not None:
            return probe, []
        probes.append(probe)
    fastest = min(min(probe.step_s) for probe in probes)
    least = WARMUP + WIRE_STEPS
    total = max(least, WARMUP + round(seconds / fastest))
    if not spec.fabric:  # whole epochs, so every epoch sees the whole dataset
        per_epoch = spec.batches_per_epoch
        total = max(math.ceil(least / per_epoch), round(total / per_epoch)) * per_epoch
    return workloads.execute(spec, inputs, seed, total), probes


def end_to_end_metrics(run, probes, quick: bool) -> dict[str, float]:
    k = QUICK_STEPS if quick else WIRE_STEPS
    return {
        "step_s_p10": step_s_p10(run),
        "wire_bytes_per_step": sum(run.step_bytes[WARMUP : WARMUP + k]) / k,
        "setup_s": statistics.median([r.setup_s for r in (*probes, run)]),
        "peak_rss_mib": peak_rss_mib(),
    }


def counts_per_step(trace: list[dict]) -> list[dict[str, int]]:
    """Counter totals of each ``batch`` span's subtree, in step order.

    Spans arrive in close order and a batch span closes after everything
    under it, so the counters seen since the previous batch are its own.
    """
    steps, seen = [], {}
    for span in trace:
        for key, n in span["counters"].items():
            seen[key] = seen.get(key, 0) + n
        if span["phase"] == "batch":
            steps.append(seen)
            seen = {}
    return steps


def per_layer_metrics(spec, run, untraced) -> dict[str, float]:
    t_lo, t_hi = run.stamps[WARMUP], run.stamps[-1]
    n = len(run.step_s)
    steps = instrument.fold(run.spans, t_lo, t_hi, run.thread)
    setup = instrument.fold(run.spans, 0.0, t_lo, run.thread)
    out = {
        # Receiver-thread time counts toward its layer but overlaps the
        # protocol thread's waits, so closure below leaves it out.
        f"{layer}_s": (
            steps["self"].get(layer, 0.0) + steps["off_thread"].get(layer, 0.0)
        ) / n
        for layer in _STEP_TIME_LAYERS
    }
    for row in _INCLUSIVE_ROWS:
        out[f"{row}_s"] = steps["inclusive"].get(row, 0.0) / n
    out["core.init_s"] = setup["inclusive"].get("core.init", 0.0)
    out["crypto.paillier.keygen_s"] = setup["self"].get("crypto.paillier.keygen", 0.0)
    counts = counts_per_step(run.trace)[WARMUP:]

    def total(key: str) -> int:
        return sum(step.get(key, 0) for step in counts)

    for name, keys in _COUNTERS.items():
        out[name] = sum(total(key) for key in keys) / n
    hits, misses = total("pool.hit"), total("pool.miss")
    out["crypto.pool.hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    ledgers = run.fabric.get("link_stats", {})
    out["comm.transport.envelope_bytes"] = (
        ledgers["ep_b"]["ep_a"]["envelope_bytes"] / run.planned if ledgers else 0.0
    )
    out["comm.transport.recovery_events"] = float(
        sum(
            peer[name]
            for links in ledgers.values()
            for peer in links.values()
            for name in workloads.RECOVERY_COUNTERS
        )
    )
    out["comm.fabric.spawn_s"] = run.fabric.get("spawn_s", 0.0)
    out["comm.fabric.shutdown_s"] = run.fabric.get("shutdown_s", 0.0)
    out["core.trainer.step_s_p50"] = float(np.median(untraced.step_s))
    out["core.trainer.step_s_p90"] = float(np.percentile(untraced.step_s, 90))
    out["core.trainer.samples_per_s"] = (
        spec.batch * len(untraced.step_s)
        / (untraced.stamps[-1] - untraced.stamps[WARMUP])
    )
    out["core.trainer.unattributed_share"] = (
        1.0 - sum(steps["self"].values()) / (t_hi - t_lo)
    )
    out["obs.trace_overhead_share"] = step_s_p10(run) / step_s_p10(untraced) - 1.0
    return out


def measure(spec, seed: int, seconds: float, trace, quick: bool, profile: bool) -> dict:
    """All requested runs of one workload: metrics plus the output check."""
    inputs = workloads.make_inputs(spec, seed)
    fixed = WARMUP + traced_steps(spec, quick)
    metrics, runs, reasons = {}, [], []
    untraced = None
    if trace != 1:
        untraced, probes = timed_run(spec, inputs, seed, seconds, quick)
        runs.append(untraced)
        if untraced.error is None:
            metrics.update(end_to_end_metrics(untraced, probes, quick))
    if trace != 0:
        if untraced is None:
            untraced = workloads.execute(spec, inputs, seed, fixed)
            runs.append(untraced)
        recorder = instrument.Recorder()
        with instrument.instrumented(recorder):
            traced = workloads.execute(spec, inputs, seed, fixed, recorder=recorder)
        runs.append(traced)
        if traced.error is None and untraced.error is None:
            metrics.update(per_layer_metrics(spec, traced, untraced))
    result = {"config": spec.config(), "metrics": metrics}
    if profile:
        profiled = workloads.execute(
            spec, inputs, seed, WARMUP + PROFILE_STEPS, profile=True
        )
        result["profile_top"] = profiled.profile_top
    # Every planned step of every run is an attempt.
    reference = workloads.reference_losses(spec, inputs, seed, fixed)
    # The runs share a batch order only as far as the shortest first epoch,
    # which the reference's length stays within.
    if len({tuple(run.losses[: len(reference)]) for run in runs}) > 1:
        reasons.append("runs of one seed disagree on their leading losses")
    attempted = failed = 0
    for run in runs:
        bad, why = workloads.failed_steps(spec, run, reference)
        attempted += run.planned
        failed += bad
        reasons.extend(why)
    if reasons and not failed:
        failed = attempted
    result.update(
        attempted=attempted, failed=failed, correct=failed == 0, reasons=reasons,
        failed_step_share=failed / attempted,
        timed_steps=len(runs[0].step_s) if runs[0].error is None else 0,
    )
    return result


def _git_sha() -> str | None:
    """HEAD of this checkout; ``None`` where it is not a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def meta(seed: int, names: list[str]) -> dict:
    from repro.crypto.math_utils import have_gmpy2

    return {
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "gmpy2": have_gmpy2(),
        "seed": seed,
        "workloads": {name: SPECS[name].config() for name in names},
    }


def _print_metrics(name: str, result: dict) -> None:
    units = {**END_TO_END, **PER_LAYER, "failed_step_share": "share", "timed_steps": "count"}
    shown = {
        **result["metrics"], "failed_step_share": result["failed_step_share"],
        "timed_steps": result["timed_steps"],
    }
    for metric, value in shown.items():
        print(f"{name:<18} {metric:<34} {value:>16.6f} {units[metric]}")
    for reason in result["reasons"]:
        print(f"{name}: CHECK FAILED: {reason}")


def result_line(result: dict) -> str:
    units = {**END_TO_END, **PER_LAYER}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in result["metrics"].items()
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS), help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of each workload's timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        help="1: per-layer metrics only; 0: end-to-end only")
    parser.add_argument("--quick", action="store_true",
                        help=f"{WARMUP} + {QUICK_STEPS} steps per run, one set-up")
    parser.add_argument("--profile", action="store_true",
                        help="add a cProfile pass; top 20 by self time in --out")
    parser.add_argument("--out", help="append meta, metrics and profiles to this file")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(SPECS)
    results = {}
    for name in names:
        results[name] = measure(
            SPECS[name], args.seed, args.seconds, args.trace, args.quick, args.profile
        )
        _print_metrics(name, results[name])
        print(result_line(results[name]), flush=True)
    if args.out:
        out = Path(args.out)
        document = json.loads(out.read_text()) if out.exists() else {"runs": []}
        document["runs"].append({"meta": meta(args.seed, names), "results": results})
        out.write_text(json.dumps(document, indent=1) + "\n")
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
