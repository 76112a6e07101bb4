"""Compare two sets of benchmark results under the bounds of BENCHMARK.json.

    python3 benchmarks/e2e/compare.py base.json candidate.json

Both files are ``run.py --out`` documents; invoke ``run.py --out`` on the
base file at least four times to give the comparison a run-to-run spread.
For every workload and end-to-end metric the candidate's median is set
against the base's:

* ``regressed``  — worse than the base by more than the metric's bound;
* ``unresolved`` — the base's own spread (interquartile range over median)
  is wider than the bound, so the bound cannot be resolved either way;
* ``pass``       — neither.

Counted per-layer metrics (pows, ciphertexts, frames, bytes) are reported
as ``same`` or ``changed``: they carry no bound, but two sets of one commit
must agree on them exactly.  Exits 1 if anything regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
COUNTED_UNITS = {"1/step", "B/step", "count"}


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> one value per run`` of a result document."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for workload, result in run["results"].items():
            for metric, value in result["metrics"].items():
                values.setdefault((workload, metric), []).append(value)
    return values


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median; ``None`` below 4 values."""
    if len(values) < 4:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else None


def verdict(base: list[float], cand: list[float], better: str, bound: float):
    """``(verdict, worsening, spread)`` of one metric on one workload."""
    a, b = statistics.median(base), statistics.median(cand)
    worse = (b - a) if better == "lower" else (a - b)
    worse = worse / abs(a) if a else (0.0 if worse == 0 else float("inf"))
    noise = spread(base)
    if noise is not None and noise > bound:
        return "unresolved", worse, noise
    return ("regressed" if worse > bound else "pass"), worse, noise


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    base, cand = load(argv[0]), load(argv[1])
    regressed = 0
    for metric in spec["end_to_end"]:
        for workload in (w["name"] for w in spec["workloads"]):
            key = (workload, metric["name"])
            if key not in base or key not in cand:
                print(f"{'missing':<10} {workload:<18} {metric['name']}")
                regressed += 1
                continue
            what, worse, noise = verdict(
                base[key], cand[key], metric["better"], metric["bound"]
            )
            regressed += what == "regressed"
            noise_text = "n/a" if noise is None else f"{noise:.4f}"
            print(
                f"{what:<10} {workload:<18} {metric['name']:<22} "
                f"base {statistics.median(base[key]):.6g} "
                f"candidate {statistics.median(cand[key]):.6g} "
                f"worse by {worse:+.4f} (bound {metric['bound']}, spread {noise_text})"
            )
    for metric in spec["per_layer"]:
        if metric["unit"] not in COUNTED_UNITS:
            continue
        for workload in (w["name"] for w in spec["workloads"]):
            key = (workload, metric["name"])
            if key in base and key in cand:
                same = set(base[key]) == set(cand[key]) and len(set(base[key])) == 1
                print(f"{'same' if same else 'changed':<10} {workload:<18} {metric['name']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
