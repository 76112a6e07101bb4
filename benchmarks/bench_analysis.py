"""Static-invariant sweep: run ``repro.analysis`` over the live tree.

The analyzer (:mod:`repro.analysis`) is itself a gated artifact: the tree
it ships in must be clean, every rule must be registered, and the checker
must still *detect* — a lint pass that silently went blind would report
a clean tree forever.  So the bench records three counting-only facts,
and ``run_bench.check_analysis`` gates on all of them:

* **live sweep** — files scanned, findings (must be zero), per-rule
  finding counts, pragma suppressions in use, and BF001's custody
  allowlist (must be empty);
* **detection self-check** — a known-bad snippet per rule, analyzed
  under its virtual in-repo path, must produce exactly that rule's code
  (the same both-directions pinning as ``tests/test_analysis.py``, but
  cheap enough to re-assert on every bench run);
* **wall time** — informational; the sweep is stdlib ``ast`` over ~70
  files and should stay well under a second.

Emits ``BENCH_analysis.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_analysis.py
    PYTHONPATH=src python benchmarks/bench_analysis.py --quick
"""

from __future__ import annotations

import argparse
import json
import time
from collections import Counter
from pathlib import Path

import run_bench
from repro.analysis import RULES, analyze_paths, analyze_program, analyze_source
from repro.analysis.custody import ALLOWED_SINKS

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"

# One minimal must-flag probe per rule, each under the virtual path that
# puts it in the rule's scope.  The richer corpus lives in
# tests/data/analysis_fixtures/; these are the bench's canaries.  A
# whole-program rule's probe also carries the checkout around it.
DETECTION_PROBES = {
    "BF001": (
        "src/repro/core/probe.py",
        "def f(channel, key):\n"
        "    channel.send('a', 'b', 't', None, key.hp)\n",
    ),
    "BF002": (
        "src/repro/crypto/probe.py",
        "import random\nx = random.random()\n",
    ),
    "BF003": (
        "src/repro/crypto/probe.py",
        "from repro.obs.tracer import get_tracer\n"
        "def f(items):\n"
        "    for it in items:\n"
        "        get_tracer().count('x', 1)\n",
    ),
    "BF004": (
        "src/repro/comm/codec.py",
        "T_INT = 1\n"
        "_TYPE_NAMES = {T_INT: 'int'}\n"
        "def encode_payload(obj):\n"
        "    return bytes([T_INT])\n"
        "def decode_payload(buf):\n"
        "    return 0\n",
    ),
    "BF005": (
        "src/repro/comm/transport.py",
        "def f():\n    raise Exception('boom')\n",
    ),
    "BF007": (
        "src/repro/crypto/probe.py",
        "def f(c, e, nsq):\n    return pow(c, e, nsq)\n",
    ),
    # math_utils.lcm, once kept for tests alone, re-added beside a helper an
    # example calls.
    "BF008": (
        "src/repro/crypto/math_utils.py",
        "def invmod(a, n):\n    return a\n\n\ndef lcm(a, b):\n    return a * b\n",
        {
            "callers": {
                "examples/probe.py": "from repro.crypto.math_utils import invmod\n\ninvmod(3, 7)\n",
            },
            "manifest": (),
        },
    ),
}


def run(quick: bool = False, repeat: int = 1) -> dict:
    """Sweep the live tree and self-check detection per rule."""
    best_wall = None
    findings = []
    files_scanned = 0
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        findings, files_scanned = analyze_paths([SRC_TREE])
        wall = time.perf_counter() - t0
        if best_wall is None or wall < best_wall:
            best_wall = wall
    by_rule = Counter(f.rule_code for f in findings)
    detection = {}
    for code, (virtual_path, snippet, *checkout) in DETECTION_PROBES.items():
        probed = (
            analyze_program({virtual_path: snippet}, **checkout[0]) if checkout
            else analyze_source(snippet, path=virtual_path)
        )
        got = sorted({f.rule_code for f in probed})
        detection[code] = {"detected": got == [code], "codes": got}
    return {
        "meta": run_bench.bench_meta(quick=quick),
        "rules_registered": sorted(RULES),
        "files_scanned": files_scanned,
        "findings": len(findings),
        "zero_findings": not findings,
        "findings_by_rule": {code: by_rule.get(code, 0) for code in sorted(RULES)},
        "finding_lines": [f.format() for f in findings],
        "custody_allowlist": sorted(map(list, ALLOWED_SINKS)),
        "detection": detection,
        "wall_s": best_wall,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="single sweep, no repeats")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_analysis.json"
    )
    args = parser.parse_args(argv)
    results = run(quick=args.quick, repeat=1 if args.quick else args.repeat)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    print(
        f"sweep: {results['files_scanned']} files, {results['findings']} "
        f"finding(s), {len(results['rules_registered'])} rules, "
        f"{results['wall_s']:.3f}s"
    )
    for code, row in results["detection"].items():
        status = "ok" if row["detected"] else "BLIND"
        print(f"detect {code}: {status}")
    return 0 if results["zero_findings"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
