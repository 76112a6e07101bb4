"""CLI for the static invariant checker.

``python -m repro.analysis [paths...]`` scans the given files/directories
(default: ``src/repro`` if present, else the current directory) with
every registered rule and prints findings as clickable ``file:line``
lines, or as one JSON document with ``--json``.

Exit-code semantics (CI-friendly)::

    0  clean — no findings
    1  findings (any severity; a stale pragma is a finding too)
    2  usage error / unreadable path

The tier-1 gate (``tests/test_analysis.py``) runs this over ``src/repro``
and asserts exit 0, so the live tree stays violation-free by
construction.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis import RULES, analyze_paths


def _default_paths() -> list[str]:
    candidate = Path("src/repro")
    return [str(candidate)] if candidate.is_dir() else ["."]


# repro: api-ok the blindfl-lint console script (setup.py entry point)
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="BlindFL static invariant checker (custody, determinism, "
        "telemetry, wire coverage, transport taxonomy, arithmetic seam, "
        "reachability)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document instead of text lines",
    )
    parser.add_argument(
        "--rules",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the summary line on stderr",
    )
    args = parser.parse_args(argv)

    # Ensure rule modules are registered before any registry access.
    import repro.analysis  # noqa: F401

    if args.list_rules:
        for code in sorted(RULES):
            rule = RULES[code]
            print(f"{code}  {rule.name:20s} {rule.rationale}")
        return 0

    rules = None
    if args.rules:
        wanted = [code.strip().upper() for code in args.rules.split(",") if code.strip()]
        unknown = [code for code in wanted if code not in RULES]
        if unknown:
            print(f"unknown rule code(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        rules = [RULES[code] for code in wanted]

    paths = args.paths or _default_paths()
    try:
        findings, files_scanned = analyze_paths(paths, rules)
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(
            json.dumps(
                {
                    "files_scanned": files_scanned,
                    "rules": sorted(r.code for r in (rules or RULES.values())),
                    "findings": [f.to_dict() for f in findings],
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.format())
    if not args.quiet:
        print(
            f"repro.analysis: {files_scanned} files, "
            f"{len(findings)} finding(s)",
            file=sys.stderr,
        )
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
