"""``repro.analysis`` — AST-based static invariant checker for BlindFL.

The repo's trust story makes claims that live in prose and runtime
spot-checks: private keys never cross a wire, protocol modules are
seeded-deterministic, disabled telemetry is free, the codec encodes what
it decodes, transport errors split retryable/fatal.  This package turns
those claims into machine-checked lint over the tree itself — the first
step of ROADMAP's "attack claims CI-pinned, not prose".

Rules (see each module's docstring for rationale and examples):

========  ====================  =============================================
code      name                  invariant
========  ====================  =============================================
BF001     custody-taint         (p, q)/crt_params never flow into Channel.
                                send, codec encode_*, pickle, checkpoints,
                                or multiprocessing args (one blessed
                                private-pool initargs site)
BF002     determinism           no global-state / unseeded / OS-entropy RNG
                                calls; no wall-clock control flow in
                                crypto/, comm/, core/
BF003     telemetry-cost        at most one get_tracer() consultation per
                                function body, never inside a loop
BF004     wire-coverage         every T_* payload code encoded <-> decoded
                                <-> named; codec raises its own taxonomy;
                                every MessageKind has a wire code
BF005     transport-taxonomy    transport raise sites pick Retryable vs
                                Fatal, never the unsplit base / Exception
BF007     arithmetic-seam       ctypes imported only in crypto/bigint.py;
                                3-argument pow in crypto/ only inside the
                                reference ring (PythonRing)
BF006     unused-pragma         a suppression pragma that matches nothing
BF000     parse-error           a scanned file does not parse
========  ====================  =============================================

Suppressions: ``# repro: <tag> <reason>`` on the offending statement's
first line, or on its own line directly above.  Tags: ``custody-ok``,
``nondeterministic-ok``, ``telemetry-ok``, ``wire-ok``, ``transport-ok``,
``seam-ok``.
Stale pragmas are themselves findings (BF006).

Usage::

    PYTHONPATH=src python -m repro.analysis src/repro          # text
    PYTHONPATH=src python -m repro.analysis --json src/repro   # machine
    blindfl-lint src/repro                                     # installed

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

from repro.analysis.engine import (
    PARSE_ERROR_CODE,
    PRAGMA_TAGS,
    RULES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    UNUSED_PRAGMA_CODE,
    Finding,
    Rule,
    analyze_paths,
    analyze_source,
)

# Importing the rule modules registers each rule with the engine; keep
# this list the single place a new rule module gets wired in.
from repro.analysis import custody  # noqa: E402,F401
from repro.analysis import determinism  # noqa: E402,F401
from repro.analysis import seam  # noqa: E402,F401
from repro.analysis import telemetry  # noqa: E402,F401
from repro.analysis import transport_rules  # noqa: E402,F401
from repro.analysis import wire  # noqa: E402,F401

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "PRAGMA_TAGS",
    "PARSE_ERROR_CODE",
    "UNUSED_PRAGMA_CODE",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "analyze_paths",
    "analyze_source",
]
