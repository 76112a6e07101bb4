"""BF005 — transport exception taxonomy.

The reliable link's whole recovery strategy keys off one bit: is this
failure **retryable** (timeout, drop, corruption, disconnect — the link
retransmits, backs off, reconnects) or **fatal** (a dead peer, a
mis-wired topology, framing loss — retrying cannot help, abort loudly)?
A raise site that throws the unsplit ``TransportError`` base — or worse,
a bare ``Exception``/``RuntimeError`` — forces every caller back to
string-matching, and a recovery loop that guesses wrong either hangs on
an unfixable failure or papers over a protocol bug.

Statically checked, on ``comm/transport.py``, ``comm/fabric.py`` (the
N-party endpoint grid raises the same taxonomy) and ``comm/faults.py``
(the chaos layer injects into the same recovery loops, so its failures
must speak the same language — real socket exceptions like
``ConnectionResetError`` for injected faults, ``ValueError`` for plan
misconfiguration, never a catch-all): every ``raise`` with an
explicit exception must not use ``Exception``, ``BaseException``,
``RuntimeError``, or the unsplit ``TransportError`` — pick a side via
``RetryableTransportError`` / ``FatalTransportError`` or one of their
subclasses (``TransportTimeout``, ``TransportDisconnected``,
``LinkCorruptionError``, ...), which the rule resolves statically from
the module's class definitions.  Non-transport error types (``ValueError``
for misconfiguration, ``LookupError`` for routing misses) are API-misuse
signals, not link failures, and stay allowed.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import (
    Finding,
    ModuleInfo,
    Rule,
    dotted_name,
    register,
)

# Every module that raises into the transport taxonomy: the two-party
# link layer, the N-party fabric built on top of it, and the fault
# injection layer whose induced failures feed the same recovery loops.
TRANSPORT_SUBPATHS = frozenset(
    {"comm/transport.py", "comm/fabric.py", "comm/faults.py"}
)

# Never acceptable at a transport raise site: the catch-all builtins and
# the unsplit taxonomy base.
FORBIDDEN = {"Exception", "BaseException", "RuntimeError", "TransportError"}
SPLIT_ROOTS = {"RetryableTransportError", "FatalTransportError"}


def _split_subclasses(tree: ast.Module) -> set[str]:
    allowed = set(SPLIT_ROOTS)
    bases: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            bases[node.name] = {
                dotted_name(b).split(".")[-1]
                for b in node.bases
                if dotted_name(b)
            }
    for _ in range(len(bases) + 1):
        grew = False
        for cls, cls_bases in bases.items():
            if cls not in allowed and cls_bases & allowed:
                allowed.add(cls)
                grew = True
        if not grew:
            break
    return allowed


class _TransportTaxonomyRule(Rule):
    code = "BF005"
    name = "transport-taxonomy"
    rationale = (
        "transport raise sites must pick a side of the Retryable/Fatal "
        "split — never the unsplit TransportError base or a bare Exception"
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        if module.subpath not in TRANSPORT_SUBPATHS:
            return []
        findings: list[Finding] = []
        split = _split_subclasses(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = dotted_name(exc)
            if name is None:
                continue  # re-raising a bound variable keeps its class
            last = name.split(".")[-1]
            if last in FORBIDDEN and last not in split:
                hint = (
                    "RetryableTransportError if the link can recover, "
                    "FatalTransportError if it must not"
                )
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"raise {last} is unsplit — use {hint}",
                    )
                )
        return findings


register(_TransportTaxonomyRule())
