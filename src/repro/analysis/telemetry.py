"""BF003 — telemetry cost discipline.

The observability layer's core promise (ROADMAP "Telemetry") is that
**disabled telemetry is free**: every instrumentation site consults the
module global via :func:`repro.obs.tracer.get_tracer` **at most once per
kernel call** and bails on one ``is None`` check — never per element.
The promise is pinned dynamically by a consultation-counting test; this
rule pins it statically, per function body:

* more than one ``get_tracer()`` consultation in the same function body
  is flagged (hoist to one ``trc = _obs.get_tracer()`` at the top);
* any consultation inside a loop or comprehension is flagged — that is
  a per-element read of the module global, exactly the overhead the
  design rule forbids.

Nested functions are separate bodies (a closure captures its own
consultation budget).  Sites with a justified double-consult (none exist
today) would take ``# repro: telemetry-ok <reason>``.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import (
    Finding,
    ModuleInfo,
    Rule,
    dotted_name,
    iter_scopes,
    register,
    scope_calls,
)

CONSULT = "get_tracer"


class _TelemetryCostRule(Rule):
    code = "BF003"
    name = "telemetry-cost"
    rationale = (
        "disabled telemetry must cost one get_tracer() read per kernel "
        "call: at most one consultation per function body, never in a loop"
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        for qualname, _, body in iter_scopes(module.tree):
            consults: list[tuple[ast.Call, bool]] = []
            for call, in_loop in scope_calls(body):
                name = dotted_name(call.func)
                if name and name.split(".")[-1] == CONSULT:
                    consults.append((call, in_loop))
            consults.sort(key=lambda item: (item[0].lineno, item[0].col_offset))
            for call, in_loop in consults:
                if in_loop:
                    findings.append(
                        self.finding(
                            module,
                            call,
                            f"get_tracer() consulted inside a loop in "
                            f"{qualname} — hoist the consultation out; "
                            f"disabled telemetry must not pay per element",
                        )
                    )
            if len(consults) > 1:
                first_line = consults[0][0].lineno
                for call, _ in consults[1:]:
                    findings.append(
                        self.finding(
                            module,
                            call,
                            f"{qualname} consults get_tracer() "
                            f"{len(consults)} times (first at line "
                            f"{first_line}) — consult once per call and "
                            f"reuse the result",
                        )
                    )
        return findings


register(_TelemetryCostRule())
