"""Process-local phase tracer: nested spans + deterministic counters.

The tracer is the observability backbone for the federation: protocol
sites open nested, phase-tagged spans (``encrypt``, ``pack``,
``he2ss_send``, ``decrypt``, ``fw_transfer``, ``bw_transfer``,
``lkup_bw``, ``link_recovery``, plus trainer roots
``epoch``/``batch``/``checkpoint``), and instrumented kernels attribute
counters to whichever span is currently open.  Every channel message
additionally leaves a ``send`` leaf (``party`` = sender, ``tag``, ``to``)
and a ``recv`` leaf (``party`` = receiver, ``tag``; its duration is the
time spent blocked, and ``blocked`` is set when the message was not there
yet) — both ends know the tag, which is what links them across endpoints
(:func:`repro.obs.collect.critical_path`).  Every span is timed on one
clock, ``time.perf_counter``: ``t_start`` when it opens, ``dur_s`` when it
closes.  Wall times are informational; counters are exact and
reproducible for a seeded run.

Counter taxonomy (see ROADMAP.md "Telemetry" for full definitions):

- ``pow.mul``            scalar multiplications ``ct ** mantissa`` with
                         ``|mantissa| >= 2``, one per distinct
                         ``(ciphertext, mantissa)`` of a kernel call
- ``pow.shift``          exponent-alignment shift multiplies
- ``pow.crt``            half-size decrypt pows run: 1 per one-prime
                         decrypt, 2 per CRT one (packed, small keys, or
                         a one-prime fallback, which also paid its 1)
- ``pow.blind.lambda``   λ-bit blinders ``h^x`` drawn
- ``pow.blind.classic``  full ``r0^n`` pows: one per key, its base ``h``
- ``ct.encrypted`` / ``ct.decrypted`` / ``ct.packed``   ciphertext flow
- ``bytes.sent`` / ``frames.sent`` / ``bytes.sent.<party>``  channel
- ``link.<field>``       one per ``LinkStats`` counter, same names; they
                         go to whatever span is innermost when the link
                         bumps them, which on the socket tiers is the
                         ``send`` leaf for a blocking send's own
                         ``data_sent`` / ``envelope_bytes`` and, for the
                         receiver thread's, mostly the ``recv`` leaf the
                         program is blocked in (the byte and frame
                         counters above never land on these leaves)

The ``pow.*`` counters are *logical*: they count what the protocol asked
for (``pow.crt``: the half-size pows decryption ran), not the modular
multiplications the exponentiation engine
(``crypto.modexp``) spent answering — shared squarings, fixed-base tables
and batch inversions change the work, never the count.

Zero overhead when disabled: the module-level :func:`get_tracer` returns
``None`` and every instrumentation site bails on one ``is None`` check
per *kernel call* (never per element); :func:`span` returns a shared
null context manager.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "use_tracer",
    "span",
    "add",
    "counter_totals",
    "validate_trace",
]

ROOT_PHASE = "session"


class Span:
    """One phase-tagged interval with its own counter ledger."""

    __slots__ = (
        "phase",
        "party",
        "attrs",
        "span_id",
        "parent_id",
        "depth",
        "t_start",
        "dur_s",
        "counters",
    )

    def __init__(
        self,
        phase: str,
        party: str | None,
        attrs: dict[str, Any],
        span_id: int,
        parent_id: int | None,
        depth: int,
    ) -> None:
        self.phase = phase
        self.party = party
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.t_start = 0.0
        self.dur_s = 0.0  # set when the span closes
        self.counters: dict[str, int] = {}

    def add(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def to_dict(self) -> dict[str, Any]:
        return {
            "phase": self.phase,
            "party": self.party,
            "attrs": dict(self.attrs),
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "t_start": self.t_start,
            "dur_s": self.dur_s,
            "counters": dict(self.counters),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.phase!r}, party={self.party!r}, id={self.span_id},"
            f" counters={self.counters})"
        )


class Tracer:
    """Collects nested spans; finished spans go to ``spans`` and the sink.

    A tracer always retains finished spans in memory (``spans``, in close
    order) so reports and tests can fold them without a sink round-trip;
    an optional export sink (:class:`repro.obs.collect.JsonlSink`)
    additionally receives each span as it closes.  An implicit ``session``
    root span is open for the tracer's whole lifetime and catches counters
    incremented outside any explicit phase.
    """

    def __init__(self, sink: Any = None) -> None:
        self.sink = sink
        self._next_id = 0
        self._stack: list[Span] = []
        self.spans: list[Span] = []
        self._open(ROOT_PHASE, None, {})

    # -- span lifecycle ----------------------------------------------------

    def _open(self, phase: str, party: str | None, attrs: dict[str, Any]) -> Span:
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            phase,
            party,
            attrs,
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            depth=len(self._stack),
        )
        self._next_id += 1
        sp.t_start = time.perf_counter()
        self._stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        if not self._stack or self._stack[-1] is not sp:
            raise RuntimeError(
                f"span {sp.phase!r} closed out of order (open stack:"
                f" {[s.phase for s in self._stack]})"
            )
        self._stack.pop()
        sp.dur_s = time.perf_counter() - sp.t_start
        self.spans.append(sp)
        if self.sink is not None:
            self.sink.emit(sp)

    @contextlib.contextmanager
    def span(
        self, phase: str, party: str | None = None, **attrs: Any
    ) -> Iterator[Span]:
        sp = self._open(phase, party, attrs)
        try:
            yield sp
        finally:
            self._close(sp)

    @property
    def current(self) -> Span:
        return self._stack[-1]

    # -- counters ----------------------------------------------------------

    def add(self, key: str, n: int = 1) -> None:
        """Attribute ``n`` to the innermost open span."""
        self._stack[-1].add(key, n)

    # -- teardown / export -------------------------------------------------

    def close(self) -> None:
        """Close any still-open spans (root last) and flush the sink."""
        while self._stack:
            self._close(self._stack[-1])
        if self.sink is not None:
            self.sink.close()
            self.sink = None

    def to_dicts(self) -> list[dict[str, Any]]:
        return [sp.to_dict() for sp in self.spans]


# ---------------------------------------------------------------------------
# Module-level default tracer.

_TRACER: Tracer | None = None

# One shared no-op context manager: ``span()`` while disabled allocates
# nothing.  nullcontext is stateless, so reuse across concurrent with-
# blocks is safe.
_NULL_SPAN = contextlib.nullcontext(None)


def get_tracer() -> Tracer | None:
    """The active tracer, or ``None`` when telemetry is disabled.

    Instrumentation sites call this once per kernel/protocol call and
    bail on ``None`` — the zero-overhead fast path.
    """
    return _TRACER


@contextlib.contextmanager
def use_tracer(tracer: Tracer | None) -> Iterator[Tracer | None]:
    """Install ``tracer`` as the process default for the block; restores
    the previous one and closes ``tracer`` on exit."""
    global _TRACER
    previous, _TRACER = _TRACER, tracer
    try:
        yield tracer
    finally:
        _TRACER = previous
        if tracer is not None:
            tracer.close()


def span(phase: str, party: str | None = None, **attrs: Any):
    """Open a phase span on the active tracer; no-op context if disabled."""
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(phase, party=party, **attrs)


def add(key: str, n: int = 1) -> None:
    """Attribute ``n`` to the current span of the active tracer, if any."""
    tracer = _TRACER
    if tracer is not None and n:
        tracer.add(key, n)


# ---------------------------------------------------------------------------
# Trace-level helpers (operate on span dicts, i.e. Tracer.to_dicts()).


def counter_totals(spans: list[dict[str, Any]]) -> dict[str, int]:
    """Sum every counter across all spans of a trace."""
    totals: dict[str, int] = {}
    for sp in spans:
        for key, n in sp["counters"].items():
            totals[key] = totals.get(key, 0) + n
    return totals


_REQUIRED_KEYS = (
    "phase",
    "party",
    "attrs",
    "id",
    "parent",
    "depth",
    "t_start",
    "dur_s",
    "counters",
)


def validate_trace(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Schema-check a trace (list of span dicts); raises ``ValueError``.

    Invariants: unique ids, every parent id resolves, exactly one root
    (the ``session`` span), non-negative integer counters, non-negative
    durations, depth consistent with the parent chain.
    """
    if not isinstance(spans, list) or not spans:
        raise ValueError("trace must be a non-empty list of span dicts")
    by_id: dict[int, dict[str, Any]] = {}
    for sp in spans:
        if not isinstance(sp, dict):
            raise ValueError(f"span is not a dict: {sp!r}")
        missing = [k for k in _REQUIRED_KEYS if k not in sp]
        if missing:
            raise ValueError(f"span {sp.get('id')!r} missing keys {missing}")
        if not isinstance(sp["phase"], str) or not sp["phase"]:
            raise ValueError(f"span {sp['id']!r} has empty phase")
        if sp["party"] is not None and not isinstance(sp["party"], str):
            raise ValueError(f"span {sp['id']!r} party must be str or None")
        if not isinstance(sp["id"], int) or sp["id"] in by_id:
            raise ValueError(f"span id {sp['id']!r} duplicated or non-int")
        if not isinstance(sp["dur_s"], (int, float)) or sp["dur_s"] < 0:
            raise ValueError(f"span {sp['id']} has negative duration")
        if not isinstance(sp["counters"], dict):
            raise ValueError(f"span {sp['id']} counters must be a dict")
        for key, n in sp["counters"].items():
            if not isinstance(key, str) or not isinstance(n, int) or n < 0:
                raise ValueError(
                    f"span {sp['id']} counter {key!r}={n!r} must be a"
                    " non-negative int"
                )
        by_id[sp["id"]] = sp
    roots = [sp for sp in spans if sp["parent"] is None]
    if len(roots) != 1:
        raise ValueError(f"trace must have exactly one root span, got {len(roots)}")
    if roots[0]["phase"] != ROOT_PHASE:
        raise ValueError(f"root span must be {ROOT_PHASE!r}, got {roots[0]['phase']!r}")
    for sp in spans:
        parent_id = sp["parent"]
        if parent_id is None:
            if sp["depth"] != 0:
                raise ValueError(f"root span {sp['id']} has depth {sp['depth']}")
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            raise ValueError(f"span {sp['id']} references unknown parent {parent_id}")
        if sp["depth"] != parent["depth"] + 1:
            raise ValueError(
                f"span {sp['id']} depth {sp['depth']} inconsistent with"
                f" parent depth {parent['depth']}"
            )
    return spans
