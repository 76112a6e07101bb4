"""Cross-endpoint trace collector: N per-role JSONL traces, one timeline.

Every fabric endpoint traces into its own process-local sink (see
:mod:`repro.obs.sinks`), so a federation run leaves one JSONL file per
role.  This module merges them into a single namespaced trace and renders
it as one Chrome/Perfetto timeline with **one process lane per endpoint**,
so each endpoint's compute and peer waits line up on one axis.
:func:`critical_path` reads the same
merged trace the other way: it links every message's ``send`` span to its
``recv`` span by tag and reports, per step, how many dependent messages
deep the step is and which role the key owner's wall clock was waiting on.

Span ids are only unique *within* one tracer, so merging namespaces both
``id`` and ``parent`` as ``"<role>:<id>"`` — the role prefix is the
endpoint's name in the federation topology, making every merged span id
globally unique by construction (a collision inside one role's trace is
corrupt input and raises).

Clock caveat: span timestamps come from ``time.perf_counter``, which on
Linux is ``CLOCK_MONOTONIC`` — a *shared* clock across processes on one
host, so fabric endpoints (all local OS processes) land on one comparable
axis.  On platforms where ``perf_counter`` is per-process, cross-role
offsets are meaningless and only within-role ordering holds.
"""

from __future__ import annotations

import json

__all__ = [
    "read_jsonl_trace",
    "merge_traces",
    "chrome_timeline",
    "write_chrome_timeline",
    "critical_path",
]


def read_jsonl_trace(path: str) -> list[dict]:
    """Load one endpoint's JSONL trace (one span dict per line)."""
    spans: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                span = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: not a JSON span record ({exc})"
                ) from None
            if not isinstance(span, dict) or "id" not in span:
                raise ValueError(
                    f"{path}:{line_no}: span record has no 'id' field"
                )
            spans.append(span)
    return spans


def merge_traces(traces: dict[str, list[dict]]) -> list[dict]:
    """Merge per-role span lists into one role-namespaced trace.

    ``traces`` maps each role (endpoint name) to its span dicts, e.g.
    ``{role: read_jsonl_trace(path) for role, path in files.items()}``.
    Every span gains a ``"role"`` key, and ``id``/``parent`` are rewritten
    to ``"<role>:<id>"`` so ids from different endpoints can never
    collide.  A duplicate id *within* one role's trace raises — that is a
    corrupt input file, not a mergeable trace.  Spans are ordered by
    ``t_start`` across all roles (the shared-monotonic-clock axis).
    """
    merged: list[dict] = []
    for role, spans in sorted(traces.items()):
        seen: set = set()
        for span in spans:
            sid = span["id"]
            if sid in seen:
                raise ValueError(
                    f"role {role!r} trace has duplicate span id {sid!r} — "
                    f"corrupt input (ids are unique within one tracer)"
                )
            seen.add(sid)
            out = dict(span)
            out["role"] = role
            out["id"] = f"{role}:{sid}"
            if out.get("parent") is not None:
                out["parent"] = f"{role}:{out['parent']}"
            merged.append(out)
    merged.sort(key=lambda s: (s.get("t_start", 0.0), s["id"]))
    return merged


def chrome_timeline(merged: list[dict]) -> dict:
    """Render a merged trace as Chrome trace-event JSON, one pid per role.

    Each role becomes its own process lane (``pid``), named via a
    ``process_name`` metadata event; parties within a role keep the
    per-``tid`` thread lanes of the single-process
    :class:`~repro.obs.sinks.ChromeTraceSink`.  Timestamps stay on the
    shared ``perf_counter`` axis (µs), so spans of different endpoints
    align — overlap between an A endpoint's encrypt and the key owner's
    in-flight transfer is directly visible.
    """
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    events: list[dict] = []
    for span in merged:
        role = span.get("role", "-")
        if role not in pids:
            pids[role] = len(pids)
        party = span.get("party") or "-"
        tkey = (role, party)
        if tkey not in tids:
            tids[tkey] = sum(1 for r, _ in tids if r == role)
        args = dict(span.get("attrs") or {})
        args.update(span.get("counters") or {})
        args["span_id"] = span["id"]
        events.append(
            {
                "name": span.get("phase", "?"),
                "cat": span.get("party") or "span",
                "ph": "X",
                "ts": span.get("t_start", 0.0) * 1e6,
                "dur": span.get("dur_s", 0.0) * 1e6,
                "pid": pids[role],
                "tid": tids[tkey],
                "args": args,
            }
        )
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": role},
        }
        for role, pid in pids.items()
    ] + [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pids[role],
            "tid": tid,
            "args": {"name": party},
        }
        for (role, party), tid in tids.items()
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_timeline(path: str, merged: list[dict]) -> None:
    """Write :func:`chrome_timeline` output to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_timeline(merged), fh)


def critical_path(merged: list[dict]) -> list[dict]:
    """Per step: what the key owner's wall clock was actually waiting on.

    Every message leaves a ``send`` span at its sender and a ``recv`` span
    at its receiver (see :meth:`repro.comm.channel.Channel.send`), and both
    carry the message tag, so the two ends are linked without a byte on the
    wire.  ``merged`` is :func:`merge_traces` output (an all-local run is
    ``merge_traces({"local": trace})``).  A step is one ``batch`` span of
    the role hosting the key owner ``B``; the *k*-th ``batch`` span of every
    other role is the same step.  Per step the report holds

    * ``messages`` — per linked message ``sent_at`` (its ``send`` was
      entered: the payload existed; a receiver can hold a frame before the
      sender's call returns), ``asked_at`` / ``got_at`` (its ``recv``
      entered / returned), ``wait_s`` (time the receiver was blocked;
      exactly 0 when the message was already there), ``slack_s`` (how long
      it sat ready before it was asked for) and its ``depth``;
    * ``depth`` — the longest chain of the step's messages in which each
      was sent after its sender received the previous one.  It is read off
      each party's own span order (one thread per party, so its ``t_start``
      order is its program order) and never compares two roles' clocks, so
      it is exact and repeats from run to run;
    * ``segments`` — the critical path, walked back from the end of the
      key owner's span: on the current role find the last ``recv`` that
      blocked, book the time since as ``busy_s`` and the hop from the
      sender's ``sent_at`` as ``wait_s``, continue on the sender's role at
      ``sent_at``, and stop at the span's start.  Segments are contiguous
      and listed in time order, so ``busy_s + wait_s`` over them is the
      step's ``wall_s``.  ``entered_by`` is the tag of the message a
      segment began with (``None`` for the first).

    The walk compares clocks across roles, which holds on one host (see the
    module docstring).  A ``recv`` whose ``send`` is not in the trace (an
    untraced endpoint, ``tag=None``) cannot be followed and is skipped.
    """
    by_id = {span["id"]: span for span in merged}
    steps_of_role: dict[str, list[dict]] = {}
    sends: dict[str, dict] = {}
    recvs: dict[str, dict] = {}
    for span in merged:
        if span["phase"] == "batch":
            steps_of_role.setdefault(span["role"], []).append(span)
        elif span["phase"] in ("send", "recv"):
            tag = span["attrs"].get("tag")
            ends = sends if span["phase"] == "send" else recvs
            if tag in ends:
                raise ValueError(
                    f"tag {tag!r} has two {span['phase']} spans — messages "
                    f"are linked by tag, so tags must be unique in a trace"
                )
            if tag is not None:
                ends[tag] = span
    step_index = {
        span["id"]: k
        for spans in steps_of_role.values()
        for k, span in enumerate(spans)
    }

    def step_of(span: dict) -> int | None:
        while span is not None and span["id"] not in step_index:
            span = by_id.get(span["parent"])
        return None if span is None else step_index[span["id"]]

    def end(span: dict) -> float:
        return span["t_start"] + span["dur_s"]

    linked = [tag for tag in sends if tag in recvs]
    owner_role = next(
        (
            end_span["role"]
            for tag in linked
            for end_span in (sends[tag], recvs[tag])
            if end_span["party"] == "B"
        ),
        None,
    )
    if owner_role is None:
        raise ValueError("no linked message touches the key owner 'B'")

    # Program order per (party, step): what it received before each send.
    message_step = {tag: step_of(sends[tag]) for tag in linked}
    received: dict[tuple[str, int], list[str]] = {}
    heard_before: dict[str, list[str]] = {}
    for span in merged:  # t_start order
        tag = span["attrs"].get("tag") if span["phase"] in ("send", "recv") else None
        if tag not in message_step or message_step[tag] is None:
            continue
        heard = received.setdefault((span["party"], message_step[tag]), [])
        if span["phase"] == "recv":
            heard.append(tag)
        else:
            heard_before[tag] = list(heard)
    depth: dict[str, int] = {}

    def depth_of(tag: str) -> int:
        if tag not in depth:
            depth[tag] = 1 + max(map(depth_of, heard_before[tag]), default=0)
        return depth[tag]

    blocked_recvs: dict[str, list[tuple[float, str]]] = {}
    messages: dict[int, list[dict]] = {}
    for tag in linked:
        send, recv = sends[tag], recvs[tag]
        blocked = bool(recv["attrs"].get("blocked"))
        if blocked:
            blocked_recvs.setdefault(recv["role"], []).append((end(recv), tag))
        if message_step[tag] is None:
            continue  # sent outside any step (layer init)
        messages.setdefault(message_step[tag], []).append(
            {
                "tag": tag,
                "sender": send["party"],
                "receiver": recv["party"],
                "sent_at": send["t_start"],
                "asked_at": recv["t_start"],
                "got_at": end(recv),
                "wait_s": recv["dur_s"] if blocked else 0.0,
                "slack_s": 0.0 if blocked else recv["t_start"] - send["t_start"],
                "depth": depth_of(tag),
            }
        )
    report = []
    for k, batch in enumerate(steps_of_role.get(owner_role, [])):
        t_lo, t = batch["t_start"], end(batch)
        segments = []
        role, party = owner_role, "B"
        while t > t_lo:
            got_at, tag = max(
                (r for r in blocked_recvs.get(role, ()) if t_lo < r[0] <= t),
                default=(t_lo, None),
            )
            send = sends.get(tag)
            sent_at = t_lo if send is None else max(send["t_start"], t_lo)
            segments.append(
                {
                    "role": role,
                    "party": party if send is None else recvs[tag]["party"],
                    "entered_by": tag,
                    "busy_s": t - got_at,
                    "wait_s": got_at - sent_at,
                }
            )
            if send is None:
                break
            t, role, party = sent_at, send["role"], send["party"]
        report.append(
            {
                "step": k,
                "role": owner_role,
                "t_start": t_lo,
                "wall_s": end(batch) - t_lo,
                "depth": max((m["depth"] for m in messages.get(k, ())), default=0),
                "messages": messages.get(k, []),
                "segments": segments[::-1],
            }
        )
    return report
