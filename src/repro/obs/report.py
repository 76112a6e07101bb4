"""Fold a trace into the paper's computation-vs-communication breakdown.

BlindFL's Table 5 reports, per party, how training cost splits between
cryptographic computation and transfer phases.  ``fold_trace`` aggregates
a span trace (``Tracer.to_dicts()`` output) into one row per
``(party, phase)`` with wall time (total and *own*, i.e. excluding child
spans), pow counts by exponent-bit class, ciphertext flow, and bytes.
``format_report`` renders the fold with ``utils.tabulate``;
``report_json`` is the same fold as a JSON-serialisable dict.

Phase classification (for the summary rows): computation phases are
where modpows burn CPU; communication phases are where masked payloads
cross the channel.
"""

from __future__ import annotations

import json
from typing import Any

from repro.utils.tabulate import format_table

__all__ = [
    "COMPUTE_PHASES",
    "COMM_PHASES",
    "fold_trace",
    "format_report",
    "report_json",
    "write_report",
]

COMPUTE_PHASES = frozenset({"encrypt", "pack", "decrypt", "checkpoint"})
COMM_PHASES = frozenset(
    {
        "he2ss_send", "fw_transfer", "bw_transfer", "lkup_bw", "link_recovery",
        "send", "recv",
    }
)

_POW_PREFIX = "pow."
_LINK_PREFIX = "link."
_BYTES_BY_PARTY_PREFIX = "bytes.sent."


def _pows(counters: dict[str, int]) -> int:
    return sum(n for k, n in counters.items() if k.startswith(_POW_PREFIX))


def fold_trace(spans: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate a span trace per ``(party, phase)``.

    Returns ``{"rows": [...], "parties": {...}, "totals": {...}}``:

    - ``rows`` — one dict per (party, phase) with span count, wall
      seconds (sum of durations), own seconds (durations minus child
      durations — what this phase itself cost), summed counters, and the
      derived ``pows`` / ``ct_enc`` / ``ct_dec`` / ``bytes_sent``.
    - ``parties`` — per-party computation vs communication seconds and
      bytes attributed by the ``bytes.sent.<party>`` counters.
    - ``totals`` — every counter summed over the whole trace.
    """
    child_dur: dict[int, float] = {}
    for sp in spans:
        if sp["parent"] is not None:
            child_dur[sp["parent"]] = child_dur.get(sp["parent"], 0.0) + sp["dur_s"]

    rows: dict[tuple[str, str], dict[str, Any]] = {}
    totals: dict[str, int] = {}
    bytes_by_party: dict[str, int] = {}
    parties: dict[str, dict[str, float]] = {}
    for sp in spans:
        party = sp["party"] or "-"
        own_s = sp["dur_s"] - child_dur.get(sp["id"], 0.0)
        key = (party, sp["phase"])
        row = rows.get(key)
        if row is None:
            row = rows[key] = {
                "party": party,
                "phase": sp["phase"],
                "spans": 0,
                "wall_s": 0.0,
                "own_s": 0.0,
                "counters": {},
            }
        row["spans"] += 1
        row["wall_s"] += sp["dur_s"]
        row["own_s"] += own_s
        for k, n in sp["counters"].items():
            row["counters"][k] = row["counters"].get(k, 0) + n
            totals[k] = totals.get(k, 0) + n
            if k.startswith(_BYTES_BY_PARTY_PREFIX):
                sender = k[len(_BYTES_BY_PARTY_PREFIX) :]
                bytes_by_party[sender] = bytes_by_party.get(sender, 0) + n
        if sp["party"] is not None or sp["phase"] in COMPUTE_PHASES | COMM_PHASES:
            side = parties.setdefault(party, {"compute_s": 0.0, "comm_s": 0.0})
            if sp["phase"] in COMM_PHASES:
                side["comm_s"] += own_s
            else:
                side["compute_s"] += own_s

    out_rows = []
    for (party, phase), row in sorted(rows.items()):
        counters = row["counters"]
        out_rows.append(
            {
                "party": party,
                "phase": phase,
                "spans": row["spans"],
                "wall_s": row["wall_s"],
                "own_s": row["own_s"],
                "pows": _pows(counters),
                "ct_enc": counters.get("ct.encrypted", 0),
                "ct_dec": counters.get("ct.decrypted", 0),
                "bytes_sent": counters.get("bytes.sent", 0),
                "frames_sent": counters.get("frames.sent", 0),
                "counters": counters,
            }
        )
    return {
        "rows": out_rows,
        "parties": {
            party: dict(side, bytes_sent=bytes_by_party.get(party, 0))
            for party, side in sorted(parties.items())
        },
        "totals": dict(sorted(totals.items())),
        "bytes_by_party": dict(sorted(bytes_by_party.items())),
        "link_events": sum(
            n
            for k, n in totals.items()
            if k.startswith(_LINK_PREFIX)
            and k not in ("link.data_sent", "link.data_received", "link.envelope_bytes", "link.fins")
        ),
    }


def format_report(folded: dict[str, Any]) -> str:
    """Render the fold as the per-party phase table plus a summary."""
    headers = [
        "party",
        "phase",
        "spans",
        "wall_s",
        "own_s",
        "pows",
        "ct_enc",
        "ct_dec",
        "KiB_sent",
    ]
    rows = [
        [
            row["party"],
            row["phase"],
            row["spans"],
            row["wall_s"],
            row["own_s"],
            row["pows"],
            row["ct_enc"],
            row["ct_dec"],
            row["bytes_sent"] / 1024.0,
        ]
        for row in folded["rows"]
    ]
    table = format_table(
        headers, rows, title="per-party phase costs (computation vs communication)"
    )
    summary_rows = [
        [
            party,
            side["compute_s"],
            side["comm_s"],
            side["bytes_sent"] / 1024.0,
        ]
        for party, side in folded["parties"].items()
    ]
    summary = format_table(
        ["party", "compute_s", "comm_s", "KiB_sent"],
        summary_rows,
        title="party summary",
    )
    return table + "\n\n" + summary


def report_json(folded: dict[str, Any]) -> str:
    return json.dumps(folded, indent=2, sort_keys=True)


def write_report(folded: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_json(folded))
        fh.write("\n")
