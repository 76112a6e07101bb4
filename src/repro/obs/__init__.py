"""Federation observability: phase-attributed tracing and cost reports.

``repro.obs.tracer`` is the span/counter backbone (zero overhead when no
tracer is installed), ``repro.obs.collect`` the one on-disk format (a
JSONL stream of span dicts) and the renderers that read span lists (the
cross-endpoint merge, the Chrome/Perfetto timeline, the critical path),
and ``repro.obs.report`` the fold into the paper's
computation-vs-communication table.  Depends only on ``repro.utils`` so
crypto, comm, and core can all import it without cycles.
"""

from repro.obs.collect import (
    JsonlSink,
    chrome_timeline,
    critical_path,
    merge_traces,
    read_jsonl_trace,
    write_chrome_timeline,
)
from repro.obs.report import fold_trace, format_report
from repro.obs.tracer import (
    Span,
    Tracer,
    add,
    counter_totals,
    get_tracer,
    span,
    use_tracer,
    validate_trace,
)

__all__ = [
    "Span",
    "Tracer",
    "add",
    "counter_totals",
    "get_tracer",
    "span",
    "use_tracer",
    "validate_trace",
    "JsonlSink",
    "fold_trace",
    "format_report",
    "read_jsonl_trace",
    "merge_traces",
    "chrome_timeline",
    "write_chrome_timeline",
    "critical_path",
]
