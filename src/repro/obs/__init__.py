"""Federation observability: phase-attributed tracing and cost reports.

``repro.obs.tracer`` is the span/counter backbone (zero overhead when no
tracer is installed), ``repro.obs.sinks`` the export formats (JSONL,
Chrome trace), and ``repro.obs.report`` the fold into the paper's
computation-vs-communication table.  Depends only on ``repro.utils`` so
crypto, comm, and core can all import it without cycles.
"""

from repro.obs.collect import (
    chrome_timeline,
    critical_path,
    cross_role_overlap,
    merge_traces,
    read_jsonl_trace,
    write_chrome_timeline,
)
from repro.obs.report import fold_trace, format_report, report_json, write_report
from repro.obs.sinks import (
    TELEMETRY_KINDS,
    ChromeTraceSink,
    JsonlSink,
    NullSink,
    TeeSink,
    make_sink,
)
from repro.obs.tracer import (
    Span,
    Tracer,
    add,
    add_many,
    counter_totals,
    get_tracer,
    set_tracer,
    span,
    use_tracer,
    validate_trace,
)

__all__ = [
    "Span",
    "Tracer",
    "add",
    "add_many",
    "counter_totals",
    "get_tracer",
    "set_tracer",
    "span",
    "use_tracer",
    "validate_trace",
    "NullSink",
    "JsonlSink",
    "ChromeTraceSink",
    "TeeSink",
    "make_sink",
    "TELEMETRY_KINDS",
    "fold_trace",
    "format_report",
    "report_json",
    "write_report",
    "read_jsonl_trace",
    "merge_traces",
    "chrome_timeline",
    "write_chrome_timeline",
    "cross_role_overlap",
    "critical_path",
]
