"""The telemetry plane: sim-time tracing, logs, Chrome export.

Everything in this package is stamped with *virtual* time, so a trace
is a deterministic artifact — byte-identical across process counts and
machines for a fixed scenario and seed — and archives/merges/diffs
exactly like the repo's reports.  The trace is the plane's one channel:
spans, instants and counter samples all land in it.

Entry points:

* :class:`Tracer` / :data:`NULL_TRACER` — the recorder and its shared
  no-op twin (disabled overhead ≈ one attribute check per site).
* :class:`Trace` — the archived span stream (report kind ``"trace"``).
* :func:`write_chrome_trace` / :func:`to_chrome` — open in Perfetto.
* ``python -m repro.telemetry`` — summarize / diff / export CLI.
"""

from .chrome import to_chrome, validate_chrome_trace, write_chrome_trace
from .logs import JsonLogFormatter, configure_logging, verbosity_level
from .summary import SpanAggregate, diff_aggregates, span_aggregates, top_spans
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Trace,
    TraceEvent,
    TraceProcess,
    Tracer,
    merge_traces,
)

__all__ = [
    "JsonLogFormatter",
    "NULL_TRACER",
    "NullTracer",
    "SpanAggregate",
    "Trace",
    "TraceEvent",
    "TraceProcess",
    "Tracer",
    "configure_logging",
    "diff_aggregates",
    "merge_traces",
    "span_aggregates",
    "to_chrome",
    "top_spans",
    "validate_chrome_trace",
    "verbosity_level",
    "write_chrome_trace",
]
