"""Simulation observability: event tracing, metrics, Perfetto export.

Zero overhead when disabled (the default): the recorder shadows instance
methods only when attached, so untraced runs execute untouched hot paths.
Enable with ``SimConfig(trace=True)``, ``REPRO_TRACE=1``, or the
``repro trace`` CLI subcommand. See ``docs/observability.md``.
"""

from repro.obs.events import (
    EVENT_SCHEMA,
    TraceEvent,
    format_event,
    format_events,
)
from repro.obs.export import (
    timeline_summary,
    to_chrome,
    to_csv,
    validate_chrome_trace,
    write_chrome,
    write_csv,
    write_text,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    merge_metrics,
)
from repro.obs.recorder import (
    TraceRecorder,
    attach_trace,
    trace_enabled,
)

__all__ = [
    "EVENT_SCHEMA",
    "TraceEvent",
    "format_event",
    "format_events",
    "timeline_summary",
    "to_chrome",
    "to_csv",
    "validate_chrome_trace",
    "write_chrome",
    "write_csv",
    "write_text",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "merge_metrics",
    "TraceRecorder",
    "attach_trace",
    "trace_enabled",
]
