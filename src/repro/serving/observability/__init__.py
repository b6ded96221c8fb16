"""Production observability for the serving stack.

Three seams, one package:

* :mod:`~repro.serving.observability.metrics` -- a dependency-free
  registry of counters/gauges/histograms with Prometheus text
  exposition over HTTP (:class:`MetricsServer`).
* :mod:`~repro.serving.observability.tracing` -- span-style tick-phase
  instrumentation with an injectable clock (:class:`TickTracer`).
* :mod:`~repro.serving.observability.flight` -- a transport tap that
  journals wire frames to disk (:class:`FlightRecorder`) and replays
  them bitwise (:func:`replay_flight`).
* :mod:`~repro.serving.observability.distributed` -- cross-process
  trace assembly (clock-offset rebasing, per-tick timelines, Chrome
  trace-event/Perfetto export) and the SLO/error-budget engine
  (:class:`SLOTracker`, multi-window burn-rate alerts).

Tracing and recording are opt-in.  A controller always counts into a
metrics registry (the caller's or a private one), its only counter store.
"""

from repro.serving.observability.distributed import (
    SLO,
    SLOTracker,
    SLOVerdict,
    TickTimeline,
    TimelineSpan,
    TraceExporter,
    assemble_tick_timeline,
    burn_rate,
    estimate_clock_offset,
    recompute_burn_rates,
    timeline_from_flight,
    trace_events,
    validate_trace_events,
    write_trace_events,
)
from repro.serving.observability.flight import (
    FlightRecord,
    FlightRecorder,
    FlightRecordingTransport,
    FlightReplayReport,
    probe_engine_shape,
    read_flight_log,
    replay_flight,
)
from repro.serving.observability.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsServer,
    parse_prometheus,
)
from repro.serving.observability.tracing import (
    PHASES,
    SpanRecord,
    TickTrace,
    TickTracer,
    null_span,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "FlightRecord",
    "FlightRecorder",
    "FlightRecordingTransport",
    "FlightReplayReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "PHASES",
    "SLO",
    "SLOTracker",
    "SLOVerdict",
    "SpanRecord",
    "TickTimeline",
    "TickTrace",
    "TickTracer",
    "TimelineSpan",
    "TraceExporter",
    "assemble_tick_timeline",
    "burn_rate",
    "estimate_clock_offset",
    "null_span",
    "parse_prometheus",
    "probe_engine_shape",
    "read_flight_log",
    "recompute_burn_rates",
    "replay_flight",
    "timeline_from_flight",
    "trace_events",
    "validate_trace_events",
    "write_trace_events",
]
