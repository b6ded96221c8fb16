"""Span-style tracing of the serving tick phases.

One controller tick passes through a fixed pipeline -- intake ->
admission -> fan-out -> await replies -> merge -> snapshot (-> failover
recovery when a worker died) -- and this module measures each phase as a
*span*: a named duration with JSON-safe metadata.  The
:class:`~repro.serving.controller.ServingController` opens a trace per
tick and closes it into a :class:`TickTrace`;
:class:`~repro.serving.cluster.ShardedEngine` contributes the fan-out /
await / merge spans of the same tick through its ``tracer`` attribute,
so one record shows where a tick's wall time went across both layers.

Determinism: the tracer's clock is injectable, exactly like the
controller's -- a test scripting ``clock=[0.0, 0.5, ...]`` gets
bit-exact span durations.  The tracer holds the last ``window`` traces
in a bounded deque (same rationale as the controller's telemetry
window), and a :class:`~repro.serving.observability.metrics.Histogram`
of phase durations is published by the controller from these spans, so
metrics and traces can never disagree.

Spans are *flat* within a tick: the ``step`` span runs from the tick's
submit to its merged results and the engine's
``fanout``/``await_window``/``merge_ready`` spans appear alongside it
(their sum is a lower bound of ``step``).
Recovery work replayed during a failover lands in the interrupted tick's
trace -- the stall is real and the trace shows it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import ValidationError

__all__ = ["PHASES", "SpanRecord", "TickTrace", "TickTracer", "null_span"]

#: The tick phases the serving stack instruments, in pipeline order.
#: ``step`` is the controller-level envelope from a tick's submit to its
#: merged results; ``fanout`` (validate, place, encode, send),
#: ``await_window`` (blocking on one shard's reply to the oldest
#: in-flight tick -- the true pipeline stall, which shrinks as submits
#: overlap it) and ``merge_ready`` (merging a tick whose replies have
#: all landed) are the cluster's sub-phases of it, at every window size;
#: ``recovery`` appears only on ticks that performed a failover.  With a
#: window above 1 a Perfetto export shows tick t+1's ``fanout`` starting
#: before tick t's ``await_window`` closes, which is the overlap made
#: visible.
PHASES = (
    "intake",
    "admission",
    "fanout",
    "await_window",
    "merge_ready",
    "step",
    "snapshot",
    "recovery",
)


@dataclass(frozen=True)
class SpanRecord:
    """One measured phase: name, duration, JSON-safe metadata.

    ``start`` is the span's absolute begin time on the tracer's clock
    (``None`` for externally measured durations).  It exists for timeline
    assembly (:mod:`repro.serving.observability.distributed`) and is
    deliberately left out of :meth:`as_dict`, which stays a pure
    duration record.
    """

    name: str
    seconds: float
    meta: dict = field(default_factory=dict)
    start: float | None = None

    def as_dict(self) -> dict:
        return {"name": self.name, "seconds": self.seconds, "meta": dict(self.meta)}


@dataclass(frozen=True)
class TickTrace:
    """All spans recorded during one controller tick."""

    tick: int
    spans: tuple[SpanRecord, ...]

    def seconds(self, name: str) -> float:
        """Total duration of every span called ``name`` in this trace."""
        return sum(span.seconds for span in self.spans if span.name == name)

    def as_dict(self) -> dict:
        """The structured per-tick record (JSON-safe)."""
        return {
            "tick": self.tick,
            "spans": [span.as_dict() for span in self.spans],
        }


class _Span:
    """Context manager measuring one span; records even on exception
    (a phase that raised still spent its time)."""

    __slots__ = ("_tracer", "_name", "_meta", "_start")

    def __init__(self, tracer: "TickTracer", name: str, meta: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._meta = meta

    def __enter__(self) -> "_Span":
        self._start = self._tracer.clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.record(
            self._name,
            self._tracer.clock() - self._start,
            start=self._start,
            **self._meta,
        )


class _NullSpan:
    """The do-nothing span: no clock reads, no allocation per use."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


def null_span(name: str, **meta) -> _NullSpan:
    """Drop-in for ``tracer.span`` when no tracer is attached.

    Instrumented code does ``span = tracer.span if tracer else null_span``
    once per tick and wraps phases unconditionally; the disabled path
    costs one shared no-op context manager per phase -- zero clock reads,
    zero allocations.
    """
    return _NULL_SPAN


class TickTracer:
    """Collects spans tick by tick into a bounded trace window.

    Parameters
    ----------
    clock:
        Monotonic time source for span measurement (injectable so tests
        script exact durations).  Deliberately separate from the
        controller's clock: a controller with scripted latencies can
        still attach a wall-clock tracer, and vice versa.
    window:
        Completed :class:`TickTrace` records retained (FIFO), bounding a
        long-lived serving loop's memory exactly like the controller's
        telemetry window.
    """

    def __init__(self, clock=time.perf_counter, window: int = 4096) -> None:
        if window < 1:
            raise ValidationError(f"window must be >= 1, got {window}")
        self.clock = clock
        self.traces: deque[TickTrace] = deque(maxlen=window)
        self._spans: list[SpanRecord] = []

    def span(self, name: str, **meta) -> _Span:
        """Measure one phase: ``with tracer.span("fanout", shards=4): ...``"""
        return _Span(self, name, meta)

    def record(self, name: str, seconds: float, *, start=None, **meta) -> None:
        """Append an externally measured span (e.g. failover recovery,
        which times itself with ``time.perf_counter`` regardless of the
        tracer clock).  ``start``, when known, anchors the span on the
        tracer's timeline for distributed-trace export."""
        self._spans.append(SpanRecord(name, float(seconds), meta, start))

    @property
    def open_spans(self) -> list[SpanRecord]:
        """Spans recorded since the last :meth:`end_tick`/:meth:`abort_tick`."""
        return list(self._spans)

    def end_tick(self, tick: int) -> TickTrace:
        """Close the current tick's spans into a :class:`TickTrace`."""
        trace = TickTrace(tick=int(tick), spans=tuple(self._spans))
        self._spans = []
        self.traces.append(trace)
        return trace

    def abort_tick(self) -> None:
        """Discard the open spans (the tick was rejected atomically; its
        partial measurements must not leak into the next tick's trace)."""
        self._spans = []

    @property
    def last(self) -> TickTrace | None:
        """The most recently completed trace (None before any tick)."""
        return self.traces[-1] if self.traces else None
