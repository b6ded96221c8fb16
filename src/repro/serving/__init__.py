"""Serving: batched taUW inference over many concurrent object streams.

The runtime-facing layer above the core wrapper, in three tiers:

* a :class:`~repro.serving.registry.StreamRegistry` owning per-stream
  buffers, monitors, and TTL-based eviction;
* a :class:`~repro.serving.engine.StreamingEngine` whose ``step_batch``
  runs a whole tick of N streams as one vectorized pass -- bitwise
  identical to N single-stream wrapper ``step`` calls, at a fraction of
  the cost;
* a :class:`~repro.serving.cluster.ShardedEngine` that partitions streams
  across shard workers by consistent hashing and merges each tick back in
  input order.  Workers are reached through a pluggable transport
  (:mod:`repro.serving.transport`: in-proc loopback, forked pipe workers,
  or TCP to ``repro serve-worker`` processes on other machines), all
  speaking the versioned pickle-free wire codec of
  :mod:`repro.serving.protocol` -- encoded through a reusable
  :class:`~repro.serving.protocol.BufferPool` so steady-state ticks
  copy each array payload exactly once and allocate nothing; :mod:`repro.serving.state`
  snapshot/restore makes the whole registry durable across restarts,
  shard rebalances, and transport changes;
* a :class:`~repro.serving.controller.ServingController` control plane
  that owns the tick loop for either engine -- frame intake, admission,
  ``step_batch``, telemetry, policy hooks, snapshot cadence -- with two
  pluggable policies: latency-driven
  :class:`~repro.serving.controller.AutoscalePolicy` (EWMA vs. budget
  with hysteresis, driving ``rebalance``) and QoS
  :class:`~repro.serving.controller.AdmissionPolicy` (priority classes,
  per-tick frame budget, bounded deferred queues), plus a
  :class:`~repro.serving.failover.FailoverPolicy` that makes the cluster
  self-healing: on worker death the controller respawns the shard,
  restores its recovery snapshot, replays the buffered tick journal, and
  retries -- bitwise-identical to an uninterrupted run.  With all
  policies disabled a controlled run is bitwise-identical to driving the
  engine directly;
* a :mod:`~repro.serving.observability` subsystem -- a dependency-free
  metrics registry with Prometheus text exposition over HTTP, span-style
  tracing of the tick phases, and a wire-frame flight recorder whose
  logs ``repro replay-flight`` re-drives bitwise-identically.
  Distributed tracing extends the spans across process boundaries:
  workers time their own recv/decode/step/encode/send phases and
  piggyback the timings on reply frames, the cluster rebases them onto
  the controller clock via an NTP-style offset handshake, and the
  merged per-tick timelines export as Chrome trace-event JSON for
  Perfetto.  An :class:`~repro.serving.observability.SLOTracker` scores
  every tick's latency against latency objectives with multi-window
  error-budget burn-rate alerting.  All opt-in: nothing attached means
  the exact uninstrumented code paths.
"""

from repro.serving.cluster import HashRing, ShardedEngine, stable_stream_hash
from repro.serving.controller import (
    AdmissionPolicy,
    AutoscalePolicy,
    ControllerStats,
    ServingController,
    TickTelemetry,
)
from repro.serving.durability import (
    SnapshotStore,
    SnapshotWriter,
    load_snapshot,
)
from repro.serving.engine import StreamFrame, StreamStepResult, StreamingEngine
from repro.serving.failover import FailoverPolicy
from repro.serving.observability import (
    SLO,
    FlightRecorder,
    FlightRecordingTransport,
    MetricsRegistry,
    MetricsServer,
    SLOTracker,
    TickTracer,
    TraceExporter,
    assemble_tick_timeline,
    estimate_clock_offset,
    replay_flight,
    timeline_from_flight,
    write_trace_events,
)
from repro.serving.protocol import PROTOCOL_VERSION, BufferPool
from repro.serving.registry import RegistryStatistics, StreamRegistry, StreamState
from repro.serving.simulate import (
    StreamWorkload,
    build_stream_workload,
    replay_engine,
    replay_naive,
    replay_results,
)
from repro.serving.state import (
    SNAPSHOT_VERSION,
    DeltaSnapshot,
    RegistrySnapshot,
    StreamStateSnapshot,
    compose_snapshot,
)
from repro.serving.transport import (
    InprocTransport,
    PipeTransport,
    TcpTransport,
    Transport,
    launch_local_workers,
    serve_worker,
    stop_local_workers,
)

__all__ = [
    "StreamFrame",
    "StreamStepResult",
    "StreamingEngine",
    "RegistryStatistics",
    "StreamRegistry",
    "StreamState",
    "StreamWorkload",
    "build_stream_workload",
    "replay_engine",
    "replay_naive",
    "replay_results",
    "HashRing",
    "ShardedEngine",
    "stable_stream_hash",
    "ServingController",
    "AutoscalePolicy",
    "AdmissionPolicy",
    "FailoverPolicy",
    "ControllerStats",
    "TickTelemetry",
    "PROTOCOL_VERSION",
    "BufferPool",
    "SNAPSHOT_VERSION",
    "RegistrySnapshot",
    "DeltaSnapshot",
    "StreamStateSnapshot",
    "compose_snapshot",
    "SnapshotStore",
    "SnapshotWriter",
    "load_snapshot",
    "Transport",
    "InprocTransport",
    "PipeTransport",
    "TcpTransport",
    "serve_worker",
    "launch_local_workers",
    "stop_local_workers",
    "MetricsRegistry",
    "MetricsServer",
    "TickTracer",
    "FlightRecorder",
    "FlightRecordingTransport",
    "replay_flight",
    "SLO",
    "SLOTracker",
    "TraceExporter",
    "assemble_tick_timeline",
    "estimate_clock_offset",
    "timeline_from_flight",
    "write_trace_events",
]
