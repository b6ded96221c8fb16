"""Control plane: the one tick loop that drives every serving engine.

Before this module, the per-tick serving loop -- feed one tick of frames
to ``step_batch``, collect results, write periodic snapshots -- was
re-implemented independently by :func:`repro.serving.simulate.replay_engine`,
both serving CLI commands, and the benchmarks.  None of those loops could
host the ROADMAP's two promoted runtime policies (latency-driven
autoscaling and QoS admission control) without copying the logic a fifth
time.  :class:`ServingController` extracts that loop once, for *both*
:class:`~repro.serving.engine.StreamingEngine` and
:class:`~repro.serving.cluster.ShardedEngine`:

    frame intake -> admission -> ``submit_batch`` ... ``collect_batch``
                 -> telemetry -> policy hooks (autoscale) -> snapshot cadence

One loop serves every engine and every window: :meth:`ServingController.tick`
is that loop over one tick, and :meth:`ServingController.run` keeps up to
the engine's ``inflight_window`` ticks in flight.

and layers two pluggable policies on top:

* :class:`AutoscalePolicy` -- derives the shard count from an EWMA of the
  measured tick latency against a budget, with hysteresis: grow one shard
  after ``grow_after`` consecutive budget misses, shrink one after
  ``shrink_after`` consecutive idle ticks, clamped to
  ``[min_shards, max_shards]``, with a cooldown between actions.  Each
  decision calls ``engine.rebalance(n)``, which migrates only the streams
  whose ring arc changed owner (cheap by construction since PR 2/3).
* :class:`AdmissionPolicy` -- per-stream priority classes with a per-tick
  frame budget.  When a tick's batch would exceed the latency budget,
  frames are admitted in deterministic *priority-then-arrival* order up
  to the budget; overflow frames are deferred to a bounded per-stream
  FIFO queue and resubmitted on later ticks.  A frame that would overflow
  its stream's queue is dropped and counted in the loud
  ``admission_overflow`` statistic.

**The disabled-policy invariant.**  A controller with both policies
disabled submits the unmodified frame list -- no reordering, no queues,
no extra engine calls -- so its results,
TTL evictions, and statistics are bitwise-identical to the hand-rolled
loops it replaced.  Policies change *scheduling* only; every admitted
frame's outcome is still produced by the same engines.

**Determinism and durability.**  All policy decisions are pure functions
of (policy config, measured latencies, frame arrival order).  Latencies
come from an injectable ``clock`` (default ``time.perf_counter``), so
tests script them exactly.  The controller's full mutable state -- the
latency EWMAs, autoscale streaks and cooldown, the admission sequence
counter, and the deferred frame queues (payloads included) -- rides
inside :class:`~repro.serving.state.RegistrySnapshot` via
:meth:`ServingController.snapshot`, so restore-then-step reproduces a
controlled run exactly, mid-autoscale included.

**Self-healing.**  With a
:class:`~repro.serving.failover.FailoverPolicy` attached, a worker that
dies mid-run no longer ends the run: the controller keeps an in-memory
*recovery snapshot* plus a bounded *tick journal* of every admitted
batch since, and on :class:`~repro.exceptions.ClusterWorkerError` it
respawns the dead shard(s) (``revive_shard``), restores the cluster from
the recovery snapshot, replays the journal, and retries the interrupted
operation -- step, snapshot, or rebalance alike.  Deterministic engines
make the recovered run bitwise-identical to an uninterrupted one; only
the ``failovers`` / ``replay_depth`` / ``recovery_seconds`` telemetry
records that a worker was lost.  Without the policy (the default),
worker loss fails fast exactly as before.

**Observability.**  The controller counts into a
:class:`~repro.serving.observability.metrics.MetricsRegistry` -- the
caller's, or a private one -- and that registry is the only store of
its cumulative counts: every count is an ``inc`` on a Prometheus-style
counter family at the site where it happens, and
:attr:`ServingController.stats` is a read of those families, so a
scrape can never disagree with ``stats``.  After each tick the gauges,
the tick latency and phase histograms, and the engine's own fan-out
counters are published into the same registry.  A
:class:`~repro.serving.observability.tracing.TickTracer` records
span-level timings of each tick's phases (intake -> admission -> step ->
snapshot, plus the engine's fan-out sub-phases and failover recovery);
one is attached automatically only when the caller passes ``metrics=``,
so by default the tick loop reads no extra clock for spans.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

from repro.exceptions import ClusterWorkerError, ValidationError
from repro.serving.engine import (
    StreamFrame,
    StreamStepResult,
    validate_tick_frames,
)
from repro.serving.failover import FailoverPolicy
from repro.serving.observability.metrics import MetricsRegistry
from repro.serving.observability.tracing import null_span
from repro.serving.state import (
    RegistrySnapshot,
    frame_from_state,
    frame_to_state,
)

__all__ = [
    "AutoscalePolicy",
    "AdmissionPolicy",
    "FailoverPolicy",
    "TickTelemetry",
    "ControllerStats",
    "ServingController",
]


#: Version tag of the controller-state dict embedded in snapshots.
CONTROLLER_STATE_VERSION = 1

#: Per-tick telemetry records retained by a controller.  Cumulative
#: counters live in the metrics registry forever; the per-tick
#: window is bounded so a long-lived serving loop cannot grow without
#: limit (benchmarks and tests consume far fewer ticks than this).
TELEMETRY_WINDOW = 4096

#: Snapshot path strings retained in ``snapshots_written`` (FIFO).  The
#: total count lives in ``repro_controller_snapshots_total`` forever;
#: the path list is bounded so a long-running server's snapshot cadence
#: cannot grow controller memory without limit.
SNAPSHOTS_WRITTEN_KEEP = 64


# ---------------------------------------------------------------------------
# Policies (configuration is frozen; mutable state lives in the controller)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutoscalePolicy:
    """Latency-driven shard-count policy with hysteresis.

    Parameters
    ----------
    latency_budget:
        Per-tick latency budget in seconds; the EWMA of measured tick
        latencies is compared against it.
    min_shards / max_shards:
        Inclusive shard-count clamp for scaling decisions.
    ewma_alpha:
        Smoothing factor of the latency EWMA (1.0 = raw latest tick).
    grow_after:
        Grow one shard after this many *consecutive* ticks whose EWMA
        exceeds the budget.
    shrink_after:
        Shrink one shard after this many consecutive idle ticks (EWMA
        below ``shrink_fraction * latency_budget``).
    shrink_fraction:
        Idle threshold as a fraction of the budget; keeping it well below
        1.0 gives the grow/shrink thresholds a hysteresis band so the
        policy cannot oscillate around the budget.
    cooldown_ticks:
        Ticks to wait after a rebalance before acting again, so each
        decision is judged on latencies measured at the new shard count.
    """

    latency_budget: float
    min_shards: int = 1
    max_shards: int = 4
    ewma_alpha: float = 0.3
    grow_after: int = 3
    shrink_after: int = 8
    shrink_fraction: float = 0.5
    cooldown_ticks: int = 5

    def __post_init__(self) -> None:
        if not self.latency_budget > 0.0:
            raise ValidationError(
                f"latency_budget must be > 0, got {self.latency_budget}"
            )
        if self.min_shards < 1:
            raise ValidationError(
                f"min_shards must be >= 1, got {self.min_shards}"
            )
        if self.max_shards < self.min_shards:
            raise ValidationError(
                f"max_shards ({self.max_shards}) must be >= min_shards "
                f"({self.min_shards})"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValidationError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if self.grow_after < 1 or self.shrink_after < 1:
            raise ValidationError(
                "grow_after and shrink_after must be >= 1, got "
                f"{self.grow_after}/{self.shrink_after}"
            )
        if not 0.0 < self.shrink_fraction < 1.0:
            raise ValidationError(
                f"shrink_fraction must be in (0, 1), got {self.shrink_fraction}"
            )
        if self.cooldown_ticks < 0:
            raise ValidationError(
                f"cooldown_ticks must be >= 0, got {self.cooldown_ticks}"
            )


@dataclass(frozen=True)
class AdmissionPolicy:
    """Priority-class admission control with a per-tick frame budget.

    The frame budget is the minimum of a static cap
    (``max_frames_per_tick``) and a dynamic one derived from the latency
    budget: ``latency_budget / EWMA(per-admitted-frame seconds)``.  Until
    a per-frame estimate exists (the first non-empty tick), the dynamic
    bound admits everything -- the policy has measured nothing yet.

    Parameters
    ----------
    latency_budget:
        Per-tick latency budget in seconds driving the dynamic frame
        budget; ``None`` disables the dynamic bound.
    max_frames_per_tick:
        Static per-tick frame cap; ``None`` disables the static bound.
        At least one of the two bounds must be set.
    priority_field:
        Name of the :class:`~repro.serving.engine.StreamFrame` attribute
        holding the frame's priority class (smaller = more important;
        missing attribute = class 0).
    max_deferred_per_stream:
        Bound of each stream's deferred-frame FIFO; a frame arriving at a
        full queue is dropped and counted as ``admission_overflow``.
    ewma_alpha:
        Smoothing factor of the per-frame latency EWMA.
    """

    latency_budget: float | None = None
    max_frames_per_tick: int | None = None
    priority_field: str = "priority"
    max_deferred_per_stream: int = 16
    ewma_alpha: float = 0.3

    def __post_init__(self) -> None:
        if self.latency_budget is None and self.max_frames_per_tick is None:
            raise ValidationError(
                "AdmissionPolicy needs latency_budget and/or max_frames_per_tick"
            )
        if self.latency_budget is not None and not self.latency_budget > 0.0:
            raise ValidationError(
                f"latency_budget must be > 0, got {self.latency_budget}"
            )
        if self.max_frames_per_tick is not None and self.max_frames_per_tick < 1:
            raise ValidationError(
                f"max_frames_per_tick must be >= 1, got {self.max_frames_per_tick}"
            )
        if self.max_deferred_per_stream < 1:
            raise ValidationError(
                "max_deferred_per_stream must be >= 1, got "
                f"{self.max_deferred_per_stream}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValidationError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TickTelemetry:
    """One tick's controller-level measurements (results are separate)."""

    tick: int                       # engine tick the measurements belong to
    submitted: int                  # frames handed to the controller
    admitted: int                   # frames the engine actually stepped
    resumed: int                    # admitted frames that came from queues
    deferred: int                   # frames (re)queued this tick
    dropped: int                    # frames lost to queue overflow this tick
    backlog: int                    # total queued frames after the tick
    frame_budget: int | None        # admission budget in force (None = all)
    latency_seconds: float          # measured submit-to-results wall time
    latency_ewma: float             # controller-level latency EWMA
    n_shards: int                   # shard count after any rebalance
    rebalanced_to: int | None       # autoscale action this tick, if any
    failovers: int = 0              # worker recoveries performed this tick
    replay_depth: int = 0           # journal ticks replayed recovering
    recovery_seconds: float = 0.0   # wall time spent in recovery this tick
    slo_breaches: int = 0           # objectives this tick's latency breached
    slo_burn_rate: float = 0.0      # worst short-window burn rate observed
    inflight_depth: int = 0         # ticks still in the window after this one


@dataclass(frozen=True)
class ControllerStats:
    """Cumulative counters over a controller's lifetime, as read from its
    metric families by :attr:`ServingController.stats`."""

    ticks: int = 0
    frames_submitted: int = 0
    frames_admitted: int = 0
    frames_resumed: int = 0
    frames_deferred: int = 0
    admission_overflow: int = 0
    rebalances: int = 0
    snapshots_written: int = 0
    snapshots_dropped: int = 0
    snapshot_errors: int = 0
    failovers: int = 0
    shard_recoveries: int = 0
    shards_respawned: int = 0
    replayed_ticks: int = 0
    recovery_seconds: float = 0.0
    telemetry_window: int = TELEMETRY_WINDOW
    slo_breaches: int = 0
    slo_alerts: int = 0
    backpressure_throttles: int = 0
    max_inflight_depth: int = 0
    deferred_by_priority: dict = field(default_factory=dict)
    dropped_by_priority: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


#: The controller's metric families in exposition order:
#: ``(key, kind, name, help, *labels)``.  A counter keyed by a
#: :class:`ControllerStats` field is the only store of that field.
_FAMILIES = (
    ("ticks", "counter", "repro_controller_ticks_total",
     "Controlled ticks completed."),
    ("frames_submitted", "counter", "repro_controller_frames_submitted_total",
     "Frames handed to the controller."),
    ("frames_admitted", "counter", "repro_controller_frames_admitted_total",
     "Frames the engine actually stepped."),
    ("frames_resumed", "counter", "repro_controller_frames_resumed_total",
     "Admitted frames that came from deferral queues."),
    ("frames_deferred", "counter", "repro_controller_frames_deferred_total",
     "Frames (re)queued by admission control, by priority class.", "priority"),
    ("admission_overflow", "counter", "repro_controller_frames_dropped_total",
     "Frames lost to deferral-queue overflow, by priority class.", "priority"),
    ("rebalances", "counter", "repro_controller_rebalances_total",
     "Shard-count changes (autoscale decisions + manual rebalances)."),
    ("snapshots_written", "counter", "repro_controller_snapshots_total",
     "Periodic snapshot writes the writer accepted (a failed write is also "
     "counted in repro_snapshot_errors_total)."),
    ("snapshots_dropped", "counter", "repro_snapshot_dropped_total",
     "Snapshot writes refused by the full background writer queue."),
    ("snapshot_errors", "counter", "repro_snapshot_errors_total",
     "Accepted snapshot writes that failed; each forces the next cadence to "
     "commit a full base."),
    ("snapshot_queue", "gauge", "repro_snapshot_queue_depth",
     "Snapshot writes accepted but not yet on disk."),
    ("snapshot_write", "histogram", "repro_snapshot_write_seconds",
     "Wall time of serialization + disk I/O per snapshot write on the writer "
     "thread."),
    ("shard_recoveries", "counter", "repro_controller_shard_recoveries_total",
     "Recoveries that restored/replayed only the dead shard(s)."),
    ("failovers", "counter", "repro_controller_failovers_total",
     "Worker-failure recoveries performed."),
    ("shards_respawned", "counter", "repro_controller_shards_respawned_total",
     "Dead shard workers respawned during recovery."),
    ("replayed_ticks", "counter", "repro_controller_replayed_ticks_total",
     "Journaled ticks replayed during recovery."),
    ("recovery_seconds", "counter", "repro_controller_recovery_seconds_total",
     "Wall time spent in failover recovery."),
    ("fanout_ticks", "counter", "repro_fanout_ticks_total",
     "Multi-shard fan-out ticks executed by the sharded engine."),
    ("fanout_encode", "counter", "repro_fanout_encode_seconds_total",
     "Parent CPU time (process_time) building, encoding and sending fan-out "
     "requests."),
    ("fanout_overlap", "counter", "repro_fanout_overlap_seconds_total",
     "Parent CPU time (process_time) of fan-out sends made while an earlier "
     "shard was already computing."),
    ("pool_hits", "counter", "repro_codec_pool_hits_total",
     "Frame sends served from a recycled buffer-pool buffer."),
    ("pool_misses", "counter", "repro_codec_pool_misses_total",
     "Frame sends that had to allocate a fresh pool buffer."),
    ("pool_bytes", "counter", "repro_codec_pool_bytes_copied_total",
     "Payload bytes scatter-copied through the send-side codec (the pooled "
     "encoder's single copy per segment)."),
    ("backpressure_throttles", "counter",
     "repro_cluster_backpressure_throttles_total",
     "Admission frame-budget halvings forced by a saturated, behind-schedule "
     "in-flight window."),
    ("inflight_depth", "gauge", "repro_cluster_inflight_depth",
     "Submitted-but-uncollected ticks still in the window after the last "
     "collected tick."),
    ("backlog", "gauge", "repro_controller_backlog_frames",
     "Deferred frames currently queued across all streams."),
    ("shards", "gauge", "repro_controller_shards",
     "Current shard count."),
    ("ewma", "gauge", "repro_controller_latency_ewma_seconds",
     "Controller-level EWMA of tick latency (wall time)."),
    ("window", "gauge", "repro_controller_telemetry_window_ticks",
     "Per-tick telemetry records the controller retains."),
    ("latency", "histogram", "repro_tick_latency_seconds",
     "Measured submit-to-results wall time per controlled tick."),
    ("phase", "histogram", "repro_tick_phase_seconds",
     "Traced wall time of each tick phase.", "phase"),
    ("recovery_hist", "histogram", "repro_recovery_seconds",
     "Failover recovery wall time, per tick that recovered."),
    ("worker_phase", "counter", "repro_cluster_worker_phase_seconds_total",
     "Worker-side wall time per pipeline phase, per shard (piggybacked "
     "telemetry; traced ticks only).", "shard", "phase"),
    ("slo_burn", "gauge", "repro_slo_burn_rate",
     "Error-budget burn rate per objective and window.", "slo", "window"),
    ("slo_breaches", "counter", "repro_slo_breaches_total",
     "Ticks whose latency breached the objective's budget.", "slo"),
    ("slo_alerts", "counter", "repro_slo_alerts_total",
     "Multi-window burn-rate alerts raised, by severity.", "slo", "severity"),
)


class _QueuedFrame:
    """A deferred frame plus the admission metadata frozen at intake."""

    __slots__ = ("seq", "priority", "frame")

    def __init__(self, seq: int, priority: int, frame: StreamFrame) -> None:
        self.seq = seq
        self.priority = priority
        self.frame = frame


class _RecoveryLog:
    """What failover recovery did during one controller operation."""

    __slots__ = ("failovers", "respawned", "replayed", "seconds")

    def __init__(self) -> None:
        self.failovers = 0
        self.respawned = 0
        self.replayed = 0
        self.seconds = 0.0


class _PendingTick:
    """One admitted-but-uncollected tick.

    Holds everything the collect half needs to finish the tick's
    bookkeeping -- the admitted batch (also the failover re-submit
    payload), the admission outcome committed at submit, the submit
    timestamp the latency measurement and backpressure age read, and
    the tracer-clock submit time the ``step`` span starts at.
    """

    __slots__ = (
        "batch", "submitted", "deferral", "before", "traced_at", "recovery"
    )

    def __init__(self, batch, submitted, deferral, before, traced_at) -> None:
        self.batch = batch
        self.submitted = submitted
        self.deferral = deferral
        self.before = before
        self.traced_at = traced_at
        self.recovery = _RecoveryLog()


# ---------------------------------------------------------------------------
# The controller
# ---------------------------------------------------------------------------

class ServingController:
    """Owns the serving tick loop for one engine (single or sharded).

    Parameters
    ----------
    engine:
        Any object with the split-phase ``submit_batch`` /
        ``collect_batch`` / ``abort_window`` contract -- a
        :class:`~repro.serving.engine.StreamingEngine` or a
        :class:`~repro.serving.cluster.ShardedEngine` on any transport.
        Autoscaling additionally requires ``rebalance``.
    autoscale / admission:
        The two scheduling policies; ``None`` disables each.  With both
        disabled a controller tick is bitwise-identical to calling
        ``engine.step_batch`` directly.
    failover:
        Optional :class:`~repro.serving.failover.FailoverPolicy`
        enabling automatic worker respawn + snapshot replay on
        :class:`~repro.exceptions.ClusterWorkerError`.  Requires an
        engine with ``revive_shard`` (a
        :class:`~repro.serving.cluster.ShardedEngine`); ``None`` (the
        default) keeps the fail-fast behavior.
    snapshot_every / snapshot_dir:
        Every K completed ticks (0 = never), capture ``engine`` +
        controller state on the tick path and commit it to the
        :class:`~repro.serving.durability.SnapshotStore` in
        ``snapshot_dir`` through one background
        :class:`~repro.serving.durability.SnapshotWriter` thread.  The
        store's atomic ``manifest.json`` names the newest restorable
        chain; load it with
        :func:`~repro.serving.durability.load_snapshot`.
    snapshot_mode:
        ``"sync"`` (default) waits for each write to land and re-raises
        its error out of the tick.  ``"bg"`` returns at once: a slow
        disk back-pressures into *dropped snapshots* (the loud
        ``snapshots_dropped`` stat / ``repro_snapshot_dropped_total``
        counter), never into tick latency; :meth:`close` drains every
        accepted write.  In both modes a failed write is counted in
        ``snapshot_errors`` / ``repro_snapshot_errors_total`` and the
        next cadence commits a full base.
    snapshot_deltas:
        Cadences written as deltas (only the streams dirty since the
        previous accepted write) after each full ``base_NNNNNN``; 0
        (default) commits a base at every cadence.  The composed chain
        is bitwise what a full snapshot at the same tick would restore.
    snapshot_retain:
        Superseded base+delta generations kept on disk after each new
        base (0 = keep everything).
    owns_engine:
        When True, leaving the controller's context (or calling
        :meth:`close`) also closes the engine -- the lifecycle guarantee
        the CLI paths rely on so worker processes cannot leak on a
        mid-run exception.
    clock:
        Monotonic time source for latency measurement (injectable so
        policy tests are deterministic).
    on_tick:
        Optional callback receiving each tick's :class:`TickTelemetry`.
    telemetry_window:
        Per-tick :class:`TickTelemetry` records retained (FIFO); default
        :data:`TELEMETRY_WINDOW`.  Surfaced in :class:`ControllerStats`
        so a stats consumer knows how much history :attr:`telemetry`
        covers.
    metrics:
        Optional
        :class:`~repro.serving.observability.metrics.MetricsRegistry`
        the controller counts into (a private one when omitted); it
        backs :attr:`stats`, and every tick also publishes gauges and
        latency/phase histograms into it.  One controller per registry:
        one that already holds a controller's families is refused.
    tracer:
        Optional
        :class:`~repro.serving.observability.tracing.TickTracer`
        recording per-phase spans.  When ``metrics`` is given without a
        tracer, one is created automatically (wall-clock) so the phase
        histograms have a source; pass an explicit tracer to control its
        clock or window, or attach one alone for traces without metrics.
    slo:
        Optional
        :class:`~repro.serving.observability.distributed.SLOTracker`; when
        given, every tick's latency is fed through its objectives and the
        verdicts surface in :class:`TickTelemetry` (``slo_breaches``,
        ``slo_burn_rate``), the ``repro_slo_*`` metric families, and
        :class:`ControllerStats`.
    """

    def __init__(
        self,
        engine,
        autoscale: AutoscalePolicy | None = None,
        admission: AdmissionPolicy | None = None,
        failover: FailoverPolicy | None = None,
        snapshot_every: int = 0,
        snapshot_dir=None,
        snapshot_mode: str = "sync",
        snapshot_deltas: int = 0,
        snapshot_retain: int = 0,
        owns_engine: bool = False,
        clock: Callable[[], float] = time.perf_counter,
        on_tick: Callable[[TickTelemetry], None] | None = None,
        telemetry_window: int = TELEMETRY_WINDOW,
        metrics=None,
        tracer=None,
        slo=None,
    ) -> None:
        if not hasattr(engine, "submit_batch"):
            raise ValidationError(
                "engine must expose submit_batch()/collect_batch()"
            )
        if autoscale is not None and not hasattr(engine, "rebalance"):
            raise ValidationError(
                "AutoscalePolicy requires an engine with rebalance() "
                "(a ShardedEngine); the single-process engine cannot scale"
            )
        if failover is not None and not hasattr(engine, "revive_shard"):
            raise ValidationError(
                "FailoverPolicy requires an engine with revive_shard() "
                "(a ShardedEngine); a single-process engine has no workers "
                "to respawn"
            )
        if snapshot_every < 0:
            raise ValidationError(
                f"snapshot_every must be >= 0, got {snapshot_every}"
            )
        if snapshot_every and snapshot_dir is None:
            raise ValidationError("snapshot_every > 0 requires snapshot_dir")
        if snapshot_mode not in ("sync", "bg"):
            raise ValidationError(
                f"snapshot_mode must be 'sync' or 'bg', got {snapshot_mode!r}"
            )
        if snapshot_deltas < 0:
            raise ValidationError(
                f"snapshot_deltas must be >= 0, got {snapshot_deltas}"
            )
        if snapshot_retain < 0:
            raise ValidationError(
                f"snapshot_retain must be >= 0, got {snapshot_retain}"
            )
        if telemetry_window < 1:
            raise ValidationError(
                f"telemetry_window must be >= 1, got {telemetry_window}"
            )
        if metrics is not None and metrics.get("repro_controller_ticks_total"):
            raise ValidationError(
                "metrics registry already holds a controller's counters; "
                "give each ServingController its own MetricsRegistry"
            )
        self.engine = engine
        self.autoscale = autoscale
        self.admission = admission
        self.failover = failover
        self.snapshot_every = snapshot_every
        self.snapshot_dir = snapshot_dir
        self.snapshot_mode = snapshot_mode
        self.snapshot_deltas = snapshot_deltas
        self.snapshot_retain = snapshot_retain
        self.owns_engine = owns_engine
        self.clock = clock
        self.on_tick = on_tick
        self.telemetry_window = telemetry_window
        if metrics is not None and tracer is None:
            # Metrics without a tracer would leave the phase histograms
            # empty; a default wall-clock tracer fills them.  Never tied
            # to the controller's ``clock``: a scripted-latency test
            # must not have its clock sequence consumed by spans.
            from repro.serving.observability.tracing import TickTracer

            tracer = TickTracer(window=telemetry_window)
        self.tracer = tracer
        if tracer is not None and hasattr(engine, "tracer"):
            # The sharded engine contributes fan-out/shard-step/merge
            # spans of the same ticks through this attribute.
            engine.tracer = tracer
        self.slo = slo
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Metric families by key (a ControllerStats field for each own
        # counter) and the last published engine counters (_advance).
        self._metric: dict = {}
        self._published: dict = {}
        self._bind_metrics()
        self._max_inflight_depth = 0
        #: The last :attr:`telemetry_window` ticks' telemetry records.
        self.telemetry: deque[TickTelemetry] = deque(maxlen=telemetry_window)
        self.snapshots_written: deque[str] = deque(
            maxlen=SNAPSHOTS_WRITTEN_KEEP
        )
        self._closed = False
        # Durability state: the writer thread and the base+delta store
        # every cadence commits to, the tick of the last accepted write
        # (None forces a full base), and how many deltas the current
        # chain holds.
        self._snapshot_writer = None
        self._snapshot_store = None
        self._delta_epoch: int | None = None
        self._deltas_since_base = 0
        if snapshot_every:
            from repro.serving.durability import SnapshotStore, SnapshotWriter

            self._snapshot_writer = SnapshotWriter()
            self._snapshot_store = SnapshotStore(
                snapshot_dir, retain=snapshot_retain
            )
        # Controller-level latency EWMA (telemetry + autoscale input).
        self._latency_ewma: float | None = None
        # Autoscale state.
        self._miss_streak = 0
        self._idle_streak = 0
        self._cooldown = 0
        # Admission state.
        self._seq = 0
        self._frame_seconds_ewma: float | None = None
        self._queues: dict[object, deque[_QueuedFrame]] = {}
        # The controller-side mirror of the engine's in-flight window
        # (one _PendingTick per submitted, uncollected tick).  Empty
        # between ticks, and at every admission of a window-1 loop, so
        # the backpressure check it feeds is inert there.
        self._pending_ticks: deque[_PendingTick] = deque()
        # Failover state: the in-memory recovery snapshot (refreshed
        # every journal_depth ticks and at every controller snapshot)
        # plus the journal of admitted batches since it.
        self._recovery_snapshot: RegistrySnapshot | None = None
        #: Per-shard recovery checkpoints: each shard's slice of the
        #: recovery snapshot, with its worker-local lifecycle counters.
        #: Captured in the same fan-out as the merged snapshot (see
        #: ``ShardedEngine.snapshot_shards``); None when the engine has
        #: no shard surface or the baseline is stale.
        self._shard_checkpoints: dict[int, RegistrySnapshot] | None = None
        self._journal: deque[list[StreamFrame]] = deque()
        if failover is not None:
            # Captured eagerly so a worker death during the very first
            # controlled operation has a baseline to restore -- one that
            # includes any state the engine already held when this
            # controller attached to it.
            self._capture()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Idempotently release the controller (and the engine if owned)."""
        if self._closed:
            return
        self._closed = True
        if self._snapshot_writer is not None:
            # Drain-before-shutdown: every accepted snapshot write lands
            # on disk (and must, before an owned engine's workers go
            # away) -- only queue-refused writes are ever lost, loudly.
            self._snapshot_writer.close()
            self._count_write_errors()
        if self.owns_engine and hasattr(self.engine, "close"):
            self.engine.close()

    def __enter__(self) -> "ServingController":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Current shard count (1 for a single-process engine)."""
        return getattr(self.engine, "n_shards", 1)

    @property
    def backlog(self) -> int:
        """Total deferred frames across all stream queues."""
        return sum(len(queue) for queue in self._queues.values())

    @property
    def latency_ewma(self) -> float | None:
        """Controller-level EWMA of tick latency (None before any tick)."""
        return self._latency_ewma

    @property
    def stats(self) -> ControllerStats:
        """The cumulative counters, read from the counter families keyed
        by a :class:`ControllerStats` field (one read per family)."""
        fields = ControllerStats.__dataclass_fields__
        read = {
            name: family.values()
            for name, family in self._metric.items()
            if name in fields
        }
        counts = {name: int(sum(s.values())) for name, s in read.items()}
        seconds = read["recovery_seconds"].values()
        counts["recovery_seconds"] = sum(seconds, 0.0)
        deferred, dropped = (
            {int(key[0]): int(count) for key, count in read[name].items()}
            for name in ("frames_deferred", "admission_overflow")
        )
        return ControllerStats(
            **counts,
            telemetry_window=self.telemetry_window,
            max_inflight_depth=self._max_inflight_depth,
            deferred_by_priority=deferred,
            dropped_by_priority=dropped,
        )

    def _count(self, name: str, amount=1, **labels) -> None:
        """Add a nonzero ``amount`` to the controller counter ``name``
        (a series appears in a scrape once it counts something)."""
        if amount:
            family = self._metric[name]
            (family.labels(**labels) if labels else family).inc(amount)

    # ------------------------------------------------------------------
    # The tick loop
    # ------------------------------------------------------------------
    def tick(self, frames: Sequence[StreamFrame]) -> list[StreamStepResult]:
        """Run one controlled tick; returns the admitted frames' results.

        The tick loop of :meth:`run` over one tick: submit, then collect.
        With admission disabled the input frames pass through unmodified
        (bitwise-identical to ``engine.step_batch(frames)``).  With it
        enabled the engine receives the admitted subset in deterministic
        priority-then-arrival order, and results cover only those frames
        -- deferred frames surface on the tick that admits them.

        A tick the engine *rejects* at submit (every input validation
        error, parent-side on a cluster) propagates with no controller
        state change: nothing was admitted, no telemetry is recorded, and
        with admission enabled the rejected tick's frames are not queued
        (they were never accepted into the control plane).
        """
        results: list[StreamStepResult] = []
        self._serve([frames], 1, results.extend)
        return results

    def run(self, ticks) -> dict[object, list[StreamStepResult]]:
        """Drive one tick per element of ``ticks``; results are grouped
        per stream (the shape every replay/CLI/bench consumer wants).
        Frames still deferred when the schedule ends stay queued --
        :attr:`backlog` reports them.

        Up to the engine's ``inflight_window`` ticks are kept in flight
        (a :class:`~repro.serving.cluster.ShardedEngine` built with
        ``inflight_window > 1`` pipelines: tick t+1's frames are admitted
        and fanned out while tick t's replies are still on the wire).
        Each tick's bookkeeping runs when its replies land -- always in
        submission order, so results, journals, and snapshots do not
        depend on the window.  Autoscale forces window 1 (a rebalance
        needs a drained engine).
        """
        window = 1 if self.autoscale is not None else self._pipeline_window()
        per_stream: dict[object, list[StreamStepResult]] = {}

        def emit(results: list[StreamStepResult]) -> None:
            for result in results:
                per_stream.setdefault(result.stream_id, []).append(result)

        self._serve(ticks, window, emit)
        return per_stream

    def _pipeline_window(self) -> int:
        """The engine's in-flight window bound (1 = one tick at a time)."""
        return getattr(self.engine, "inflight_window", 1)

    def _serve(self, ticks, window: int, emit: Callable) -> None:
        """The one tick loop: keep up to ``window`` ticks in flight.

        Each incoming tick is admitted and submitted as soon as a window
        slot frees up; the oldest in-flight tick is collected (replies
        merged, bookkeeping done, results handed to ``emit``) whenever
        the window is full -- so a cluster's shards are stepping tick
        t+1 while the parent merges tick t.  Operations that need a
        drained engine (periodic snapshots, journal checkpoints) drain
        the window first, at exactly the tick cadence of window 1.

        Any failure settles the engine's window (every owed reply is
        drained) before propagating, so the controller and engine stay
        usable.
        """
        pending = self._pending_ticks
        try:
            for frames in ticks:
                while pending and (
                    len(pending) >= window or self._must_drain()
                ):
                    emit(self._collect_one())
                self._submit_one(frames)
            while pending:
                emit(self._collect_one())
        except Exception:
            # The open spans belong to ticks that never completed, and
            # the engine may still owe replies for them; settle both so
            # the controller (and a caller's cleanup) stay usable.
            if self.tracer is not None:
                self.tracer.abort_tick()
            self._settle_window()
            pending.clear()
            raise

    def _must_drain(self) -> bool:
        """Does the *newest* submitted tick, once collected, need a
        drained engine?  Checked before every submit, so a snapshot-due
        or checkpoint-due tick is always the last one in the window and
        the drained-engine operation runs at its exact tick."""
        pending = self._pending_ticks
        newest = self.engine.tick + len(pending)
        if self.snapshot_every and newest % self.snapshot_every == 0:
            return True
        return (
            self.failover is not None
            and len(self._journal) + len(pending)
            >= self.failover.journal_depth
        )

    def _submit_one(self, frames: Sequence[StreamFrame]) -> None:
        """The submit half of a tick: intake -> admission ->
        ``engine.submit_batch`` -> pending record.

        The admission outcome commits *here*, once the engine accepted
        the submit -- not at collect.  With a window above 1 the next
        tick's intake runs before this tick's replies land, and it must
        see this tick's deferrals at the queue heads, or a stream's
        deferred frame and its next frame would be admitted out of
        order.  A rejected submit rolls back, and failover replays the
        committed batches verbatim, so the admission schedule is decided
        exactly once either way.
        """
        tracer = self.tracer
        span = tracer.span if tracer is not None else null_span
        with span("intake"):
            frames = list(frames)
            submitted = len(frames)
            if self.admission is not None:
                self._validate_intake(frames)
        if self.admission is not None:
            with span("admission"):
                admitted_q, deferral = self._admit(frames)
            batch = [queued.frame for queued in admitted_q]
        else:
            deferral = None
            batch = frames
        record = _PendingTick(
            batch,
            submitted,
            deferral,
            self.clock(),
            tracer.clock() if tracer is not None else None,
        )
        try:
            self._attempt(
                lambda: self.engine.submit_batch(batch),
                record.recovery,
                kind="step",
            )
        except Exception:
            if deferral is not None:
                deferral.rollback()
                # The engine rejected the tick atomically; the sequence
                # counter must match a run where it never happened, or a
                # later snapshot would diverge from the uninterrupted run.
                self._seq = deferral.seq_before
            raise
        if deferral is not None:
            deferral.commit(self.admission.max_deferred_per_stream)
            self._count("frames_resumed", deferral.resumed)
            for name, frames in (
                ("frames_deferred", deferral.deferred_frames),
                ("admission_overflow", deferral.dropped_frames),
            ):
                by_priority = Counter(queued.priority for queued in frames)
                for priority, count in by_priority.items():
                    self._count(name, count, priority=priority)
        self._pending_ticks.append(record)
        self._max_inflight_depth = max(
            self._max_inflight_depth, len(self._pending_ticks)
        )

    def _collect_one(self) -> list[StreamStepResult]:
        """The collect half: finish the oldest in-flight tick.

        Every piece of per-tick bookkeeping -- journal, both EWMAs,
        autoscale, periodic snapshot, SLO verdicts, telemetry, metrics,
        ``on_tick`` -- runs here, once, in submission order.  (Admission
        already committed at submit; see :meth:`_submit_one`.)  The
        ``step`` span runs from the tick's submit to its merged results,
        so it covers the engine's work on every engine kind.
        """
        tracer = self.tracer
        span = tracer.span if tracer is not None else null_span
        record = self._pending_ticks[0]
        recovery = record.recovery
        deferral = record.deferral
        results = self._attempt(
            self.engine.collect_batch, recovery, kind="step"
        )
        self._pending_ticks.popleft()
        latency = self.clock() - record.before
        if tracer is not None and record.traced_at is not None:
            tracer.record(
                "step",
                tracer.clock() - record.traced_at,
                start=record.traced_at,
                frames=len(record.batch),
            )
        if self.failover is not None:
            # Journal the admitted batch, then checkpoint once the
            # journal is full: the recovery snapshot advances to the
            # current state and the replay window restarts empty.
            self._journal.append(record.batch)
            if (
                len(self._journal) >= self.failover.journal_depth
                and not self._pending_ticks
            ):
                self._capture(recovery)

        alpha = self.autoscale.ewma_alpha if self.autoscale is not None else 0.3
        if self._latency_ewma is None:
            self._latency_ewma = latency
        else:
            self._latency_ewma += alpha * (latency - self._latency_ewma)
        if self.admission is not None and record.batch:
            per_frame = latency / len(record.batch)
            if self._frame_seconds_ewma is None:
                self._frame_seconds_ewma = per_frame
            else:
                self._frame_seconds_ewma += self.admission.ewma_alpha * (
                    per_frame - self._frame_seconds_ewma
                )

        rebalanced_to = self._autoscale_step(recovery)
        if (
            self.snapshot_every
            and self.engine.tick % self.snapshot_every == 0
            and not self._pending_ticks
        ):
            with span("snapshot"):
                self._write_snapshot(recovery)

        slo_breaches = 0
        slo_burn = 0.0
        if self.slo is not None:
            verdicts = self.slo.observe(latency)
            slo_burn = max((v.burn_short for v in verdicts), default=0.0)
            for verdict in verdicts:
                if verdict.breached:
                    slo_breaches += 1
                    self._count("slo_breaches", slo=verdict.slo)
                if verdict.alerting:
                    severity = verdict.severity
                    self._count("slo_alerts", slo=verdict.slo, severity=severity)

        self._count("ticks")
        self._count("frames_submitted", record.submitted)
        self._count("frames_admitted", len(record.batch))
        telemetry = TickTelemetry(
            tick=self.engine.tick,
            submitted=record.submitted,
            admitted=len(record.batch),
            resumed=deferral.resumed if deferral is not None else 0,
            deferred=(
                len(deferral.deferred_frames) if deferral is not None else 0
            ),
            dropped=(
                len(deferral.dropped_frames) if deferral is not None else 0
            ),
            backlog=self.backlog,
            frame_budget=deferral.budget if deferral is not None else None,
            latency_seconds=latency,
            latency_ewma=self._latency_ewma,
            n_shards=self.n_shards,
            rebalanced_to=rebalanced_to,
            failovers=recovery.failovers,
            replay_depth=recovery.replayed,
            recovery_seconds=recovery.seconds,
            slo_breaches=slo_breaches,
            slo_burn_rate=slo_burn,
            inflight_depth=len(self._pending_ticks),
        )
        self.telemetry.append(telemetry)
        trace = (
            tracer.end_tick(self.engine.tick) if tracer is not None else None
        )
        # Published BEFORE on_tick so a callback (or a concurrent scrape
        # it triggers) already sees this tick's gauges and histograms.
        self._publish_tick(telemetry, trace)
        if self.on_tick is not None:
            self.on_tick(telemetry)
        return results

    def _settle_window(self) -> None:
        """Drain every reply the engine's in-flight window still owes.

        Best-effort by design: the replies are discarded either way, and
        a transport so broken that even the drain fails must not mask
        the original error being handled.
        """
        try:
            self.engine.abort_window()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Failover (recovery snapshot + tick journal + respawn/replay loop)
    # ------------------------------------------------------------------
    def _attempt(
        self,
        operation: Callable,
        recovery: _RecoveryLog,
        kind: str = "generic",
    ):
        """Run one engine operation, recovering dead workers per the policy.

        Without a :class:`FailoverPolicy` this is a plain call -- zero
        extra engine traffic, preserving the disabled-policy invariant.
        With one, every :class:`ClusterWorkerError` -- from the operation
        or from a recovery attempt itself -- settles the engine's window
        and triggers one budgeted recovery before the operation is
        retried; after a whole-cluster recovery every admitted but
        uncollected tick is re-submitted in order first, so the retry
        resumes against an identical window.  Exhausting
        ``max_failovers`` re-raises the latest error, with the failing
        shard attached, exactly as a failover-free controller would have.

        ``kind`` tells recovery what the interrupted operation was, so
        the shard-local path knows what is safe: ``"step"`` (a tick's
        submit or collect; a collect that failed with no later tick in
        flight kept its survivors' replies -- recovery then *completes*
        the tick and returns its results instead of retrying),
        ``"snapshot"`` (read-only fan-out: a shard-local revive + replay
        suffices before the retry), or ``"generic"`` (anything else:
        always whole-cluster recovery).
        """
        if self.failover is None:
            return operation()
        while True:
            if self._recovery_snapshot is None:
                # Re-arm the checkpoint (only needed after a bare
                # ``load_state_dict``; the constructor and ``restore``
                # both leave one in place).  Deliberately OUTSIDE the
                # recovery path: with no checkpoint there is nothing to
                # restore a dead shard's streams from, so a worker death
                # during this capture must fail fast rather than
                # blank-revive the shard and silently diverge.
                self._capture()
            try:
                return operation()
            except ClusterWorkerError as error:
                # Recovery itself may hit another worker death (the
                # respawned worker dies again, a TCP replacement is not
                # up yet, a second shard fails during the replay); each
                # such failure consumes budget and is retried, with the
                # backoff growing per attempt -- never aborted while
                # budget remains.
                while True:
                    self._settle_window()
                    if self.stats.failovers >= self.failover.max_failovers:
                        raise error
                    try:
                        salvaged = self._recover(error, recovery, kind)
                        if salvaged is not None:
                            # Shard-local recovery already completed the
                            # interrupted tick from the survivors' kept
                            # replies; retrying would double-step it.
                            return salvaged[0]
                        for pending in self._pending_ticks:
                            self.engine.submit_batch(pending.batch)
                        break
                    except ClusterWorkerError as again:
                        error = again

    def _shard_local_possible(self, dead: set, kind: str) -> bool:
        """May this recovery touch only the dead shard(s)?

        Requires: the policy allows it, the operation kind is one whose
        survivors are known un-advanced (a read-only snapshot fan-out,
        which only runs on a drained engine) or salvageable (a failed
        tick that was the only one in flight kept its ok replies -- a
        later in-flight tick would have advanced the survivors past
        per-shard reconstruction), per-shard checkpoints exist for every
        dead shard, and no dead shard is a mid-spawn index past the
        worker list.
        """
        if not self.failover.shard_local or not dead:
            return False
        if kind not in ("step", "snapshot"):
            return False
        if kind == "step" and not getattr(
            self.engine, "salvage_pending", False
        ):
            return False
        checkpoints = self._shard_checkpoints
        if checkpoints is None:
            return False
        n_shards = self.engine.n_shards
        return not any(
            shard >= n_shards or shard not in checkpoints for shard in dead
        )

    def _recover_shard_local(
        self, dead: list, kind: str, recovery: _RecoveryLog
    ):
        """Revive + replay ONLY the dead shard(s); salvage a failed step.

        Each dead shard is restored from its own checkpoint part (with
        its worker-local lifecycle counters, so cluster statistics stay
        exact) and re-stepped through its slice of the journal alone --
        O(dead shard); every surviving shard keeps serving state
        untouched.  For ``kind == "step"`` the interrupted tick is then
        completed from the survivors' kept replies plus a resend to the
        revived shard(s), and its results are returned in a 1-tuple;
        snapshot kinds return None (the caller retries the fan-out).
        """
        for shard in dead:
            part = self._shard_checkpoints[shard]
            self.engine.revive_shard(
                shard, snapshot=part, statistics=part.statistics
            )
            self._count("shards_respawned")
            recovery.respawned += 1
            replayed = self.engine.replay_shard(shard, self._journal)
            self._count("replayed_ticks", replayed)
            recovery.replayed += replayed
        if kind == "step":
            return (self.engine.salvage_step(),)
        return None

    def _recover(
        self,
        error: ClusterWorkerError,
        recovery: _RecoveryLog,
        kind: str = "generic",
    ):
        """One recovery pass: respawn dead shards, restore, replay.

        Shard-local when possible (see :meth:`_shard_local_possible`),
        whole-cluster otherwise.  Returns a 1-tuple of step results when
        shard-local recovery salvaged the interrupted tick (the caller
        must NOT retry the operation), else None.

        The caller enforces the ``max_failovers`` budget.  Recovery wall
        time is measured with ``time.perf_counter`` directly (not the
        injectable ``clock``) so scripted-latency policy tests are not
        perturbed; the *tick latency* the caller observes still spans the
        recovery, by design -- the stall is real and telemetry reports it.
        """
        policy = self.failover
        self._count("failovers")
        recovery.failovers += 1
        if recovery.failovers > 1 and policy.respawn_backoff > 0.0:
            # Linear backoff between consecutive attempts on the same
            # operation: a TCP worker being restarted by a supervisor
            # needs a moment beyond the transport's own connect retries.
            time.sleep(policy.respawn_backoff * (recovery.failovers - 1))
        started = time.perf_counter()
        try:
            dead = set(self.engine.dead_shards)
            if error.shard is not None:
                dead.add(error.shard)
            if self._shard_local_possible(dead, kind):
                salvaged = self._recover_shard_local(
                    sorted(dead), kind, recovery
                )
                self._count("shard_recoveries")
                return salvaged
            for shard in sorted(dead):
                # A shard index past the worker list names a worker that
                # never finished spawning (mid-grow failure); there is
                # no endpoint to revive -- retrying the rebalance will
                # spawn it.
                if shard < self.engine.n_shards:
                    self.engine.revive_shard(shard)
                    self._count("shards_respawned")
                    recovery.respawned += 1
            # Fallback: roll the WHOLE cluster back to the checkpoint
            # and replay the journaled batches: survivors that already
            # stepped the interrupted tick rewind with everyone else, so
            # the retry cannot double-step them, and the cluster-wide
            # statistics stay exact (the dead worker's counters died
            # with it; without a per-shard checkpoint they cannot be
            # reconstructed shard-locally).  The checkpoint always
            # exists here -- the constructor captures one eagerly and
            # _attempt re-arms it outside this path.
            self.engine.restore(self._recovery_snapshot)
            for batch in self._journal:
                self.engine.step_batch(batch)
            self._count("replayed_ticks", len(self._journal))
            recovery.replayed += len(self._journal)
            return None
        finally:
            seconds = time.perf_counter() - started
            self._count("recovery_seconds", seconds)
            recovery.seconds += seconds
            if self.tracer is not None:
                # Self-measured span (see above re: clocks); lands in the
                # interrupted tick's trace, where the stall happened.
                self.tracer.record(
                    "recovery",
                    seconds,
                    respawned=recovery.respawned,
                    replayed=recovery.replayed,
                )

    def _capture(
        self, recovery: _RecoveryLog | None = None, attach: bool = False
    ) -> RegistrySnapshot:
        """The one snapshot capture: the merged snapshot, plus per-shard
        parts (live worker statistics included) from the same
        ``snapshot_shards`` fan-out on a sharded engine.

        ``recovery`` makes the capture failover-protected; without it
        (re-arming a missing baseline) a worker death must fail fast,
        as there is no checkpoint to revive the shard from.  ``attach``
        embeds the controller state before the journal is cleared.
        With failover on, the capture becomes the recovery point.
        """
        shards_fn = getattr(self.engine, "snapshot_shards", None) or (
            lambda: (self.engine.snapshot(), None)
        )
        if recovery is None:
            merged, parts = shards_fn()
        else:
            merged, parts = self._attempt(shards_fn, recovery, kind="snapshot")
        if attach:
            merged.controller = self.state_dict()
        if self.failover is not None:
            self._recovery_snapshot = merged
            self._shard_checkpoints = parts
            self._journal.clear()
        return merged

    def _rebalance_engine(self, target: int, recovery: _RecoveryLog) -> dict:
        """``engine.rebalance`` with failover protection.

        A worker lost mid-migration leaves half-moved state; recovery
        restores the checkpoint, replays the journal, and retries the
        rebalance (which is resumable by construction: migration is
        computed against the *target* ring, wherever streams currently
        live).  After success the recovery point is refreshed so no
        journaled batch ever straddles a topology change.
        """
        summary = self._attempt(lambda: self.engine.rebalance(target), recovery)
        if self.failover is not None:
            self._capture(recovery)
        return summary

    def rebalance(self, n_shards: int) -> dict:
        """Manually rescale a sharded engine through the controller.

        Unlike calling ``engine.rebalance`` directly, this routes through
        the failover recovery loop (a worker killed mid-rebalance is
        respawned and the rebalance retried) and keeps the controller's
        recovery checkpoint consistent with the new topology.  Counts as
        a rebalance in :attr:`stats`; returns the engine's migration
        summary.
        """
        if not hasattr(self.engine, "rebalance"):
            raise ValidationError(
                "engine has no rebalance(); only a sharded engine can rescale"
            )
        summary = self._rebalance_engine(n_shards, _RecoveryLog())
        self._count("rebalances")
        return summary

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _frame_budget(self) -> int | None:
        """The per-tick frame budget in force (None = unlimited).

        With a window above 1 the budget additionally answers to
        *backpressure*: when the window is saturated and the oldest
        in-flight tick has already outlived the latency budget, the
        engine is not keeping up -- the budget is halved (floor 1) so
        intake throttles *now*, before overflow starts dropping frames
        from full deferral queues.  Window 1 never trips this (the
        window mirror is empty at admission there).
        """
        policy = self.admission
        budget = policy.max_frames_per_tick
        if policy.latency_budget is not None and self._frame_seconds_ewma:
            dynamic = max(
                1, int(policy.latency_budget / self._frame_seconds_ewma)
            )
            budget = dynamic if budget is None else min(budget, dynamic)
        if budget is not None and self._backpressure():
            budget = max(1, budget // 2)
            self._count("backpressure_throttles")
        return budget

    def _backpressure(self) -> bool:
        """Is the pipeline window saturated *and* visibly behind?

        Age is measured on the controller's injectable ``clock`` (the
        same one that timestamps submits), so backpressure tests script
        it deterministically.
        """
        policy = self.admission
        pending = self._pending_ticks
        if policy is None or policy.latency_budget is None or not pending:
            return False
        if len(pending) + 1 < self._pipeline_window():
            return False
        return self.clock() - pending[0].before > policy.latency_budget

    def _intake_shape(self) -> tuple[int, bool] | None:
        """``(n_stateless, has_scope_model)`` of the served engine, when
        introspectable (StreamingEngine layout or ShardedEngine's probed
        worker shape); None disables intake shape validation."""
        shape = getattr(self.engine, "_engine_shape", None)
        if shape is not None:
            return shape["n_stateless"], shape["has_scope_model"]
        layout = getattr(self.engine, "layout", None)
        if layout is not None:
            return (
                len(layout.stateless_names),
                getattr(self.engine, "scope_model", None) is not None,
            )
        return None

    def _priority_of(self, frame: StreamFrame) -> int:
        value = getattr(frame, self.admission.priority_field, 0)
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ValidationError(
                f"stream {frame.stream_id!r}: priority field "
                f"{self.admission.priority_field!r} value {value!r} is not "
                "an integer priority class"
            ) from None

    def _validate_intake(self, frames: list[StreamFrame]) -> None:
        """Intake validation (the ``intake`` phase of an admission tick).

        A deferred frame skips the engine's whole-tick validation until
        the tick that admits it, so a malformed frame must be rejected
        *here* -- with the engine's canonical checks and messages --
        before it can hide in a queue.  Nothing (seq counter included)
        changes on reject.
        """
        shape = self._intake_shape()
        if shape is not None:
            validate_tick_frames(
                frames, n_stateless=shape[0], has_scope_model=shape[1]
            )
        else:  # engines without introspectable shape: duplicates only
            seen_ids = set()
            for frame in frames:
                if frame.stream_id in seen_ids:
                    raise ValidationError(
                        f"duplicate stream {frame.stream_id!r} within one "
                        "tick; submit at most one frame per stream per "
                        "step_batch call"
                    )
                seen_ids.add(frame.stream_id)

    def _admit(self, frames: list[StreamFrame]):
        """Pick this tick's batch: one candidate per stream, sorted by
        (priority class, arrival sequence), admitted up to the budget.

        The caller has already run :meth:`_validate_intake` on these
        frames.  Queue mutations are staged in a
        :class:`_AdmissionOutcome` and applied only after the engine
        accepted the tick (``commit``); a rejected tick rolls back to
        the pre-tick queues, so controller state matches the engine's
        nothing-happened semantics.
        """
        outcome = _AdmissionOutcome(self._queues, seq_before=self._seq)
        candidates: list[_QueuedFrame] = []
        backed_up: set = set()
        # Existing backlog goes first: each backed-up stream's oldest
        # queued frame is its candidate (per-stream FIFO order).
        for stream_id, queue in self._queues.items():
            candidates.append(queue[0])
            backed_up.add(stream_id)
        for frame in frames:
            queued = _QueuedFrame(self._seq, self._priority_of(frame), frame)
            self._seq += 1
            if frame.stream_id in backed_up:
                # The stream already has older work pending; this frame
                # joins the back of its queue (FIFO per stream).
                outcome.enqueue(frame.stream_id, queued)
            else:
                candidates.append(queued)

        candidates.sort(key=lambda q: (q.priority, q.seq))
        budget = self._frame_budget()
        outcome.budget = budget
        if budget is None or len(candidates) <= budget:
            admitted, overflow = candidates, []
        else:
            admitted, overflow = candidates[:budget], candidates[budget:]

        for queued in admitted:
            if queued.frame.stream_id in backed_up:
                outcome.pop_front(queued.frame.stream_id)
                outcome.resumed += 1
        for queued in overflow:
            if queued.frame.stream_id in backed_up:
                continue  # already queued; stays at its stream's front
            outcome.enqueue(queued.frame.stream_id, queued)
        return admitted, outcome

    # ------------------------------------------------------------------
    # Observability: the registry is the store of every count
    # ------------------------------------------------------------------
    def _bind_metrics(self) -> None:
        """Register :data:`_FAMILIES` (the SLO ones only with an SLO
        tracker).  The tick counter exists from the start, so a scrape
        before the first tick reads ``repro_controller_ticks_total 0``."""
        for key, kind, name, help_text, *labels in _FAMILIES:
            if self.slo is not None or not key.startswith("slo_"):
                register = getattr(self.metrics, kind)
                self._metric[key] = register(name, help_text, labels=labels)
        self._metric["ticks"].labels()
        self._metric["window"].set(self.telemetry_window)

    def _advance(self, key, value, counter, **labels) -> None:
        """Publish one of the engine's cumulative ``fanout_stats()``
        counters as a delta against its last published value."""
        previous = self._published.get(key, 0)
        if value > previous:
            series = counter.labels(**labels) if labels else counter
            series.inc(value - previous)
            self._published[key] = value

    def _publish_tick(self, record: TickTelemetry, trace) -> None:
        """Publish this tick's gauges and histograms, and advance the
        counters the engine keeps itself (``fanout_stats()``).  The
        controller's own counters were counted where they happened."""
        f = self._metric
        writer = self._snapshot_writer
        if writer is not None:
            f["snapshot_queue"].set(writer.queue_depth)
            for seconds in writer.drain_timings():
                f["snapshot_write"].observe(seconds)
        f["inflight_depth"].set(record.inflight_depth)
        fanout_stats = getattr(self.engine, "fanout_stats", None)
        if fanout_stats is not None:
            fanout = fanout_stats()
            self._advance("fanout_ticks", fanout["ticks"], f["fanout_ticks"])
            self._advance(
                "fanout_encode", fanout["encode_seconds"], f["fanout_encode"]
            )
            self._advance(
                "fanout_overlap", fanout["overlap_seconds"], f["fanout_overlap"]
            )
            pool = fanout.get("pool")
            if pool is not None:
                self._advance("pool_hits", pool["hits"], f["pool_hits"])
                self._advance("pool_misses", pool["misses"], f["pool_misses"])
                self._advance(
                    "pool_bytes", pool["bytes_copied"], f["pool_bytes"]
                )
            for shard, phases in fanout.get(
                "worker_phase_seconds", {}
            ).items():
                for phase_name, seconds in phases.items():
                    self._advance(
                        ("worker_phase", shard, phase_name),
                        seconds,
                        f["worker_phase"],
                        shard=str(shard),
                        phase=phase_name,
                    )
        if self.slo is not None:
            slo_burn = f["slo_burn"]
            for objective in self.slo.objectives:
                rates = self.slo.burn_rates(objective.name)
                slo_burn.labels(slo=objective.name, window="short").set(
                    rates["short"]
                )
                slo_burn.labels(slo=objective.name, window="long").set(
                    rates["long"]
                )
        f["backlog"].set(record.backlog)
        f["shards"].set(record.n_shards)
        f["ewma"].set(record.latency_ewma)
        f["latency"].observe(record.latency_seconds)
        if record.recovery_seconds > 0.0:
            f["recovery_hist"].observe(record.recovery_seconds)
        if trace is not None:
            phase = f["phase"]
            for span_record in trace.spans:
                phase.labels(phase=span_record.name).observe(
                    span_record.seconds
                )

    # ------------------------------------------------------------------
    # Autoscale
    # ------------------------------------------------------------------
    def _autoscale_step(self, recovery: _RecoveryLog) -> int | None:
        """Update streaks from the latency EWMA; rebalance when due."""
        policy = self.autoscale
        if policy is None:
            return None
        ewma = self._latency_ewma
        if ewma > policy.latency_budget:
            self._miss_streak += 1
            self._idle_streak = 0
        elif ewma < policy.shrink_fraction * policy.latency_budget:
            self._idle_streak += 1
            self._miss_streak = 0
        else:
            self._miss_streak = 0
            self._idle_streak = 0
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        current = self.n_shards
        target = None
        if self._miss_streak >= policy.grow_after and current < policy.max_shards:
            target = current + 1
        elif (
            self._idle_streak >= policy.shrink_after
            and current > policy.min_shards
        ):
            target = current - 1
        if target is None:
            return None
        self._rebalance_engine(target, recovery)
        self._count("rebalances")
        self._miss_streak = 0
        self._idle_streak = 0
        self._cooldown = policy.cooldown_ticks
        return target

    # ------------------------------------------------------------------
    # Snapshot / restore (controller state rides inside the registry
    # snapshot so restore-then-step reproduces the controlled run)
    # ------------------------------------------------------------------
    def snapshot(self) -> RegistrySnapshot:
        """The engine's snapshot with the controller's state attached.

        With failover enabled the capture doubles as a recovery
        checkpoint (the freshest possible baseline is free here), and a
        worker lost *during* the capture is recovered and the capture
        retried.
        """
        return self._capture(_RecoveryLog(), attach=True)

    def restore(self, snapshot: RegistrySnapshot) -> None:
        """Restore engine *and* controller state from a snapshot.

        A snapshot without controller state (pre-controller, or taken
        straight off the engine) resets the policies to a cold start.
        When this controller autoscales and the snapshot records a
        different shard count than the engine currently runs
        (mid-autoscale capture), the topology is restored too, so the
        continuation is identical to the uninterrupted controlled run;
        without an autoscale policy the caller's chosen topology is
        respected (results do not depend on it).
        """
        self._check_state_compatible(snapshot.controller)
        self.engine.restore(snapshot)
        self.load_state_dict(snapshot.controller)
        if self.failover is not None:
            # Rebase recovery on the restored state: the snapshot already
            # contains every journaled tick's effects, so the replay
            # window restarts empty (any journal the controller state
            # carried was bookkeeping for the *capturing* run).  The
            # per-shard parts are the very split engine.restore sent,
            # with empty statistics -- exact, because it just zeroed
            # every worker's lifecycle counters into the cluster base.
            split = getattr(self.engine, "split_snapshot", None)
            self._recovery_snapshot = snapshot
            self._shard_checkpoints = (
                dict(enumerate(split(snapshot))) if split else None
            )
            self._journal.clear()
        if self.autoscale is not None and snapshot.controller is not None:
            recorded = snapshot.controller.get("n_shards")
            if recorded is not None and recorded != self.n_shards:
                self._rebalance_engine(int(recorded), _RecoveryLog())

    def state_dict(self) -> dict:
        """JSON-safe controller state (policy EWMAs, streaks, queues).

        Deferred and journaled frame payloads are stored as plain float
        lists (:func:`~repro.serving.state.frame_to_state`); JSON
        round-trips Python floats exactly (shortest-repr), so restored
        frames step to bitwise-identical results.
        """
        deferred = []
        for stream_id, queue in self._queues.items():
            for queued in queue:
                entry = frame_to_state(queued.frame)
                entry["seq"] = queued.seq
                deferred.append(entry)
        return {
            "version": CONTROLLER_STATE_VERSION,
            "n_shards": self.n_shards,
            "seq": self._seq,
            "latency_ewma": self._latency_ewma,
            "autoscale": (
                {
                    "miss_streak": self._miss_streak,
                    "idle_streak": self._idle_streak,
                    "cooldown": self._cooldown,
                }
                if self.autoscale is not None
                else None
            ),
            "admission": (
                {"frame_seconds_ewma": self._frame_seconds_ewma}
                if self.admission is not None
                else None
            ),
            "deferred": deferred,
            # The failover journal: the admitted batches a recovery at
            # capture time would have replayed.  Serialized so a snapshot
            # is a complete audit of the control plane; a *restored*
            # controller rebases recovery on the restored state (which
            # already includes these ticks' effects), so the window
            # restarts empty there.
            "failover": (
                {
                    "journal": [
                        [frame_to_state(frame) for frame in batch]
                        for batch in self._journal
                    ]
                }
                if self.failover is not None
                else None
            ),
        }

    def _check_state_compatible(self, state: dict | None) -> None:
        """Everything that can make :meth:`load_state_dict` refuse,
        checked up front so a restore never half-applies."""
        if state is None:
            return
        version = state.get("version")
        if version != CONTROLLER_STATE_VERSION:
            raise ValidationError(
                f"snapshot carries controller state version {version}; this "
                f"build reads version {CONTROLLER_STATE_VERSION}"
            )
        deferred = state.get("deferred") or []
        if deferred and self.admission is None:
            # Without an admission policy the tick loop never drains the
            # queues; silently adopting them would lose the frames.
            raise ValidationError(
                f"snapshot carries {len(deferred)} deferred frame(s) but "
                "this controller has no AdmissionPolicy to serve them; "
                "restore with admission enabled (e.g. --latency-budget-ms) "
                "or take a drained snapshot"
            )

    def load_state_dict(self, state: dict | None) -> None:
        """Adopt controller state captured by :meth:`state_dict`.

        ``None`` resets to a cold start (policies keep their config but
        forget all measurements and queues).
        """
        self._check_state_compatible(state)
        self._latency_ewma = None
        self._miss_streak = self._idle_streak = self._cooldown = 0
        self._seq = 0
        self._frame_seconds_ewma = None
        self._queues = {}
        self._journal.clear()
        # Whatever recovery baseline existed belongs to the previous
        # state; the next protected operation captures a fresh one from
        # the engine as it then stands.  The delta chain described the
        # previous timeline too: the next cadence commits a fresh base.
        self._recovery_snapshot = None
        self._shard_checkpoints = None
        self._delta_epoch = None
        if state is None:
            return
        self._seq = int(state.get("seq", 0))
        self._latency_ewma = state.get("latency_ewma")
        autoscale = state.get("autoscale")
        if autoscale is not None and self.autoscale is not None:
            self._miss_streak = int(autoscale.get("miss_streak", 0))
            self._idle_streak = int(autoscale.get("idle_streak", 0))
            self._cooldown = int(autoscale.get("cooldown", 0))
        admission = state.get("admission")
        if admission is not None and self.admission is not None:
            self._frame_seconds_ewma = admission.get("frame_seconds_ewma")
        for entry in state.get("deferred") or []:
            queue = self._queues.setdefault(entry["stream_id"], deque())
            queue.append(
                _QueuedFrame(
                    int(entry["seq"]),
                    int(entry["priority"]),
                    frame_from_state(entry),
                )
            )
        failover = state.get("failover")
        if failover is not None and self.failover is not None:
            # Faithful round trip of the serialized journal; note it is
            # only usable against the baseline it was journaled from, so
            # the next checkpoint capture (or ServingController.restore)
            # supersedes it.
            for batch in failover.get("journal") or []:
                self._journal.append(
                    [frame_from_state(entry) for entry in batch]
                )

    def _record_written(self, label: str) -> None:
        self._count("snapshots_written")
        self.snapshots_written.append(label)

    def _count_write_errors(self) -> int:
        """Fold the writer's failures since the last look into
        ``snapshot_errors``; returns how many were new.  The store's
        manifest still names the chain as it stood before a failed
        write, so the next cadence must start a fresh base."""
        new = (
            self._snapshot_writer.stats()["errors"]
            - self.stats.snapshot_errors
        )
        if new:
            self._count("snapshot_errors", new)
            self._delta_epoch = None
        return new

    def _write_snapshot(self, recovery: _RecoveryLog) -> None:
        """One cadence write into the base+delta store.

        A full base opens each chain (and whenever no accepted epoch
        exists, or a write failed); the next ``snapshot_deltas``
        cadences write deltas of only the streams dirty since the *last
        accepted* write.  The epoch advances only on accepted writes, so
        a queue-refused delta simply widens the next delta's dirty
        window.  ``"sync"`` mode waits for the write and re-raises its
        error; ``"bg"`` returns at once.
        """
        writer = self._snapshot_writer
        store = self._snapshot_store
        tick = self.engine.tick
        self._count_write_errors()
        if (
            self._delta_epoch is None
            or self._deltas_since_base >= self.snapshot_deltas
        ):
            payload = self._capture(recovery, attach=True)
            label, commit = str(store.base_stem(tick)), store.commit_base
            chain_length = 0
        else:
            since = self._delta_epoch
            payload = self._attempt(
                lambda: self.engine.snapshot_delta(since),
                recovery,
                kind="snapshot",
            )
            payload.controller = self.state_dict()
            label, commit = str(store.delta_stem(tick)), store.commit_delta
            chain_length = self._deltas_since_base + 1
        if not writer.submit(label, lambda: commit(payload)):
            self._count("snapshots_dropped")
            return
        self._record_written(label)
        self._delta_epoch = tick
        self._deltas_since_base = chain_length
        if self.snapshot_mode == "sync":
            writer.drain()
            if self._count_write_errors():
                raise writer.last_error[1]


class _AdmissionOutcome:
    """Staged queue mutations of one tick's admission decision.

    The engine may reject the admitted batch (validation error); the
    controller's queues must then look exactly as before the tick, so
    every mutation is recorded here and applied on :meth:`commit` (or
    discarded on :meth:`rollback`).
    """

    def __init__(self, queues: dict, seq_before: int = 0) -> None:
        self._queues = queues
        self._pops: list = []            # stream ids whose front was admitted
        self._pushes: list[tuple[object, _QueuedFrame]] = []
        self.seq_before = seq_before
        self.resumed = 0
        self.deferred_frames: list[_QueuedFrame] = []
        self.dropped_frames: list[_QueuedFrame] = []
        self.budget: int | None = None

    def pop_front(self, stream_id) -> None:
        self._pops.append(stream_id)

    def enqueue(self, stream_id, queued: _QueuedFrame) -> None:
        self._pushes.append((stream_id, queued))

    def rollback(self) -> None:
        """Forget everything staged; the queues were never touched."""
        self._pops.clear()
        self._pushes.clear()
        self.resumed = 0

    def commit(self, max_deferred_per_stream: int) -> None:
        """Apply the staged mutations to the live queues.

        The per-stream bound is enforced here: a push that would grow a
        queue past ``max_deferred_per_stream`` drops the frame instead
        (the loud ``admission_overflow`` statistic).
        """
        for stream_id in self._pops:
            queue = self._queues[stream_id]
            queue.popleft()
            if not queue:
                del self._queues[stream_id]
        for stream_id, queued in self._pushes:
            queue = self._queues.setdefault(stream_id, deque())
            if len(queue) >= max_deferred_per_stream:
                self.dropped_frames.append(queued)
                continue
            queue.append(queued)
            self.deferred_frames.append(queued)
