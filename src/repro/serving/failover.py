"""Failover policy: automatic worker respawn + snapshot replay.

Until this module, a dead shard worker was terminal: the cluster front
end mapped the loss to :class:`~repro.exceptions.ClusterWorkerError`,
marked the shard in :attr:`~repro.serving.cluster.ShardedEngine.dead_shards`,
and every further serving call failed fast until the caller manually
restored the latest snapshot into a *fresh* cluster.  For a serving
system meant to hold millions of long-lived streams, "one worker died"
must not mean "the run is over" -- the paper's uncertainty wrappers are
a dependability mechanism, and the machinery serving them should be at
least as dependable as the estimates it produces.

:class:`FailoverPolicy` configures the recovery loop the
:class:`~repro.serving.controller.ServingController` runs when a tick
(or snapshot, or rebalance) raises :class:`ClusterWorkerError`:

1. **Respawn** every shard observed dead --
   :meth:`~repro.serving.cluster.ShardedEngine.revive_shard` tears down
   the dead endpoint and brings up a replacement through the transport
   (pipe: re-fork; TCP: reconnect to the same ``serve-worker`` address,
   whose connect loop already retries with backoff while an operator or
   supervisor restarts the process).
2. **Restore** -- shard-locally when possible (``shard_local``): the
   controller keeps *per-shard* checkpoints alongside the merged
   recovery snapshot (one ``snapshot_shards`` fan-out captures both),
   so a lone dead shard is revived with only *its* part --
   ``revive_shard(shard, snapshot=part, statistics=part.statistics)``
   -- while every surviving shard keeps serving state untouched.  The
   whole-cluster restore from the merged in-memory snapshot (via the
   same ``to_wire``/``from_wire`` path snapshots always travel) remains
   the fallback for everything else: a failed tick with later ticks
   still in flight (they advanced the survivors), send-phase losses,
   missing checkpoints.
3. **Replay** -- again shard-locally when possible: the bounded *tick
   journal* (the admitted frame batches of every tick since the
   checkpoint) is filtered to the dead shard's frames and resent to it
   alone (``replay_shard``), O(dead shard) instead of O(cluster); the
   fallback replays every batch through ``step_batch``.
4. **Retry** the interrupted operation (after re-submitting every
   admitted but uncollected tick) -- or, for a failed tick that was the
   only one in flight and whose surviving shards already answered,
   *salvage* it: the kept ok replies merge with a resend of the same
   tick-tagged payload to just the failed shard
   (:meth:`~repro.serving.cluster.ShardedEngine.salvage_step`), so the
   survivors never re-step the tick.  That holds at any window size:
   a windowed run recovers shard-locally whenever the failing tick is
   alone in the window.

Because every engine in this codebase is deterministic, restore + replay
+ retry reproduces the uninterrupted run bit for bit: the caller sees
the same results, statistics, TTL evictions, and monitor verdicts it
would have seen had no worker died -- only the failover telemetry
(``failovers``, ``replay_depth``, ``recovery_seconds``) records that
anything happened.  The deterministic fault-injection harness in
``tests/serving/chaos.py`` exists to prove exactly this property, for
kills injected during step, snapshot, and rebalance traffic on every
transport.

Recovery is bounded: once ``max_failovers`` recoveries have been spent,
the next :class:`ClusterWorkerError` is re-raised to the caller with the
failing shard attached -- the pre-failover fail-fast contract, restored
when the environment is clearly beyond saving.

Observability: a metrics-enabled controller exports every recovery as
the ``repro_controller_failovers_total`` /
``repro_controller_shards_respawned_total`` /
``repro_controller_replayed_ticks_total`` counter families plus the
``repro_recovery_seconds`` histogram, and its tracer records each
recovery as a ``recovery`` span in the interrupted tick's trace (see
:mod:`repro.serving.observability`).  The exactness claim itself is
checkable after the fact: record a run through
:class:`~repro.serving.observability.flight.FlightRecordingTransport`
and ``repro replay-flight`` re-drives the log -- the failover's hello,
restore, and replayed ticks included -- asserting every reply byte
identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ValidationError

__all__ = ["FailoverPolicy"]


@dataclass(frozen=True)
class FailoverPolicy:
    """Automatic worker respawn/failover with snapshot replay.

    Parameters
    ----------
    max_failovers:
        Total recoveries the controller may perform over its lifetime.
        When the budget is exhausted, the next worker loss re-raises
        :class:`~repro.exceptions.ClusterWorkerError` (with the failing
        shard attached) exactly as a failover-free controller would.
    journal_depth:
        Ticks buffered between recovery checkpoints, i.e. the maximum
        replay depth of one recovery.  Every ``journal_depth`` completed
        ticks the controller refreshes its in-memory recovery snapshot
        and clears the journal; smaller values make recovery cheaper
        (fewer ticks to replay) at the cost of more frequent snapshot
        captures in steady state.
    respawn_backoff:
        Base delay in seconds between *consecutive* recovery attempts
        within one operation (linear backoff: attempt ``k`` waits
        ``(k - 1) * respawn_backoff``).  Covers a TCP worker that is
        still being restarted when the first reconnect fires; the first
        recovery attempt never waits.
    shard_local:
        When True (the default) and exactly the failed shard(s) can be
        pinpointed with per-shard checkpoints available, recovery
        restores and replays *only* the dead shard(s) -- O(dead shard)
        -- and salvages the interrupted step from the survivors' kept
        replies.  Whole-cluster restore + replay remains the fallback
        (and the only path when False), bitwise-identical either way.
    """

    max_failovers: int = 8
    journal_depth: int = 16
    respawn_backoff: float = 0.05
    shard_local: bool = True

    def __post_init__(self) -> None:
        if self.max_failovers < 1:
            raise ValidationError(
                f"max_failovers must be >= 1, got {self.max_failovers}"
            )
        if self.journal_depth < 1:
            raise ValidationError(
                f"journal_depth must be >= 1, got {self.journal_depth}"
            )
        if self.respawn_backoff < 0.0:
            raise ValidationError(
                f"respawn_backoff must be >= 0, got {self.respawn_backoff}"
            )
