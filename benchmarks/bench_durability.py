"""Durability cost: background snapshots off the hot path, O(dead-shard) recovery.

The durability claim has three halves, each gated here:

* *Non-blocking*: with ``snapshot_mode="bg"`` + incremental deltas, a
  snapshot-cadence tick pays only the consistent in-memory capture; the
  serialization and disk I/O ride a background writer thread.  Gate:
  steady-state tick p99 with background snapshots every other tick stays
  within ``P99_BUDGET`` x the snapshot-free p99 at 10k streams.  (The
  one-off *base* capture lands in the warm-up window and is reported
  separately as ``base_capture_tick_seconds`` -- steady state in
  incremental mode is delta captures, but we do not hide the base cost.)
  Each configuration runs ``REPEATS`` times in interleaved blocks (ABBA
  order), and the per-tick minimum across repeats is what the
  percentiles see: a shared box's scheduling spikes land on random
  ticks of random runs, while the capture cost this gate measures is
  systematic -- the minimum keeps the signal and sheds the noise,
  identically for both sides.  The gate runs with the cyclic GC on, as
  in production: the gen-2 sweeps that capture allocations trip are a
  cost of the snapshot path.  The same measurement with the GC paused
  inside each run (``REPEATS_GC_OFF`` blocks per side) is recorded as a
  labelled secondary number.

* *Equivalent*: composing the store's base + delta chain back through
  ``load_snapshot`` is bitwise-identical to a full synchronous
  whole-registry snapshot of an uninterrupted reference engine at the
  same tick, and the instrumented run's outputs equal the snapshot-free
  run's outputs.

* *O(dead-shard) recovery*: when one shard worker dies mid-step, a
  shard-local recovery revives and replays *only* the dead shard.  The
  proof is counting, not timing: a tap transport counts every request
  per (shard, command) -- survivors must see exactly one step request
  per tick and zero restores, while the victim sees one restore and the
  replayed/salvaged extra steps.  A ``shard_local=False`` contrast run
  on the same kill point records the full-restore recovery cost.

Artifacts: ``BENCH_durability.json`` (hot-path + restore equivalence)
and ``BENCH_durability_recovery.json`` (recovery counting + timings).
"""

from collections import deque

import numpy as np
import pytest

from repro.core.monitor import UncertaintyMonitor
from repro.exceptions import ClusterWorkerError
from repro.serving import (
    FailoverPolicy,
    ServingController,
    ShardedEngine,
    StreamingEngine,
    build_stream_workload,
    load_snapshot,
)
from repro.serving.transport import Transport, WorkerEndpoint, resolve_transport

from _blocks import interleaved

# -- non-blocking gate ------------------------------------------------------
#: The ISSUE scale: enough streams that a capture is real work (a full
#: capture here costs ~75% of a tick, so a synchronous whole-registry
#: snapshot on the tick path would blow the budget immediately).
LAT_STREAMS = 10_000
LAT_TICKS = 40
#: Ticks excluded from both runs' percentiles: interpreter/cache warm-up
#: plus the one-off base capture (its cost is still reported).
WARMUP_TICKS = 4
#: Wide enough that one compressed delta write finishes within the
#: cadence interval -- the writer must keep up, not accumulate backlog
#: (``snapshots_dropped == 0`` is asserted, so a sustained overrun
#: fails loudly rather than silently shedding durability).
SNAPSHOT_EVERY = 4
#: Deltas per base, larger than the cadence count: steady state of this
#: run is pure delta captures after the single warm-up base.
SNAPSHOT_DELTAS = 64
#: Interleaved repeats per configuration; percentiles see the per-tick
#: minimum across repeats (noise suppression, see module docstring).
REPEATS = 4
#: Repeats per configuration of the GC-off secondary measurement.
REPEATS_GC_OFF = 2
#: The ISSUE gate: snapshot-tick p99 <= 1.5x the snapshot-free p99.
P99_BUDGET = 1.5

# -- recovery gate ----------------------------------------------------------
REC_STREAMS = 2_048
REC_TICKS = 12
REC_SHARDS = 4
JOURNAL_DEPTH = 4
#: Kill the victim's step request #6 on the recv phase: the request went
#: out, the reply never arrives -- the survivors' replies from the same
#: fan-out are salvageable, which is what makes shard-local repair legal.
KILL_STEP_INDEX = 6
VICTIM = 2


def _engine_factory(study_data):
    """Monitored engines: the paper's serving configuration, where a
    per-stream step (DDM + QIM + drift monitor) is real work and the
    consistent capture is a small fraction of it."""

    def factory():
        return StreamingEngine(
            ddm=study_data.ddm,
            stateless_qim=study_data.stateless_qim,
            timeseries_qim=study_data.ta_qim,
            layout=study_data.layout,
            max_buffer_length=4,
            monitor_factory=lambda: UncertaintyMonitor(
                threshold=0.35, reentry_threshold=0.25, risk_budget=3.0
            ),
        )

    return factory


def _assert_snapshots_identical(actual, expected, context):
    """Bitwise equality of two snapshots, ignoring controller telemetry.

    The controller block embeds wall-clock EWMAs that legitimately
    differ between two correct runs; everything else -- stream set,
    buffers, monitors, statistics, tick -- must match exactly.
    """
    actual_meta, actual_arrays = actual.to_wire()
    expected_meta, expected_arrays = expected.to_wire()
    actual_meta = dict(actual_meta)
    expected_meta = dict(expected_meta)
    actual_meta.pop("controller", None)
    expected_meta.pop("controller", None)
    assert actual_meta == expected_meta, f"{context}: snapshot meta diverged"
    assert set(actual_arrays) == set(expected_arrays), context
    for key, array in actual_arrays.items():
        other = expected_arrays[key]
        assert array.dtype == other.dtype, f"{context}: {key} dtype"
        assert np.array_equal(array, other), f"{context}: {key} bytes"


def _run_latency(study_data, workload, store_dir=None):
    """One single-process controller run; bg incremental if store_dir."""
    kwargs = {}
    if store_dir is not None:
        kwargs = dict(
            snapshot_every=SNAPSHOT_EVERY,
            snapshot_dir=store_dir,
            snapshot_mode="bg",
            snapshot_deltas=SNAPSHOT_DELTAS,
        )
    controller = ServingController(_engine_factory(study_data)(), **kwargs)
    results = controller.run(workload.ticks)
    latencies = [t.latency_seconds for t in controller.telemetry]
    controller.close()  # drains the writer: every accepted write lands
    return results, latencies, controller


def test_background_snapshots_stay_off_the_hot_path(
    study_data, write_bench_json, tmp_path
):
    rng = np.random.default_rng(20262)
    workload = build_stream_workload(
        study_data.feature_model, LAT_STREAMS, LAT_TICKS, rng
    )

    # Ground truth: the plain engine loop, and the synchronous
    # whole-registry snapshot at the final tick.
    reference_engine = _engine_factory(study_data)()
    reference: dict = {}
    for frames in workload.ticks:
        for result in reference_engine.step_batch(frames):
            reference.setdefault(result.stream_id, []).append(result)
    reference_snapshot = reference_engine.snapshot()

    # Interleaved blocks (ABBA), so slow-box drift hits both
    # configurations alike.  The bg runs write real base+delta stores.
    stores = []

    def free_block():
        results, latencies, _ = _run_latency(study_data, workload)
        assert results == reference, "snapshot-free run diverged"
        return latencies

    def bg_block():
        store_dir = tmp_path / f"store{len(stores)}"
        stores.append(store_dir)
        results, latencies, controller = _run_latency(
            study_data, workload, store_dir=store_dir
        )
        assert results == reference, "background snapshots changed outputs"
        assert controller.stats.snapshots_dropped == 0, "writer overran"
        written = list(controller.snapshots_written)
        bases = [s for s in written if "base_" in s]
        deltas = [s for s in written if "delta_" in s]
        assert len(bases) == 1
        assert len(deltas) == LAT_TICKS // SNAPSHOT_EVERY - 1
        return latencies

    def min_ticks(runs):
        return np.minimum.reduce(runs)[WARMUP_TICKS:]

    def p99(runs):
        return float(np.percentile(min_ticks(runs), 99))

    free_runs, bg_runs = interleaved(free_block, bg_block, REPEATS)
    free_min, bg_min = min_ticks(free_runs), min_ticks(bg_runs)
    free_p99, bg_p99 = p99(free_runs), p99(bg_runs)
    base_tick_seconds = float(
        min(run[SNAPSHOT_EVERY - 1] for run in bg_runs)
    )
    free_off, bg_off = interleaved(
        free_block, bg_block, REPEATS_GC_OFF, gc_enabled=False
    )
    free_p99_off, bg_p99_off = p99(free_off), p99(bg_off)

    # Restore-equivalence gate: every repeat's manifest chain composes
    # back to the exact registry the synchronous whole-registry
    # snapshot holds at the same tick.
    for store_dir in stores:
        restored = load_snapshot(store_dir)
        assert restored.tick == LAT_TICKS
        _assert_snapshots_identical(
            restored, reference_snapshot, "store restore vs sync snapshot"
        )

    write_bench_json(
        "durability",
        {
            "streams": LAT_STREAMS,
            "ticks": LAT_TICKS,
            "warmup_ticks": WARMUP_TICKS,
            "repeats": REPEATS,
            "snapshot_every": SNAPSHOT_EVERY,
            "snapshot_deltas": SNAPSHOT_DELTAS,
            "snapshot_free_p50_tick_seconds": float(np.median(free_min)),
            "snapshot_free_p99_tick_seconds": free_p99,
            "bg_snapshot_p50_tick_seconds": float(np.median(bg_min)),
            "bg_snapshot_p99_tick_seconds": bg_p99,
            "p99_ratio": bg_p99 / free_p99,
            "p99_budget": P99_BUDGET,
            "base_capture_tick_seconds": base_tick_seconds,
            "bases_written": 1,  # asserted per bg run above
            "deltas_written": LAT_TICKS // SNAPSHOT_EVERY - 1,
            "gc_enabled": True,  # see module docstring
            "secondary_gc_off": {
                "repeats": REPEATS_GC_OFF,
                "snapshot_free_p99_tick_seconds": free_p99_off,
                "bg_snapshot_p99_tick_seconds": bg_p99_off,
                "p99_ratio": bg_p99_off / free_p99_off,
            },
            "free_min_ticks_seconds": [round(float(x), 4) for x in free_min],
            "bg_min_ticks_seconds": [round(float(x), 4) for x in bg_min],
            "snapshots_dropped": 0,  # asserted per repeat above
            "outputs_identical": True,  # asserted per run above
            "restore_bitwise_identical": True,  # asserted above
        },
        transport=None,
        shards=None,
    )

    assert bg_p99 <= P99_BUDGET * free_p99, (
        f"background-snapshot p99 {bg_p99 * 1e3:.1f}ms exceeds "
        f"{P99_BUDGET}x the snapshot-free p99 {free_p99 * 1e3:.1f}ms"
    )


# ---------------------------------------------------------------------------
# Recovery: a counting tap transport proving O(dead-shard)
# ---------------------------------------------------------------------------

class _TapEndpoint(WorkerEndpoint):
    """Endpoint proxy: counts requests; kills one step on its recv."""

    def __init__(self, transport, inner):
        # No super().__init__: `alive` is a property here, derived from
        # the inner endpoint plus our own kill verdict.
        self.shard = inner.shard
        self._transport = transport
        self._inner = inner
        self._dead = False
        self._kill_on_recv: deque = deque()

    @property
    def alive(self):
        return not self._dead and self._inner.alive

    @property
    def trace_context(self):
        return self._inner.trace_context

    @trace_context.setter
    def trace_context(self, value):
        self._inner.trace_context = value

    @property
    def tick_tag(self):
        return self._inner.tick_tag

    @tick_tag.setter
    def tick_tag(self, value):
        self._inner.tick_tag = value

    @property
    def last_telemetry(self):
        return self._inner.last_telemetry

    @property
    def last_reply_tick(self):
        return self._inner.last_reply_tick

    def _before_send(self, command):
        if self._dead:
            raise ClusterWorkerError(
                f"shard {self.shard} worker is gone", shard=self.shard
            )
        self._kill_on_recv.append(self._transport._count(self.shard, command))

    def prepare(self, command, payload=None):
        return (command, self._inner.prepare(command, payload))

    def send_prepared(self, token):
        command, inner_token = token
        self._before_send(command)
        self._inner.send_prepared(inner_token)

    def send(self, command, payload=None):
        self._before_send(command)
        self._inner.send(command, payload)

    def recv(self):
        kill = self._kill_on_recv.popleft() if self._kill_on_recv else False
        if kill:
            # The worker dies after the request went out: SIGKILL the
            # child, never read the reply.  The same fan-out's survivor
            # replies are intact, so the controller may repair
            # shard-locally.
            self._inner.process.kill()
            self._inner.process.join(5.0)
            self._dead = True
            return ("error", "ClusterWorkerError", "bench: worker killed")
        return self._inner.recv()

    def set_timeout(self, timeout):
        self._inner.set_timeout(timeout)

    def shutdown(self, timeout=5.0):
        self._dead = True
        self._inner.shutdown(timeout)


class _TapTransport(Transport):
    """Pipe transport wrapper counting every request per (shard, command).

    Respawned endpoints (failover) are wrapped again with the shared
    counters, so the counts span worker generations -- exactly what the
    O(dead-shard) assertion needs.
    """

    def __init__(self, kill_shard=None, kill_step_index=None):
        self._inner = resolve_transport("pipe")
        self.counts: dict = {}
        self._kill_shard = kill_shard
        self._kill_step_index = kill_step_index
        self.name = self._inner.name
        self.requires_wire_ids = self._inner.requires_wire_ids
        self.handshake_timeout = self._inner.handshake_timeout
        self.workers_self_configured = self._inner.workers_self_configured

    def _count(self, shard, command):
        key = (shard, command)
        index = self.counts.get(key, 0)
        self.counts[key] = index + 1
        return (
            command == "step"
            and shard == self._kill_shard
            and index == self._kill_step_index
        )

    def connect(self, shard, engine_factory):
        return _TapEndpoint(self, self._inner.connect(shard, engine_factory))

    def max_shards(self):
        return self._inner.max_shards()


@pytest.fixture(scope="module")
def recovery_workload(study_data):
    rng = np.random.default_rng(20263)
    return build_stream_workload(
        study_data.feature_model, REC_STREAMS, REC_TICKS, rng
    )


def _run_killed(study_data, workload, shard_local):
    factory = _engine_factory(study_data)
    transport = _TapTransport(kill_shard=VICTIM, kill_step_index=KILL_STEP_INDEX)
    with ShardedEngine(factory, REC_SHARDS, transport=transport) as cluster:
        controller = ServingController(
            cluster,
            failover=FailoverPolicy(
                max_failovers=2,
                journal_depth=JOURNAL_DEPTH,
                shard_local=shard_local,
            ),
        )
        results = controller.run(workload.ticks)
        stats = controller.stats
        recovery = [t for t in controller.telemetry if t.failovers]
    assert len(recovery) == 1
    return results, stats, recovery[0], transport.counts


def test_shard_local_recovery_touches_only_the_dead_shard(
    study_data, recovery_workload, write_bench_json, usable_cores
):
    factory = _engine_factory(study_data)
    baseline_engine = factory()
    baseline: dict = {}
    for frames in recovery_workload.ticks:
        for result in baseline_engine.step_batch(frames):
            baseline.setdefault(result.stream_id, []).append(result)

    local_results, local_stats, local_record, counts = _run_killed(
        study_data, recovery_workload, shard_local=True
    )
    full_results, full_stats, full_record, full_counts = _run_killed(
        study_data, recovery_workload, shard_local=False
    )

    # Gate 1: exactness on both recovery paths.
    assert local_results == baseline, "shard-local recovery diverged"
    assert full_results == baseline, "full recovery diverged"
    assert local_stats.failovers == 1 and local_stats.shards_respawned == 1
    assert local_stats.shard_recoveries == 1
    assert full_stats.shard_recoveries == 0

    # Gate 2: O(dead-shard) -- survivors saw exactly one step request
    # per tick and no restore; only the victim was restored and stepped
    # extra times (journal replay + the salvaged tick).
    survivors = [s for s in range(REC_SHARDS) if s != VICTIM]
    for shard in survivors:
        assert counts[(shard, "step")] == REC_TICKS, (
            f"survivor shard {shard} was re-stepped during recovery"
        )
        assert (shard, "restore") not in counts, (
            f"survivor shard {shard} was restored during recovery"
        )
    assert counts[(VICTIM, "restore")] == 1
    assert counts[(VICTIM, "step")] > REC_TICKS
    # The contrast run restored every shard -- that is the O(cluster)
    # cost shard-local recovery removes.
    assert all((s, "restore") in full_counts for s in range(REC_SHARDS))

    write_bench_json(
        "durability_recovery",
        {
            "streams": REC_STREAMS,
            "ticks": REC_TICKS,
            "journal_depth": JOURNAL_DEPTH,
            "kill_step_index": KILL_STEP_INDEX,
            "victim_shard": VICTIM,
            "replay_depth": local_record.replay_depth,
            "shard_local_recovery_seconds": local_record.recovery_seconds,
            "full_recovery_seconds": full_record.recovery_seconds,
            "recovery_speedup": (
                full_record.recovery_seconds / local_record.recovery_seconds
                if local_record.recovery_seconds
                else None
            ),
            "survivor_step_requests": {
                str(s): counts[(s, "step")] for s in survivors
            },
            "victim_step_requests": counts[(VICTIM, "step")],
            "survivors_restored": 0,
            "outputs_identical": local_results == baseline,
        },
        transport="pipe",
        shards=REC_SHARDS,
    )
