"""Tests for the control plane (ServingController + policies).

The load-bearing invariant: a controller with both policies disabled is
bitwise-identical to driving the engine's ``step_batch`` by hand --
results, verdicts, TTL evictions, statistics, and snapshot cadence --
for the single-process engine and for sharded clusters.  On top of that:
deterministic admission (priority-then-arrival order, bounded per-stream
FIFO deferral, loud overflow), latency-driven autoscaling with
hysteresis against a scripted clock, controller state riding inside
registry snapshots (restore-then-step reproduces a controlled run,
mid-autoscale included), and the lifecycle guarantees the CLI paths rely
on (context manager reaps workers on mid-run exceptions; double-close is
idempotent all the way down).
"""

import numpy as np
import pytest

from repro.core.monitor import UncertaintyMonitor
from repro.exceptions import ValidationError
from repro.serving import (
    AdmissionPolicy,
    AutoscalePolicy,
    RegistrySnapshot,
    ServingController,
    ShardedEngine,
    StreamFrame,
    StreamingEngine,
    load_snapshot,
)


def make_factory(synthetic_stack, **kwargs):
    ddm, stateless, ta_qim, layout, fusion = synthetic_stack

    def factory():
        return StreamingEngine(
            ddm=ddm,
            stateless_qim=stateless,
            timeseries_qim=ta_qim,
            layout=layout,
            information_fusion=fusion,
            **kwargs,
        )

    return factory


def monitored_kwargs():
    return dict(
        max_buffer_length=4,
        monitor_factory=lambda: UncertaintyMonitor(
            threshold=0.35, reentry_threshold=0.25, risk_budget=3.0
        ),
        idle_ttl=3,
    )


def tick_frames(series, ids, t, priorities=None, new_series=False):
    return [
        StreamFrame(
            ids[sid],
            series[sid][0][t],
            series[sid][1][t],
            new_series=new_series,
            priority=priorities[sid] if priorities else 0,
        )
        for sid in range(len(ids))
    ]


class FakeClock:
    """Scripted latency source: each tick consumes one latency value."""

    def __init__(self, latencies):
        self._latencies = list(latencies)
        self._now = 0.0
        self._pending = None

    def __call__(self) -> float:
        if self._pending is None:
            self._pending = self._latencies.pop(0) if self._latencies else 0.0
            return self._now
        self._now += self._pending
        self._pending = None
        return self._now


class TestDisabledPoliciesAreTransparent:
    def test_single_engine_bitwise_identical(self, synthetic_stack, series_maker):
        rng = np.random.default_rng(301)
        n_streams, length = 12, 8
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())

        plain = factory()
        expected = {}
        for t in range(length):
            for result in plain.step_batch(tick_frames(series, ids, t)):
                expected.setdefault(result.stream_id, []).append(result)

        controlled = factory()
        with ServingController(controlled) as controller:
            got = controller.run(
                [tick_frames(series, ids, t) for t in range(length)]
            )
        assert got == expected
        assert controlled.tick == plain.tick
        assert (
            controlled.registry.statistics.evicted
            == plain.registry.statistics.evicted
        )
        assert controller.stats.frames_admitted == n_streams * length

    @pytest.mark.parametrize("transport", ["inproc", "pipe"])
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_cluster_bitwise_identical(
        self, synthetic_stack, series_maker, transport, n_shards
    ):
        rng = np.random.default_rng(303)
        n_streams, length = 10, 6
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = [tick_frames(series, ids, t) for t in range(length)]

        single = factory()
        expected = {}
        for frames in ticks:
            for result in single.step_batch(frames):
                expected.setdefault(result.stream_id, []).append(result)

        with ShardedEngine(factory, n_shards, transport=transport) as cluster:
            with ServingController(cluster) as controller:
                assert controller.run(ticks) == expected

    def test_snapshot_cadence_matches_hand_rolled_loop(
        self, synthetic_stack, series_maker, tmp_path
    ):
        rng = np.random.default_rng(305)
        series = series_maker(rng, n_series=4, length=6)
        ids = [f"s{i}" for i in range(4)]
        factory = make_factory(synthetic_stack)
        with ServingController(
            factory(),
            snapshot_every=2,
            snapshot_dir=tmp_path / "snaps",
        ) as controller:
            controller.run([tick_frames(series, ids, t) for t in range(6)])
        # snapshot_deltas=0: every cadence commits a full base.
        assert [s.rsplit("/", 1)[-1] for s in controller.snapshots_written] == [
            "base_000002",
            "base_000004",
            "base_000006",
        ]
        loaded = RegistrySnapshot.load(tmp_path / "snaps" / "base_000004")
        assert loaded.tick == 4
        assert loaded.controller is not None  # controller state rides along
        assert load_snapshot(tmp_path / "snaps").tick == 6


class TestAdmission:
    def test_priority_then_arrival_order_and_deferral(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(307)
        n_streams, length = 6, 5
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{i}" for i in range(n_streams)]
        priorities = [i % 2 for i in range(n_streams)]  # 0,1,0,1,0,1
        factory = make_factory(synthetic_stack)

        baseline = {}
        single = factory()
        for t in range(length):
            for result in single.step_batch(tick_frames(series, ids, t)):
                baseline.setdefault(result.stream_id, []).append(
                    result.outcome
                )

        controller = ServingController(
            factory(),
            admission=AdmissionPolicy(
                max_frames_per_tick=3, max_deferred_per_stream=16
            ),
        )
        results = controller.run(
            [
                tick_frames(series, ids, t, priorities=priorities)
                for t in range(length)
            ]
        )
        # Priority 0 streams (even ids) are admitted every tick; priority
        # 1 streams only ever ride the deferred queues.
        for sid in range(n_streams):
            got = [r.outcome for r in results.get(ids[sid], [])]
            assert got == baseline[ids[sid]][: len(got)]
            if priorities[sid] == 0:
                assert len(got) == length
            else:
                assert len(got) < length
        stats = controller.stats
        assert stats.deferred_by_priority.get(0, 0) == 0
        assert stats.deferred_by_priority.get(1, 0) > 0
        assert stats.admission_overflow == 0
        assert controller.backlog > 0

    def test_deferred_frames_resume_in_fifo_order(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(309)
        series = series_maker(rng, n_series=2, length=4)
        ids = ["a", "b"]
        factory = make_factory(synthetic_stack)

        baseline = {}
        single = factory()
        for t in range(4):
            for result in single.step_batch(tick_frames(series, ids, t)):
                baseline.setdefault(result.stream_id, []).append(
                    result.outcome
                )

        controller = ServingController(
            factory(),
            admission=AdmissionPolicy(max_frames_per_tick=1),
        )
        ticks = [tick_frames(series, ids, t) for t in range(4)]
        results = controller.run(ticks)
        # Empty ticks drain the backlog one frame at a time, in order.
        while controller.backlog:
            for result in controller.tick([]):
                results.setdefault(result.stream_id, []).append(result)
        drained = {
            sid: [r.outcome for r in rs] for sid, rs in results.items()
        }
        assert drained == baseline  # every frame served, exactly once, in order

    def test_bounded_queue_drops_loudly(self, synthetic_stack, series_maker):
        rng = np.random.default_rng(311)
        series = series_maker(rng, n_series=2, length=6)
        ids = ["a", "b"]
        controller = ServingController(
            make_factory(synthetic_stack)(),
            admission=AdmissionPolicy(
                max_frames_per_tick=1, max_deferred_per_stream=2
            ),
        )
        controller.run([tick_frames(series, ids, t) for t in range(6)])
        stats = controller.stats
        assert stats.admission_overflow > 0
        assert max(len(q) for q in controller._queues.values()) <= 2
        assert (
            stats.frames_submitted
            == stats.frames_admitted
            + controller.backlog
            + stats.admission_overflow
        )

    def test_duplicate_stream_rejected_without_state_change(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(313)
        (X, q, _), = series_maker(rng, n_series=1, length=2)
        engine = make_factory(synthetic_stack)()
        controller = ServingController(
            engine, admission=AdmissionPolicy(max_frames_per_tick=1)
        )
        with pytest.raises(ValidationError, match="duplicate"):
            controller.tick(
                [StreamFrame("s", X[0], q[0]), StreamFrame("s", X[1], q[1])]
            )
        assert engine.tick == 0
        assert controller.backlog == 0
        assert controller.stats.ticks == 0

    def test_rejected_tick_rolls_back_queues(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(315)
        series = series_maker(rng, n_series=2, length=2)
        ids = ["a", "b"]
        engine = make_factory(synthetic_stack)()
        controller = ServingController(
            engine, admission=AdmissionPolicy(max_frames_per_tick=1)
        )
        frames = tick_frames(series, ids, 0)
        bad = frames[:1] + [StreamFrame("b", series[1][0][0], np.zeros(3))]
        seq_before = controller._seq
        with pytest.raises(ValidationError):
            controller.tick(bad)
        # The rejected tick staged a deferral for "b"; it must be gone,
        # and the arrival sequence counter must match a run where the
        # tick never happened (snapshots would otherwise diverge).
        assert controller.backlog == 0
        assert controller._seq == seq_before
        assert engine.tick == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            AdmissionPolicy()  # needs at least one bound
        with pytest.raises(ValidationError):
            AdmissionPolicy(max_frames_per_tick=0)
        with pytest.raises(ValidationError):
            AdmissionPolicy(latency_budget=0.0)
        with pytest.raises(ValidationError):
            AdmissionPolicy(max_frames_per_tick=1, max_deferred_per_stream=0)


class TestAutoscale:
    def _policy(self, **overrides):
        config = dict(
            latency_budget=0.010,
            min_shards=1,
            max_shards=4,
            ewma_alpha=1.0,  # raw latest latency: scripted exactly
            grow_after=2,
            shrink_after=2,
            shrink_fraction=0.5,
            cooldown_ticks=0,
        )
        config.update(overrides)
        return AutoscalePolicy(**config)

    def test_requires_rebalance(self, synthetic_stack):
        with pytest.raises(ValidationError, match="rebalance"):
            ServingController(
                make_factory(synthetic_stack)(), autoscale=self._policy()
            )

    def test_ramp_1_4_1_matches_uncontrolled_run(
        self, synthetic_stack, series_maker
    ):
        """The CI controller-smoke property: a load ramp drives the shard
        count 1 -> 4 -> 1 and every admitted frame's result is bitwise
        identical to an uncontrolled (fixed-topology) run."""
        rng = np.random.default_rng(317)
        n_streams, length = 12, 22
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{i}" for i in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = [tick_frames(series, ids, t) for t in range(length)]

        single = factory()
        expected = {}
        for frames in ticks:
            for result in single.step_batch(frames):
                expected.setdefault(result.stream_id, []).append(result)

        # 12 over-budget ticks (grow at every 2nd): 1 -> 4 by tick 6,
        # then idle ticks shrink back 4 -> 1.
        clock = FakeClock([0.050] * 12 + [0.001] * 10)
        with ShardedEngine(factory, 1, transport="inproc") as cluster:
            controller = ServingController(
                cluster, autoscale=self._policy(), clock=clock
            )
            shard_history = []
            got = {}
            for frames in ticks:
                for result in controller.tick(frames):
                    got.setdefault(result.stream_id, []).append(result)
                shard_history.append(controller.n_shards)
            assert got == expected  # scheduling changed, results did not
        assert max(shard_history) == 4
        assert shard_history[-1] == 1
        assert controller.stats.rebalances == 6  # 3 grows + 3 shrinks

    def test_hysteresis_band_prevents_oscillation(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(319)
        series = series_maker(rng, n_series=4, length=10)
        ids = [f"s{i}" for i in range(4)]
        factory = make_factory(synthetic_stack)
        # Latencies inside the band (between 50% and 100% of budget):
        # neither streak ever builds, so no rebalance fires.
        clock = FakeClock([0.007] * 10)
        with ShardedEngine(factory, 2, transport="inproc") as cluster:
            controller = ServingController(
                cluster, autoscale=self._policy(), clock=clock
            )
            controller.run([tick_frames(series, ids, t) for t in range(10)])
            assert controller.stats.rebalances == 0
            assert controller.n_shards == 2

    def test_cooldown_spaces_actions(self, synthetic_stack, series_maker):
        rng = np.random.default_rng(321)
        series = series_maker(rng, n_series=4, length=8)
        ids = [f"s{i}" for i in range(4)]
        factory = make_factory(synthetic_stack)
        clock = FakeClock([0.050] * 8)
        with ShardedEngine(factory, 1, transport="inproc") as cluster:
            controller = ServingController(
                cluster,
                autoscale=self._policy(cooldown_ticks=3),
                clock=clock,
            )
            controller.run([tick_frames(series, ids, t) for t in range(8)])
            # grow at tick 2, cooldown 3 ticks (3,4,5), grow again at 6.
            assert controller.stats.rebalances == 2
            assert controller.n_shards == 3

    def test_clamped_to_min_max(self, synthetic_stack, series_maker):
        rng = np.random.default_rng(323)
        series = series_maker(rng, n_series=4, length=6)
        ids = [f"s{i}" for i in range(4)]
        factory = make_factory(synthetic_stack)
        clock = FakeClock([0.050] * 6)
        with ShardedEngine(factory, 2, transport="inproc") as cluster:
            controller = ServingController(
                cluster,
                autoscale=self._policy(max_shards=2),
                clock=clock,
            )
            controller.run([tick_frames(series, ids, t) for t in range(6)])
            assert controller.stats.rebalances == 0
            assert controller.n_shards == 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            AutoscalePolicy(latency_budget=0.0)
        with pytest.raises(ValidationError):
            AutoscalePolicy(latency_budget=0.01, min_shards=0)
        with pytest.raises(ValidationError):
            AutoscalePolicy(latency_budget=0.01, min_shards=3, max_shards=2)
        with pytest.raises(ValidationError):
            AutoscalePolicy(latency_budget=0.01, shrink_fraction=1.0)


class TestSnapshotRestore:
    def test_mid_autoscale_snapshot_restores_identical_continuation(
        self, synthetic_stack, series_maker, tmp_path
    ):
        rng = np.random.default_rng(325)
        n_streams, length = 8, 16
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{i}" for i in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = [tick_frames(series, ids, t) for t in range(length)]
        policy = AutoscalePolicy(
            latency_budget=0.010,
            min_shards=1,
            max_shards=4,
            ewma_alpha=1.0,
            grow_after=2,
            shrink_after=2,
            cooldown_ticks=0,
        )
        latencies = [0.050] * 8 + [0.001] * 8
        admission = AdmissionPolicy(max_frames_per_tick=6)

        # Uninterrupted controlled run.
        clock = FakeClock(list(latencies))
        with ShardedEngine(factory, 1, transport="inproc") as cluster:
            controller = ServingController(
                cluster, autoscale=policy, admission=admission, clock=clock
            )
            baseline = {}
            cut = 5  # mid-ramp: shard count is 3 and queues are non-empty
            for t in range(cut):
                for r in controller.tick(ticks[t]):
                    baseline.setdefault(r.stream_id, []).append(r)
            assert controller.n_shards == 3
            backlog_at_cut = controller.backlog
            assert backlog_at_cut > 0
            controller.snapshot().save(tmp_path / "mid")
            tail = {}
            for t in range(cut, length):
                for r in controller.tick(ticks[t]):
                    tail.setdefault(r.stream_id, []).append(r)

        # Restore into a FRESH cluster (different initial topology) and
        # replay the same scripted latencies from the cut.
        loaded = RegistrySnapshot.load(tmp_path / "mid")
        assert loaded.controller is not None
        clock2 = FakeClock(list(latencies[cut:]))
        with ShardedEngine(factory, 1, transport="inproc") as cluster2:
            controller2 = ServingController(
                cluster2, autoscale=policy, admission=admission, clock=clock2
            )
            controller2.restore(loaded)
            assert controller2.n_shards == 3  # topology restored too
            assert controller2.backlog == backlog_at_cut
            resumed = {}
            for t in range(cut, length):
                for r in controller2.tick(ticks[t]):
                    resumed.setdefault(r.stream_id, []).append(r)
        assert resumed == tail

    def test_deferred_frames_survive_save_load_bitwise(
        self, synthetic_stack, series_maker, tmp_path
    ):
        rng = np.random.default_rng(327)
        series = series_maker(rng, n_series=4, length=4)
        ids = [f"s{i}" for i in range(4)]
        factory = make_factory(synthetic_stack)
        admission = AdmissionPolicy(max_frames_per_tick=2)

        engine = factory()
        controller = ServingController(engine, admission=admission)
        controller.tick(tick_frames(series, ids, 0))
        assert controller.backlog == 2
        controller.snapshot().save(tmp_path / "deferred")

        # Drain the original: the baseline continuation.
        baseline = [controller.tick([]) for _ in range(2)]

        loaded = RegistrySnapshot.load(tmp_path / "deferred")
        engine2 = factory()
        controller2 = ServingController(engine2, admission=admission)
        controller2.restore(loaded)
        assert controller2.backlog == 2
        resumed = [controller2.tick([]) for _ in range(2)]
        assert resumed == baseline

    def test_restore_with_backlog_requires_admission_policy(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(331)
        series = series_maker(rng, n_series=4, length=2)
        ids = [f"s{i}" for i in range(4)]
        factory = make_factory(synthetic_stack)
        controller = ServingController(
            factory(), admission=AdmissionPolicy(max_frames_per_tick=2)
        )
        controller.tick(tick_frames(series, ids, 0))
        snap = controller.snapshot()
        assert controller.backlog == 2

        # A policy-free controller can never drain those queues; adopting
        # them silently would lose the frames -- it must refuse loudly,
        # leaving the target engine untouched.
        engine = factory()
        bare = ServingController(engine)
        with pytest.raises(ValidationError, match="AdmissionPolicy"):
            bare.restore(snap)
        assert engine.n_streams == 0  # refused before any state change
        assert engine.tick == 0

    def test_snapshot_without_controller_state_cold_starts(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(329)
        series = series_maker(rng, n_series=2, length=2)
        ids = ["a", "b"]
        factory = make_factory(synthetic_stack)
        engine = factory()
        engine.step_batch(tick_frames(series, ids, 0))
        snap = engine.snapshot()  # engine-level: no controller state
        assert snap.controller is None

        controller = ServingController(
            factory(), admission=AdmissionPolicy(max_frames_per_tick=1)
        )
        controller.restore(snap)
        assert controller.backlog == 0
        assert controller.latency_ewma is None


class TestLifecycle:
    def test_context_manager_reaps_workers_on_exception(self, synthetic_stack):
        factory = make_factory(synthetic_stack)
        cluster = ShardedEngine(factory, 2)  # pipe workers
        processes = [w.process for w in cluster._workers]
        with pytest.raises(RuntimeError, match="boom"):
            with ServingController(cluster, owns_engine=True):
                raise RuntimeError("boom")
        for process in processes:
            process.join(timeout=10)
            assert not process.is_alive()
        assert cluster._closed

    def test_double_close_is_idempotent_all_the_way_down(
        self, synthetic_stack
    ):
        factory = make_factory(synthetic_stack)
        cluster = ShardedEngine(factory, 2)
        endpoints = list(cluster._workers)
        controller = ServingController(cluster, owns_engine=True)
        controller.close()
        controller.close()
        cluster.close()  # already closed by the controller
        for endpoint in endpoints:
            endpoint.shutdown()  # third teardown path: still a no-op
            assert not endpoint.alive

    def test_unowned_engine_stays_open(self, synthetic_stack):
        factory = make_factory(synthetic_stack)
        with ShardedEngine(factory, 1, transport="inproc") as cluster:
            with ServingController(cluster):
                pass
            assert not cluster._closed  # caller owns the lifecycle
            cluster.step_batch([])

    def test_snapshot_every_requires_dir(self, synthetic_stack):
        with pytest.raises(ValidationError, match="snapshot_dir"):
            ServingController(
                make_factory(synthetic_stack)(), snapshot_every=2
            )
