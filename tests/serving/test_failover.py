"""Failover tests: worker death mid-run is invisible to the caller.

The tentpole property, proven by deterministic fault injection
(``chaos.py``): for any kill point -- during step, snapshot, or
rebalance traffic, on any transport, at any shard count -- a
failover-enabled controller recovers (respawn + snapshot restore +
journal replay) and the run's final per-stream results are
bitwise-identical to an uninterrupted run, statistics included; only the
``failovers``/``replay_depth``/``recovery_seconds`` telemetry records
the injected faults.  With failover disabled, behavior is exactly the
PR-4 fail-fast contract.  The TCP cells ride loopback ``serve-worker``
processes and are marked ``tcp``/``slow`` (run them with ``-m tcp``).
"""

import numpy as np
import pytest

from chaos import ChaosFault, ChaosTransport
from repro.core.monitor import UncertaintyMonitor
from repro.exceptions import ClusterWorkerError, ValidationError
from repro.serving import (
    FailoverPolicy,
    RegistrySnapshot,
    ServingController,
    ShardedEngine,
    StreamFrame,
    StreamingEngine,
    TcpTransport,
    launch_local_workers,
    stop_local_workers,
)

TCP = pytest.param("tcp", marks=[pytest.mark.tcp, pytest.mark.slow])


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


def tick_frames(series, ids, t, new_series=False):
    return [
        StreamFrame(
            ids[sid],
            series[sid][0][t],
            series[sid][1][t],
            new_series=new_series,
        )
        for sid in range(len(ids))
    ]


def policy(**overrides):
    config = dict(max_failovers=4, journal_depth=16, respawn_backoff=0.0)
    config.update(overrides)
    return FailoverPolicy(**config)


def single_baseline(factory, ticks):
    """Per-stream results and statistics of an uninterrupted run."""
    engine = factory()
    results: dict = {}
    for frames in ticks:
        for result in engine.step_batch(frames):
            results.setdefault(result.stream_id, []).append(result)
    return results, engine.registry.statistics


class _ChaosCluster:
    """A ShardedEngine on a chaos-wrapped transport; TCP gets loopback
    serve-worker processes (serving forever, so reconnects succeed)."""

    def __init__(self, transport_name, factory, n_shards, faults, n_workers=None):
        self.processes = []
        if transport_name == "tcp":
            addresses, self.processes = launch_local_workers(
                factory, n_workers or n_shards
            )
            inner = TcpTransport(addresses, connect_timeout=10.0)
        else:
            inner = transport_name
        self.chaos = ChaosTransport(inner, faults)
        self.cluster = ShardedEngine(factory, n_shards, transport=self.chaos)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.cluster.close()
        stop_local_workers(self.processes)


class TestKillMatrix:
    """Kill during step/snapshot/rebalance x transport x 2/4 shards."""

    @pytest.mark.parametrize("transport", ["pipe", TCP])
    @pytest.mark.parametrize("n_shards", [2, 4])
    @pytest.mark.parametrize("phase", ["step", "snapshot", "rebalance"])
    def test_recovery_is_bitwise_exact(
        self, synthetic_stack, series_maker, tmp_path, transport, n_shards, phase
    ):
        rng = np.random.default_rng(401)
        n_streams, length = 10, 8
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = [
            tick_frames(series, ids, t, new_series=(t == 3)) for t in range(length)
        ]
        expected, expected_stats = single_baseline(factory, ticks)

        victim = 1
        rebalance_at, rebalance_to = 3, (3 if n_shards != 3 else 2)
        if phase == "step":
            # Mid-run tick; the whole fan-out rolls back and retries.
            faults = [ChaosFault(victim, "step", index=4, mode="kill")]
        elif phase == "snapshot":
            # Snapshot request 0 per shard is the controller's initial
            # recovery checkpoint; index 1 is the tick-3 cadence write.
            faults = [ChaosFault(victim, "snapshot", index=1, mode="kill")]
        else:
            # Only rebalance migration sends "ids" probes.
            faults = [ChaosFault(victim, "ids", index=0, mode="kill")]

        snapshot_every = 3 if phase == "snapshot" else 0
        with _ChaosCluster(
            transport, factory, n_shards, faults,
            n_workers=max(n_shards, rebalance_to),
        ) as harness:
            controller = ServingController(
                harness.cluster,
                failover=policy(),
                snapshot_every=snapshot_every,
                snapshot_dir=tmp_path / "snaps" if snapshot_every else None,
            )
            got: dict = {}
            for t, frames in enumerate(ticks):
                if phase == "rebalance" and t == rebalance_at:
                    assert controller.rebalance(rebalance_to)["to"] == rebalance_to
                for result in controller.tick(frames):
                    got.setdefault(result.stream_id, []).append(result)
            stats = harness.cluster.statistics()
            assert not harness.chaos.pending_faults  # the kill really fired
            assert controller.stats.failovers == 1
            assert controller.stats.shards_respawned == 1
            if phase == "rebalance":
                assert controller.n_shards == rebalance_to

        # The caller-visible run is indistinguishable from one where no
        # worker ever died: results, verdicts, and lifecycle statistics.
        assert got == expected
        assert stats == expected_stats
        if phase == "snapshot":
            written = RegistrySnapshot.load(tmp_path / "snaps" / "base_000003")
            assert written.tick == 3
            assert written.n_streams == n_streams

    def test_failover_telemetry_reports_the_recovery(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(403)
        series = series_maker(rng, n_series=6, length=6)
        ids = [f"s{sid}" for sid in range(6)]
        factory = make_factory(synthetic_stack)
        ticks = [tick_frames(series, ids, t) for t in range(6)]
        faults = [ChaosFault(0, "step", index=3, mode="kill")]
        with _ChaosCluster("inproc", factory, 2, faults) as harness:
            controller = ServingController(harness.cluster, failover=policy())
            controller.run(ticks)
        records = [t for t in controller.telemetry if t.failovers]
        assert len(records) == 1
        assert records[0].tick == 4  # the recovered tick completed
        assert records[0].replay_depth == 3  # ticks 0-2 were replayed
        assert records[0].recovery_seconds > 0.0
        assert controller.stats.replayed_ticks == 3
        assert controller.stats.recovery_seconds > 0.0


class TestFaultModes:
    def test_hang_terminates_the_wedged_worker_and_recovers(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(405)
        series = series_maker(rng, n_series=8, length=6)
        ids = [f"s{sid}" for sid in range(8)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = [tick_frames(series, ids, t) for t in range(6)]
        expected, _ = single_baseline(factory, ticks)

        faults = [ChaosFault(1, "step", index=2, mode="hang")]
        with _ChaosCluster("pipe", factory, 2, faults) as harness:
            wedged = harness.cluster._workers[1]._inner.process
            controller = ServingController(harness.cluster, failover=policy())
            got = controller.run(ticks)
            assert controller.stats.failovers == 1
            # The hung-but-alive child was reaped by the respawn, not
            # leaked: revive's teardown terminates it.
            wedged.join(5.0)
            assert not wedged.is_alive()
        assert got == expected

    @pytest.mark.parametrize("transport", ["inproc", "pipe"])
    def test_garbage_reply_poisons_the_channel_and_recovers(
        self, synthetic_stack, series_maker, transport
    ):
        rng = np.random.default_rng(407)
        series = series_maker(rng, n_series=8, length=6)
        ids = [f"s{sid}" for sid in range(8)]
        factory = make_factory(synthetic_stack)
        ticks = [tick_frames(series, ids, t) for t in range(6)]
        expected, _ = single_baseline(factory, ticks)

        faults = [ChaosFault(0, "step", index=2, mode="garbage", phase="recv")]
        with _ChaosCluster(transport, factory, 2, faults) as harness:
            controller = ServingController(harness.cluster, failover=policy())
            got = controller.run(ticks)
            assert controller.stats.failovers == 1
        assert got == expected

    def test_kill_on_the_reply_path_recovers(
        self, synthetic_stack, series_maker
    ):
        # The worker received and executed the request, then died before
        # (or while) answering -- its partial tick must be rolled back
        # with everyone else's.
        rng = np.random.default_rng(409)
        series = series_maker(rng, n_series=8, length=6)
        ids = [f"s{sid}" for sid in range(8)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = [tick_frames(series, ids, t) for t in range(6)]
        expected, _ = single_baseline(factory, ticks)

        faults = [ChaosFault(1, "step", index=3, mode="kill", phase="recv")]
        with _ChaosCluster("pipe", factory, 2, faults) as harness:
            controller = ServingController(harness.cluster, failover=policy())
            got = controller.run(ticks)
            assert controller.stats.failovers == 1
        assert got == expected


class TestRandomizedKills:
    def test_seeded_kill_sweep_is_exact_and_counted(
        self, synthetic_stack, series_maker
    ):
        """~20 random (kill_tick, shard, mode, phase) faults under one
        seed: every recovery is exact and the failover telemetry matches
        the injected fault count, one for one."""
        rng = np.random.default_rng(20260729)
        n_streams, length, n_shards = 9, 6, 3
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = [
            tick_frames(series, ids, t, new_series=(t == 2))
            for t in range(length)
        ]
        expected, expected_stats = single_baseline(factory, ticks)

        injected = 0
        recovered = 0
        for _ in range(20):
            kill_tick = int(rng.integers(0, length))
            shard = int(rng.integers(0, n_shards))
            mode = ("kill", "hang", "garbage")[int(rng.integers(0, 3))]
            phase = "recv" if mode == "garbage" else ("send", "recv")[
                int(rng.integers(0, 2))
            ]
            faults = [ChaosFault(shard, "step", kill_tick, mode, phase)]
            with _ChaosCluster("inproc", factory, n_shards, faults) as harness:
                controller = ServingController(
                    harness.cluster, failover=policy()
                )
                got = controller.run(ticks)
                stats = harness.cluster.statistics()
                assert not harness.chaos.pending_faults
            injected += 1
            recovered += controller.stats.failovers
            assert controller.stats.failovers == 1, (
                f"fault {mode}/{phase} at tick {kill_tick} on shard {shard} "
                f"took {controller.stats.failovers} recoveries"
            )
            assert got == expected, (
                f"recovered run diverged for {mode}/{phase} at tick "
                f"{kill_tick} on shard {shard}"
            )
            assert stats == expected_stats
        assert recovered == injected == 20

    def test_two_faults_one_run(self, synthetic_stack, series_maker):
        rng = np.random.default_rng(411)
        series = series_maker(rng, n_series=6, length=8)
        ids = [f"s{sid}" for sid in range(6)]
        factory = make_factory(synthetic_stack)
        ticks = [tick_frames(series, ids, t) for t in range(8)]
        expected, _ = single_baseline(factory, ticks)

        # The second index is counted across the replayed requests too:
        # after the first recovery (replaying ticks 0-1 and retrying
        # tick 2), shard 1 has seen step requests 0..4, so index 6 lands
        # on original tick 4.
        faults = [
            ChaosFault(0, "step", index=2, mode="kill"),
            ChaosFault(1, "step", index=6, mode="kill"),
        ]
        with _ChaosCluster("inproc", factory, 2, faults) as harness:
            controller = ServingController(harness.cluster, failover=policy())
            got = controller.run(ticks)
            assert not harness.chaos.pending_faults
            assert controller.stats.failovers == 2
            assert controller.stats.shards_respawned == 2
        assert got == expected

    def test_fault_during_recovery_replay_is_also_recovered(
        self, synthetic_stack, series_maker
    ):
        # A second worker dying DURING a recovery (here: mid journal
        # replay) consumes more budget and is recovered too -- the run
        # still finishes exactly, it is not aborted with budget left.
        rng = np.random.default_rng(429)
        series = series_maker(rng, n_series=6, length=6)
        ids = [f"s{sid}" for sid in range(6)]
        factory = make_factory(synthetic_stack)
        ticks = [tick_frames(series, ids, t) for t in range(6)]
        expected, _ = single_baseline(factory, ticks)

        # Shard 1's step indices: ticks 0,1 = 0,1 (the failed tick 2
        # never reaches it), then the first recovery's replay of ticks
        # 0-1 = indices 2,3 -- so index 3 strikes inside _recover.
        faults = [
            ChaosFault(0, "step", index=2, mode="kill"),
            ChaosFault(1, "step", index=3, mode="kill"),
        ]
        with _ChaosCluster("inproc", factory, 2, faults) as harness:
            controller = ServingController(harness.cluster, failover=policy())
            got = controller.run(ticks)
            assert not harness.chaos.pending_faults
            assert controller.stats.failovers == 2
            assert controller.stats.shards_respawned == 2
        assert got == expected

    def test_death_during_checkpoint_rearm_fails_fast(
        self, synthetic_stack, series_maker
    ):
        # After a bare load_state_dict the checkpoint must be re-armed
        # from the live engine; a worker death during THAT capture has
        # no checkpoint to recover from, so it must fail fast -- never
        # blank-revive the shard and silently lose its streams.
        rng = np.random.default_rng(431)
        series = series_maker(rng, n_series=6, length=4)
        ids = [f"s{sid}" for sid in range(6)]
        factory = make_factory(synthetic_stack)
        # Snapshot index 0 is the constructor's eager checkpoint; index 1
        # is the re-arm triggered by the first tick after the reset.
        faults = [ChaosFault(1, "snapshot", index=1, mode="kill")]
        with _ChaosCluster("inproc", factory, 2, faults) as harness:
            controller = ServingController(harness.cluster, failover=policy())
            controller.tick(tick_frames(series, ids, 0))
            controller.load_state_dict(None)
            with pytest.raises(ClusterWorkerError):
                controller.tick(tick_frames(series, ids, 1))
            assert controller.stats.failovers == 0  # no budget spent
            assert 1 in harness.cluster.dead_shards

    def test_max_failovers_exhaustion_reraises_with_the_shard(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(413)
        series = series_maker(rng, n_series=6, length=6)
        ids = [f"s{sid}" for sid in range(6)]
        factory = make_factory(synthetic_stack)
        ticks = [tick_frames(series, ids, t) for t in range(6)]

        faults = [
            ChaosFault(0, "step", index=1, mode="kill"),
            ChaosFault(1, "step", index=5, mode="kill"),
        ]
        with _ChaosCluster("inproc", factory, 2, faults) as harness:
            controller = ServingController(
                harness.cluster, failover=policy(max_failovers=1)
            )
            with pytest.raises(ClusterWorkerError) as excinfo:
                controller.run(ticks)
            # The budget covered the first fault; the second re-raises
            # fail-fast, naming the shard that died.
            assert controller.stats.failovers == 1
            assert excinfo.value.shard == 1
            assert 1 in harness.cluster.dead_shards


class TestFailoverDisabled:
    @pytest.mark.parametrize("transport", ["inproc", "pipe"])
    def test_worker_death_still_fails_fast(
        self, synthetic_stack, series_maker, transport
    ):
        """Without a FailoverPolicy the PR-4 contract is untouched: the
        tick raises ClusterWorkerError naming the shard, the shard lands
        in dead_shards, and further serving fails fast."""
        rng = np.random.default_rng(415)
        series = series_maker(rng, n_series=6, length=4)
        ids = [f"s{sid}" for sid in range(6)]
        factory = make_factory(synthetic_stack)
        faults = [ChaosFault(1, "step", index=2, mode="kill")]
        with _ChaosCluster(transport, factory, 2, faults) as harness:
            controller = ServingController(harness.cluster)
            for t in range(2):
                controller.tick(tick_frames(series, ids, t))
            with pytest.raises(ClusterWorkerError) as excinfo:
                controller.tick(tick_frames(series, ids, 2))
            assert excinfo.value.shard == 1
            assert harness.cluster.dead_shards == [1]
            with pytest.raises(ClusterWorkerError, match="died"):
                controller.tick(tick_frames(series, ids, 3))

    def test_policy_requires_a_revivable_engine(self, synthetic_stack):
        with pytest.raises(ValidationError, match="revive_shard"):
            ServingController(
                make_factory(synthetic_stack)(), failover=policy()
            )

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            FailoverPolicy(max_failovers=0)
        with pytest.raises(ValidationError):
            FailoverPolicy(journal_depth=0)
        with pytest.raises(ValidationError):
            FailoverPolicy(respawn_backoff=-1.0)


class TestJournal:
    def test_replay_depth_is_bounded_by_journal_depth(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(417)
        series = series_maker(rng, n_series=6, length=6)
        ids = [f"s{sid}" for sid in range(6)]
        factory = make_factory(synthetic_stack)
        ticks = [tick_frames(series, ids, t) for t in range(6)]
        expected, _ = single_baseline(factory, ticks)

        # journal_depth=2: checkpoints advance after ticks 1 and 3, so a
        # kill at tick 5 replays exactly one tick (tick 4).
        faults = [ChaosFault(0, "step", index=5, mode="kill")]
        with _ChaosCluster("inproc", factory, 2, faults) as harness:
            controller = ServingController(
                harness.cluster, failover=policy(journal_depth=2)
            )
            got = controller.run(ticks)
            assert controller.stats.failovers == 1
            assert controller.stats.replayed_ticks == 1
        assert got == expected

    def test_journal_rides_in_snapshots_and_restore_rebases(
        self, synthetic_stack, series_maker, tmp_path
    ):
        import json

        rng = np.random.default_rng(419)
        n_streams, length = 6, 8
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = [tick_frames(series, ids, t) for t in range(length)]
        expected, _ = single_baseline(factory, ticks)

        # Run half the schedule with a large journal_depth and snapshot
        # by hand mid-window: the sidecar must carry the journal.
        cut = 3
        with ShardedEngine(factory, 2, transport="inproc") as cluster:
            controller = ServingController(cluster, failover=policy())
            for t in range(cut):
                controller.tick(ticks[t])
            snapshot = controller.snapshot()
            assert snapshot.controller["failover"] is not None
            # snapshot() itself checkpoints, so the serialized journal
            # is the window since the initial checkpoint: ticks 0..2.
            assert len(snapshot.controller["failover"]["journal"]) == cut
            snapshot.save(tmp_path / "mid")
        sidecar = json.loads((tmp_path / "mid.json").read_text())
        journal = sidecar["controller"]["failover"]["journal"]
        assert [len(batch) for batch in journal] == [n_streams] * cut

        # Restore into a fresh chaos cluster and kill a worker two ticks
        # later: recovery must use the REBASED checkpoint (the restored
        # state), replaying only post-restore ticks -- and stay exact.
        loaded = RegistrySnapshot.load(tmp_path / "mid")
        # Fresh cluster, fresh request counters: step index 1 is the
        # second post-restore tick (original tick 4).
        faults = [ChaosFault(1, "step", index=1, mode="kill")]
        with _ChaosCluster("inproc", factory, 2, faults) as harness:
            controller = ServingController(harness.cluster, failover=policy())
            controller.restore(loaded)
            got: dict = {}
            for t in range(cut, length):
                for result in controller.tick(ticks[t]):
                    got.setdefault(result.stream_id, []).append(result)
            assert controller.stats.failovers == 1
            assert controller.stats.replayed_ticks == 1  # tick 3 only
        tail = {sid: results[cut:] for sid, results in expected.items()}
        assert got == tail

    def test_admission_controlled_run_recovers_exactly(
        self, synthetic_stack, series_maker
    ):
        # The journal replays the ADMITTED batches, so recovery composes
        # with QoS admission: the recovered run equals a fault-free
        # admission-controlled run -- deferral schedule, backlog, and
        # results alike (a static frame budget keeps both deterministic).
        from repro.serving import AdmissionPolicy

        rng = np.random.default_rng(427)
        n_streams, length = 6, 6
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack)
        ticks = [tick_frames(series, ids, t) for t in range(length)]
        admission = AdmissionPolicy(max_frames_per_tick=4)

        with ShardedEngine(factory, 2, transport="inproc") as cluster:
            reference = ServingController(cluster, admission=admission)
            expected = reference.run(ticks)
            expected_backlog = reference.backlog

        faults = [ChaosFault(1, "step", index=3, mode="kill")]
        with _ChaosCluster("inproc", factory, 2, faults) as harness:
            controller = ServingController(
                harness.cluster, admission=admission, failover=policy()
            )
            got = controller.run(ticks)
            assert controller.stats.failovers == 1
            assert controller.backlog == expected_backlog
        assert got == expected

    def test_ttl_evictions_survive_recovery_exactly(
        self, synthetic_stack, series_maker
    ):
        # Streams that go quiet are evicted on the same tick as in an
        # uninterrupted run even when the eviction window spans a
        # recovery (restore preserves TTL clocks; replay re-ages them).
        rng = np.random.default_rng(421)
        n_streams, length = 6, 8
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, idle_ttl=2)

        def frames_at(t):
            live = range(3) if t >= 3 else range(n_streams)
            return [
                StreamFrame(ids[sid], series[sid][0][t], series[sid][1][t])
                for sid in live
            ]

        ticks = [frames_at(t) for t in range(length)]
        expected, expected_stats = single_baseline(factory, ticks)
        faults = [ChaosFault(0, "step", index=4, mode="kill")]
        with _ChaosCluster("inproc", factory, 2, faults) as harness:
            controller = ServingController(harness.cluster, failover=policy())
            got = controller.run(ticks)
            stats = harness.cluster.statistics()
            assert controller.stats.failovers == 1
        assert got == expected
        assert stats == expected_stats
        assert stats.evicted == 3


class TestReviveShard:
    def test_revive_without_snapshot_gives_an_empty_worker(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(423)
        series = series_maker(rng, n_series=8, length=4)
        ids = [f"s{sid}" for sid in range(8)]
        factory = make_factory(synthetic_stack)
        with ShardedEngine(factory, 2, transport="pipe") as cluster:
            for t in range(2):
                cluster.step_batch(tick_frames(series, ids, t))
            cluster._workers[1].process.kill()
            cluster._workers[1].process.join(5.0)
            with pytest.raises(ClusterWorkerError):
                cluster.step_batch(tick_frames(series, ids, 2))
            assert cluster.dead_shards == [1]

            cluster.revive_shard(1)
            assert cluster.dead_shards == []
            stats = cluster._workers[1].request("stats")
            assert stats["n_streams"] == 0  # fresh registry
            assert stats["tick"] == cluster.tick  # joined at cluster time

    def test_revive_with_snapshot_restores_the_shard_subset(
        self, synthetic_stack, series_maker
    ):
        # Shard-local restore: snapshot right before the kill, revive
        # with it, and the run continues bitwise-identically (results;
        # cluster-wide statistics are exactly what the controller's
        # whole-cluster recovery exists to additionally preserve).
        rng = np.random.default_rng(425)
        n_streams, length = 10, 6
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())

        single = factory()
        expected = [
            single.step_batch(tick_frames(series, ids, t)) for t in range(length)
        ]
        with ShardedEngine(factory, 2, transport="pipe") as cluster:
            got = [
                cluster.step_batch(tick_frames(series, ids, t)) for t in range(3)
            ]
            snapshot = cluster.snapshot()
            # Kill between ticks: the survivors are still aligned with
            # the snapshot, so a shard-local restore needs no replay.
            # (After a *failed tick* the survivors have already stepped
            # it, which only the controller's whole-cluster rollback can
            # rewind -- the revive_shard docstring's replay contract.)
            cluster._workers[1].process.kill()
            cluster._workers[1].process.join(5.0)
            cluster.revive_shard(1, snapshot)
            revived_ids = set(cluster._workers[1].request("ids"))
            assert revived_ids == {
                sid for sid in ids if cluster.shard_for(sid) == 1
            }
            got += [
                cluster.step_batch(tick_frames(series, ids, t))
                for t in range(3, length)
            ]
        assert got == expected

    def test_revive_rejects_unknown_shards(self, synthetic_stack):
        factory = make_factory(synthetic_stack)
        with ShardedEngine(factory, 2, transport="inproc") as cluster:
            with pytest.raises(ValidationError, match="not a current worker"):
                cluster.revive_shard(5)
