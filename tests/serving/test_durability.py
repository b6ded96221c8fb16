"""Durability tests: atomic snapshots, incremental chains, O(dead-shard) recovery.

Three contracts under test, all variations of "the durable path must be
invisible":

* **Crash safety** -- snapshot files commit atomically (tmp + rename,
  npz before sidecar) and every component carries a content digest, so
  whatever instant a writer dies at, ``load`` either returns a complete
  earlier snapshot bitwise or refuses loudly -- never a silently
  mismatched sidecar/arrays pair.  The store's ``manifest.json`` extends
  the same property to base + delta chains: a crash mid-commit loses at
  most the newest generation.

* **Equivalence** -- in every snapshot mode, with or without deltas, on
  a single engine or a cluster, the store restores at every cadence
  bitwise-identical to an uncontrolled reference engine's snapshot --
  also after a failed or refused write.

* **O(dead-shard) recovery** -- with per-shard checkpoints, a lone
  worker death is repaired by restoring and replaying *only* the dead
  shard (survivors receive no restore and no replayed steps -- proven by
  counting their wire requests), and the completed run is still
  bitwise-identical to an uninterrupted one.  Pipelined windows,
  send-phase losses, and ``shard_local=False`` fall back to the
  whole-cluster path, equally exact.
"""

import threading

import numpy as np
import pytest

from chaos import ChaosFault, ChaosTransport
from repro.core.monitor import UncertaintyMonitor
from repro.exceptions import ValidationError
from repro.serving import (
    DeltaSnapshot,
    FailoverPolicy,
    RegistrySnapshot,
    ServingController,
    ShardedEngine,
    SnapshotStore,
    SnapshotWriter,
    StreamFrame,
    StreamingEngine,
    StreamRegistry,
    compose_snapshot,
    load_snapshot,
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


def tick_frames(series, ids, t, new_series=False, only=None):
    return [
        StreamFrame(
            ids[sid],
            series[sid][0][t],
            series[sid][1][t],
            new_series=new_series,
        )
        for sid in range(len(ids))
        if only is None or sid in only
    ]


def churn_ticks(series_maker, seed=811, length=8, n_streams=6):
    """Frames with churn a delta chain must capture exactly: streams
    s0/s1 go idle after tick 2 (TTL-evicted mid-chain at tick 6), every
    stream starts a new series at tick 3, and stream "late" is born at
    tick 5, after the first base snapshot."""
    rng = np.random.default_rng(seed)
    series = series_maker(rng, n_series=n_streams + 1, length=length)
    ids = [f"s{sid}" for sid in range(n_streams)]
    ticks = []
    for t in range(length):
        only = set(range(n_streams)) - ({0, 1} if t >= 3 else set())
        frames = tick_frames(series, ids, t, new_series=(t == 3), only=only)
        if t >= 5:
            frames.append(
                StreamFrame(
                    "late", series[n_streams][0][t], series[n_streams][1][t]
                )
            )
        ticks.append(frames)
    return ticks


def policy(**overrides):
    config = dict(max_failovers=4, journal_depth=16, respawn_backoff=0.0)
    config.update(overrides)
    return FailoverPolicy(**config)


def single_baseline(factory, ticks):
    engine = factory()
    results: dict = {}
    for frames in ticks:
        for result in engine.step_batch(frames):
            results.setdefault(result.stream_id, []).append(result)
    return results, engine.registry.statistics


def populated_registry(n=3) -> StreamRegistry:
    registry = StreamRegistry(max_buffer_length=5, idle_ttl=7)
    for tick in range(n):
        state = registry.get_or_create(f"obj-{tick}", tick=tick)
        for step in range(tick + 2):
            state.buffer.append(step % 2, 0.1 * (step + 1))
            state.step_count += 1
    return registry


def assert_snapshots_identical(
    a: RegistrySnapshot, b: RegistrySnapshot, strip_controller=False
):
    """Bitwise equality through the canonical wire split.

    ``strip_controller`` compares only the registry payload: controller
    state embeds wall-clock telemetry (``latency_ewma``) that two
    equally-correct runs never share bit for bit.
    """
    meta_a, arrays_a = a.to_wire()
    meta_b, arrays_b = b.to_wire()
    if strip_controller:
        meta_a.pop("controller", None)
        meta_b.pop("controller", None)
    assert meta_a == meta_b
    assert sorted(arrays_a) == sorted(arrays_b)
    for name, value in arrays_a.items():
        other = arrays_b[name]
        assert value.dtype == other.dtype
        assert np.array_equal(value, other)


def make_engine(factory, engine_kind):
    """A single engine, or a 2-shard cluster on the named transport."""
    if engine_kind == "single":
        return factory()
    return ShardedEngine(factory, 2, transport=engine_kind)


def in_shard_order(engine, snapshot: RegistrySnapshot) -> RegistrySnapshot:
    """``snapshot``'s streams in the order ``engine`` would lay them out
    (shard by shard on a cluster; unchanged on a single engine)."""
    split = getattr(engine, "split_snapshot", None)
    if split is None:
        return snapshot
    return RegistrySnapshot(
        tick=snapshot.tick,
        max_buffer_length=snapshot.max_buffer_length,
        idle_ttl=snapshot.idle_ttl,
        statistics=snapshot.statistics,
        streams=[stream for part in split(snapshot) for stream in part.streams],
    )


# ----------------------------------------------------------------------
# Atomic, digested snapshot files
# ----------------------------------------------------------------------
class TestAtomicSave:
    def crash_on_suffix(self, monkeypatch, suffix):
        """Make the atomic rename of any ``*suffix`` target crash."""
        import repro.serving.state as state

        real = state.os.replace

        def exploding(src, dst):
            if str(dst).endswith(suffix):
                raise OSError(f"injected crash renaming {dst}")
            return real(src, dst)

        monkeypatch.setattr(state.os, "replace", exploding)

    def test_crash_before_npz_lands_keeps_old_snapshot_bitwise(
        self, tmp_path, monkeypatch
    ):
        registry = populated_registry()
        old = RegistrySnapshot.capture(registry, tick=1)
        old.save(tmp_path / "snap")
        registry.get_or_create("late", tick=2).step_count = 9
        self.crash_on_suffix(monkeypatch, ".npz")
        with pytest.raises(OSError, match="injected"):
            RegistrySnapshot.capture(registry, tick=2).save(tmp_path / "snap")
        # Nothing replaced: the previous snapshot is untouched.
        assert_snapshots_identical(RegistrySnapshot.load(tmp_path / "snap"), old)

    def test_crash_between_npz_and_sidecar_is_refused_on_load(
        self, tmp_path, monkeypatch
    ):
        # The dangerous instant: new arrays landed, old sidecar remains.
        # The digest makes the torn pair loudly unloadable instead of
        # silently restoring old metadata over new arrays.
        registry = populated_registry()
        RegistrySnapshot.capture(registry, tick=1).save(tmp_path / "snap")
        registry.get_or_create("late", tick=2).buffer.append(1, 0.5)
        self.crash_on_suffix(monkeypatch, ".json")
        with pytest.raises(OSError, match="injected"):
            RegistrySnapshot.capture(registry, tick=2).save(tmp_path / "snap")
        with pytest.raises(ValidationError, match="digest"):
            RegistrySnapshot.load(tmp_path / "snap")

    def test_crash_on_fresh_stem_leaves_nothing_loadable(
        self, tmp_path, monkeypatch
    ):
        self.crash_on_suffix(monkeypatch, ".json")
        snapshot = RegistrySnapshot.capture(populated_registry(), tick=1)
        with pytest.raises(OSError, match="injected"):
            snapshot.save(tmp_path / "fresh")
        with pytest.raises(ValidationError, match="not found"):
            RegistrySnapshot.load(tmp_path / "fresh")

    def test_digest_mismatch_names_both_paths(self, tmp_path):
        snapshot = RegistrySnapshot.capture(populated_registry(), tick=3)
        json_path, npz_path = snapshot.save(tmp_path / "snap")
        other = RegistrySnapshot.capture(populated_registry(4), tick=3)
        _, fresh_npz = other.save(tmp_path / "other")
        npz_path.write_bytes(fresh_npz.read_bytes())  # swap the arrays
        with pytest.raises(ValidationError) as excinfo:
            RegistrySnapshot.load(tmp_path / "snap")
        assert str(json_path) in str(excinfo.value)
        assert str(npz_path) in str(excinfo.value)

    def test_legacy_sidecar_without_digest_still_loads(self, tmp_path):
        import json

        snapshot = RegistrySnapshot.capture(populated_registry(), tick=3)
        json_path, _ = snapshot.save(tmp_path / "snap")
        sidecar = json.loads(json_path.read_text())
        del sidecar["digest"]
        json_path.write_text(json.dumps(sidecar))
        assert_snapshots_identical(
            RegistrySnapshot.load(tmp_path / "snap"), snapshot
        )


# ----------------------------------------------------------------------
# Delta snapshots + composition
# ----------------------------------------------------------------------
class TestDeltaSnapshots:
    def run_engine(self, factory, ticks):
        engine = factory()
        for frames in ticks:
            engine.step_batch(frames)
        return engine

    def chain_through(self, factory, ticks):
        """Step all ticks, capturing base@t2 + deltas@t4,t6 on the way."""
        engine = factory()
        base, chain, last = None, [], None
        for t, frames in enumerate(ticks):
            engine.step_batch(frames)
            if t == 2:
                base = engine.snapshot()
                last = base.tick
            elif t in (4, 6):
                chain.append(engine.snapshot_delta(since_tick=last))
                last = chain[-1].tick
        return engine, base, chain

    def test_capture_holds_only_dirty_streams(self, synthetic_stack, series_maker):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        engine = self.run_engine(factory, churn_ticks(series_maker))
        delta = engine.snapshot_delta(since_tick=6)
        dirty = {s.stream_id for s in delta.streams}
        # s0/s1 were evicted at tick 6; everyone else saw tick-7 frames.
        assert dirty == {"s2", "s3", "s4", "s5", "late"}
        assert delta.live_ids == [s.stream_id for s in engine.registry.states]

    def test_compose_is_bitwise_identical_to_full_snapshot(
        self, synthetic_stack, series_maker
    ):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = churn_ticks(series_maker)
        _, base, chain = self.chain_through(factory, ticks)
        composed = compose_snapshot(base, chain)
        # Reference: an uninterrupted engine snapshotted at the same
        # tick -- across the eviction of s0/s1 and the birth of "late".
        reference = factory()
        for frames in ticks[:7]:
            reference.step_batch(frames)
        assert composed.tick == reference.tick == 7
        assert_snapshots_identical(composed, reference.snapshot())

    def test_delta_file_round_trip_is_digest_checked(
        self, synthetic_stack, series_maker, tmp_path
    ):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        engine = self.run_engine(factory, churn_ticks(series_maker))
        delta = engine.snapshot_delta(since_tick=6)
        json_path, npz_path = delta.save(tmp_path / "delta")
        loaded = DeltaSnapshot.load(tmp_path / "delta")
        assert loaded.tick == delta.tick
        assert loaded.base_tick == delta.base_tick
        assert loaded.live_ids == delta.live_ids
        # Pair the sidecar with a *valid* npz of different content: the
        # digest refuses the swap, naming both files.
        other = DeltaSnapshot.capture(
            populated_registry(), tick=delta.tick, since_tick=6
        )
        _, other_npz = other.save(tmp_path / "other")
        npz_path.write_bytes(other_npz.read_bytes())
        with pytest.raises(ValidationError, match="digest") as excinfo:
            DeltaSnapshot.load(tmp_path / "delta")
        assert str(json_path) in str(excinfo.value)
        assert str(npz_path) in str(excinfo.value)

    def test_compose_refuses_a_gap_in_the_chain(
        self, synthetic_stack, series_maker
    ):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = churn_ticks(series_maker)
        _, base, chain = self.chain_through(factory, ticks)
        with pytest.raises(ValidationError, match="contiguous"):
            compose_snapshot(base, [chain[1]])  # skips the tick-5 link


# ----------------------------------------------------------------------
# The background writer
# ----------------------------------------------------------------------
class TestSnapshotWriter:
    def test_full_queue_drops_loudly_and_close_drains(self):
        started = threading.Event()
        gate = threading.Event()
        done = []

        def job_a():
            started.set()
            gate.wait()  # the finally below always opens the gate
            done.append("a")

        writer = SnapshotWriter(capacity=1)
        try:
            assert writer.submit("a", job_a)
            # Once "a" runs it is off the queue (blocked on the gate);
            # then fill the single slot and overflow it.
            assert started.wait(30.0), "the writer never started job a"
            assert writer.submit("b", lambda: done.append("b"))
            assert not writer.submit("c", lambda: done.append("c"))
            assert writer.stats()["dropped"] == 1
        finally:
            gate.set()
            writer.close()
        assert done == ["a", "b"]  # accepted writes all landed, in order
        assert writer.stats()["written"] == 2
        with pytest.raises(ValidationError, match="closed"):
            writer.submit("late", lambda: None)
        writer.close()  # idempotent

    def test_a_failing_write_is_counted_not_fatal(self):
        writer = SnapshotWriter()
        done = []
        try:
            def boom():
                raise RuntimeError("disk on fire")

            writer.submit("bad", boom)
            writer.submit("good", lambda: done.append(1))
            writer.drain()
            stats = writer.stats()
            assert stats["errors"] == 1
            assert stats["written"] == 1
            label, error = writer.last_error
            assert label == "bad"
            assert "disk on fire" in str(error)
        finally:
            writer.close()
        assert done == [1]

    def test_timings_accumulate_and_drain(self):
        writer = SnapshotWriter()
        try:
            writer.submit("a", lambda: None)
            writer.drain()
            timings = writer.drain_timings()
            assert len(timings) == 1 and timings[0] >= 0.0
            assert writer.drain_timings() == []
        finally:
            writer.close()


# ----------------------------------------------------------------------
# The snapshot store (manifest + chains)
# ----------------------------------------------------------------------
class TestSnapshotStore:
    def engine_and_chain(self, synthetic_stack, series_maker, store):
        """Drive an engine, committing base@3 + deltas@5,7 into store.

        Returns ``(factory, ticks, engine)`` so tests can rebuild the
        exact reference state for any prefix of the run.
        """
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        rng = np.random.default_rng(823)
        series = series_maker(rng, n_series=5, length=8)
        ids = [f"s{sid}" for sid in range(5)]
        ticks = [
            tick_frames(series, ids, t, new_series=(t == 3)) for t in range(8)
        ]
        engine = factory()
        last = None
        for t, frames in enumerate(ticks):
            engine.step_batch(frames)
            if t == 2:
                store.commit_base(engine.snapshot())
                last = engine.tick
            elif t in (4, 6):
                store.commit_delta(engine.snapshot_delta(since_tick=last))
                last = engine.tick
        return factory, ticks, engine

    def test_load_composes_the_manifest_chain_bitwise(
        self, synthetic_stack, series_maker, tmp_path
    ):
        store = SnapshotStore(tmp_path)
        factory, ticks, _ = self.engine_and_chain(
            synthetic_stack, series_maker, store
        )
        loaded = SnapshotStore.load(tmp_path)
        assert loaded.tick == 7  # the tick-6 workload step is engine tick 7
        reference = factory()
        for frames in ticks[:7]:
            reference.step_batch(frames)
        assert_snapshots_identical(loaded, reference.snapshot())
        # And the composed restore is adoptable state, not just bytes.
        target = StreamRegistry()
        loaded.restore_into(target)
        assert_snapshots_identical(
            loaded, RegistrySnapshot.capture(target, tick=loaded.tick)
        )

    def test_crash_mid_commit_loses_only_the_new_generation(
        self, synthetic_stack, series_maker, tmp_path, monkeypatch
    ):
        import repro.serving.state as state

        store = SnapshotStore(tmp_path)
        _, _, engine = self.engine_and_chain(
            synthetic_stack, series_maker, store
        )
        before = SnapshotStore.load(tmp_path)

        real = state._atomic_write
        crash_on = {"calls": 0, "at": 1}

        def crashing(path, write):
            crash_on["calls"] += 1
            if crash_on["calls"] >= crash_on["at"]:
                raise OSError("injected crash mid-commit")
            return real(path, write)

        # Crash writing the component npz: nothing of the new delta
        # exists; the manifest still names the old complete chain.
        monkeypatch.setattr(state, "_atomic_write", crashing)
        with pytest.raises(OSError, match="injected"):
            store.commit_delta(engine.snapshot_delta(since_tick=7))
        assert_snapshots_identical(SnapshotStore.load(tmp_path), before)

        # Crash writing the manifest itself: components landed, but the
        # commit record still points at the old chain -- same outcome.
        crash_on.update(calls=0, at=3)  # survive npz + sidecar, die on manifest
        with pytest.raises(OSError, match="injected"):
            store.commit_delta(engine.snapshot_delta(since_tick=7))
        assert_snapshots_identical(SnapshotStore.load(tmp_path), before)

    def test_delta_off_the_manifest_tick_is_refused(
        self, synthetic_stack, series_maker, tmp_path
    ):
        # A delta captured against a write that never committed must not
        # extend the chain: composing it would break contiguity.
        store = SnapshotStore(tmp_path)
        _, _, engine = self.engine_and_chain(
            synthetic_stack, series_maker, store
        )
        manifest = (tmp_path / "manifest.json").read_bytes()
        with pytest.raises(ValidationError, match="chains from tick 5"):
            store.commit_delta(engine.snapshot_delta(since_tick=5))
        assert (tmp_path / "manifest.json").read_bytes() == manifest
        assert not (tmp_path / "delta_000008.json").exists()
        store.commit_delta(engine.snapshot_delta(since_tick=7))
        assert_snapshots_identical(load_snapshot(tmp_path), engine.snapshot())

    def test_component_not_matching_manifest_is_refused(
        self, synthetic_stack, series_maker, tmp_path
    ):
        store = SnapshotStore(tmp_path)
        self.engine_and_chain(synthetic_stack, series_maker, store)
        victim = tmp_path / "delta_000005.json"
        assert victim.exists()
        victim.write_text(victim.read_text().replace("5", "6", 1))
        with pytest.raises(ValidationError, match="manifest"):
            SnapshotStore.load(tmp_path)

    def test_missing_or_foreign_manifest_is_refused(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            SnapshotStore.load(tmp_path)
        (tmp_path / "manifest.json").write_text('{"format": "something-else"}')
        with pytest.raises(ValidationError, match="manifest"):
            SnapshotStore.load(tmp_path)

    def test_retention_gc_unlinks_oldest_superseded_generations(
        self, tmp_path
    ):
        store = SnapshotStore(tmp_path, retain=1)
        registry = populated_registry()
        for tick in (1, 2, 3):
            store.commit_base(RegistrySnapshot.capture(registry, tick=tick))
        # Generations 1 and 2 are superseded; retain=1 keeps only gen 2.
        assert not (tmp_path / "base_000001.json").exists()
        assert not (tmp_path / "base_000001.npz").exists()
        assert (tmp_path / "base_000002.json").exists()
        assert SnapshotStore.load(tmp_path).tick == 3

    def test_load_snapshot_dispatches_on_layout(
        self, synthetic_stack, series_maker, tmp_path
    ):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        store = SnapshotStore(store_dir)
        _, _, engine = self.engine_and_chain(
            synthetic_stack, series_maker, store
        )
        store.commit_delta(engine.snapshot_delta(since_tick=7))
        legacy = tmp_path / "tick_000008"
        snapshot = engine.snapshot()
        snapshot.save(legacy)
        for source in (store_dir, store_dir / "manifest.json", legacy):
            assert_snapshots_identical(load_snapshot(source), snapshot)


# ----------------------------------------------------------------------
# Controller integration: one write path, failed writes, bounded history
# ----------------------------------------------------------------------
class TestControllerDurability:
    def workload(self, series_maker, length=6, n_streams=5):
        rng = np.random.default_rng(829)
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        return [
            tick_frames(series, ids, t, new_series=(t == 2))
            for t in range(length)
        ]

    @pytest.mark.parametrize("engine_kind", ["single", "inproc", "pipe"])
    @pytest.mark.parametrize("deltas", [0, 2])
    @pytest.mark.parametrize("mode", ["sync", "bg"])
    def test_every_cadence_restores_to_the_reference(
        self, synthetic_stack, series_maker, tmp_path, mode, deltas,
        engine_kind,
    ):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = churn_ticks(series_maker)
        engine = make_engine(factory, engine_kind)
        reference = factory()
        with ServingController(
            engine,
            snapshot_every=2,
            snapshot_dir=tmp_path,
            snapshot_mode=mode,
            snapshot_deltas=deltas,
            owns_engine=True,
        ) as controller:
            for frames in ticks:
                assert controller.tick(frames) == reference.step_batch(frames)
                if reference.tick % 2:
                    continue
                if mode == "bg":  # sync mode has already waited
                    controller._snapshot_writer.drain()
                assert_snapshots_identical(
                    load_snapshot(tmp_path),
                    in_shard_order(engine, reference.snapshot()),
                    strip_controller=True,
                )
        kinds = ["base", "delta", "delta", "base"] if deltas else ["base"] * 4
        assert [s.rsplit("/", 1)[-1] for s in controller.snapshots_written] == [
            f"{kind}_{t:06d}" for kind, t in zip(kinds, (2, 4, 6, 8))
        ]
        assert controller.stats.snapshots_written == 4
        assert controller.stats.snapshots_dropped == 0
        assert controller.stats.snapshot_errors == 0

    def run_controller(self, factory, ticks, **kwargs):
        with ServingController(factory(), **kwargs) as controller:
            results = controller.run(ticks)
        return controller, results

    def test_bg_snapshots_are_bitwise_identical_to_sync(
        self, synthetic_stack, series_maker, tmp_path
    ):
        # The two modes share the writer and the store; they differ only
        # in whether the tick waits for its write.
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = self.workload(series_maker)
        sync_ctl, sync_results = self.run_controller(
            factory, ticks, snapshot_every=2, snapshot_dir=tmp_path / "sync"
        )
        bg_ctl, bg_results = self.run_controller(
            factory, ticks,
            snapshot_every=2, snapshot_dir=tmp_path / "bg",
            snapshot_mode="bg",
        )
        assert bg_results == sync_results
        assert list(bg_ctl.snapshots_written) == [
            str(tmp_path / "bg" / f"base_{t:06d}") for t in (2, 4, 6)
        ]
        for ctl in (sync_ctl, bg_ctl):
            assert ctl.stats.snapshots_written == 3
            assert ctl.stats.snapshots_dropped == 0
            assert ctl.stats.snapshot_errors == 0
        for t in (2, 4, 6):
            assert_snapshots_identical(
                RegistrySnapshot.load(tmp_path / "bg" / f"base_{t:06d}"),
                RegistrySnapshot.load(tmp_path / "sync" / f"base_{t:06d}"),
                strip_controller=True,
            )
        assert_snapshots_identical(
            load_snapshot(tmp_path / "bg"), load_snapshot(tmp_path / "sync"),
            strip_controller=True,
        )

    def test_incremental_store_restores_bitwise_vs_legacy_snapshots(
        self, synthetic_stack, series_maker, tmp_path
    ):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = self.workload(series_maker)
        self.run_controller(
            factory, ticks, snapshot_every=2, snapshot_dir=tmp_path / "full"
        )
        ctl, _ = self.run_controller(
            factory, ticks,
            snapshot_every=2, snapshot_dir=tmp_path / "store",
            snapshot_mode="bg", snapshot_deltas=2,
        )
        # base@2, delta@4, delta@6: the composed chain equals the last
        # full snapshot bit for bit, read through the legacy stem loader
        # both straight off the store and re-saved as a tick_NNNNNN stem.
        stems = [s.rsplit("/", 1)[-1] for s in ctl.snapshots_written]
        assert stems == ["base_000002", "delta_000004", "delta_000006"]
        full = RegistrySnapshot.load(tmp_path / "full" / "base_000006")
        full.save(tmp_path / "legacy" / "tick_000006")
        for legacy in (full, load_snapshot(tmp_path / "legacy" / "tick_000006")):
            assert_snapshots_identical(
                load_snapshot(tmp_path / "store"), legacy,
                strip_controller=True,
            )

    @pytest.mark.parametrize("engine_kind", ["single", "inproc", "pipe"])
    @pytest.mark.parametrize(
        "failing, deltas, fail_tick, kinds",
        [
            ("commit_delta", 4, 4, ["base", "delta", "base", "delta"]),
            ("commit_base", 1, 6, ["base", "delta", "base", "base"]),
        ],
    )
    def test_failed_write_forces_a_base_and_the_store_stays_restorable(
        self, synthetic_stack, series_maker, tmp_path, monkeypatch,
        failing, deltas, fail_tick, kinds, engine_kind,
    ):
        from repro.serving.observability import (
            MetricsRegistry,
            parse_prometheus,
        )

        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = churn_ticks(series_maker)
        registry = MetricsRegistry()
        engine = make_engine(factory, engine_kind)
        controller = ServingController(
            engine,
            snapshot_every=2,
            snapshot_dir=tmp_path,
            snapshot_mode="bg",
            snapshot_deltas=deltas,
            metrics=registry,
            owns_engine=True,
        )
        store, writer = controller._snapshot_store, controller._snapshot_writer
        real_commit = getattr(store, failing)
        failed = []

        def flaky_commit(snapshot):
            if snapshot.tick == fail_tick and not failed:
                failed.append(snapshot.tick)
                raise OSError("injected write failure")
            return real_commit(snapshot)

        real_submit = writer.submit

        def draining_submit(label, write):
            accepted = real_submit(label, write)
            if accepted:
                # Let the write land (or fail) before the next cadence,
                # so the counts never depend on thread scheduling.
                writer.drain()
            return accepted

        monkeypatch.setattr(store, failing, flaky_commit)
        monkeypatch.setattr(writer, "submit", draining_submit)
        reference = factory()
        for frames in ticks:
            reference.step_batch(frames)
        with controller:
            controller.run(ticks)
            expected = in_shard_order(engine, reference.snapshot())
        assert failed == [fail_tick]
        assert controller.stats.snapshot_errors == 1
        assert controller.stats.snapshots_written == 4
        assert controller.stats.snapshots_dropped == 0
        families = parse_prometheus(registry.render_prometheus())
        assert families["repro_snapshot_errors_total"]["samples"][
            ("repro_snapshot_errors_total", ())
        ] == 1
        # The cadence after the failure committed a fresh base instead
        # of a delta chained from the write that never landed.
        assert [s.rsplit("/", 1)[-1] for s in controller.snapshots_written] == [
            f"{kind}_{t:06d}" for kind, t in zip(kinds, (2, 4, 6, 8))
        ]
        assert_snapshots_identical(
            load_snapshot(tmp_path), expected, strip_controller=True
        )

    @pytest.mark.parametrize("engine_kind", ["single", "inproc", "pipe"])
    @pytest.mark.parametrize(
        "failing, fail_tick, kinds",
        [
            ("commit_delta", 4, ["base", "delta", "base", "delta"]),
            ("commit_base", 2, ["base", "base", "delta", "delta"]),
        ],
    )
    def test_sync_write_error_propagates_and_serving_continues(
        self, synthetic_stack, series_maker, tmp_path, monkeypatch,
        failing, fail_tick, kinds, engine_kind,
    ):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = churn_ticks(series_maker)
        engine = make_engine(factory, engine_kind)
        controller = ServingController(
            engine, snapshot_every=2, snapshot_dir=tmp_path,
            snapshot_deltas=2, owns_engine=True,
        )
        store = controller._snapshot_store
        real_commit = getattr(store, failing)

        def failing_commit(snapshot):
            if snapshot.tick == fail_tick:
                raise OSError("injected disk full")
            return real_commit(snapshot)

        monkeypatch.setattr(store, failing, failing_commit)
        reference = factory()
        with controller:
            for frames in ticks:
                expected = reference.step_batch(frames)
                if reference.tick == fail_tick:
                    with pytest.raises(OSError, match="injected disk full"):
                        controller.tick(frames)
                else:
                    assert controller.tick(frames) == expected
            final = in_shard_order(engine, reference.snapshot())
        assert controller.stats.snapshot_errors == 1
        assert [s.rsplit("/", 1)[-1] for s in controller.snapshots_written] == [
            f"{kind}_{t:06d}" for kind, t in zip(kinds, (2, 4, 6, 8))
        ]
        assert_snapshots_identical(
            load_snapshot(tmp_path), final, strip_controller=True
        )

    def test_a_failed_last_write_is_counted_at_close(
        self, synthetic_stack, series_maker, tmp_path, monkeypatch
    ):
        # No cadence follows the failed write, so only close() -- which
        # drains the writer -- can surface it.
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = churn_ticks(series_maker)
        controller = ServingController(
            factory(), snapshot_every=2, snapshot_dir=tmp_path,
            snapshot_mode="bg",
        )
        store = controller._snapshot_store
        real_commit = store.commit_base

        def failing_commit(snapshot):
            if snapshot.tick == len(ticks):
                raise OSError("injected disk full")
            return real_commit(snapshot)

        monkeypatch.setattr(store, "commit_base", failing_commit)
        with controller:
            controller.run(ticks[:-1])
            assert controller.stats.snapshot_errors == 0
            controller.tick(ticks[-1])
        assert controller.stats.snapshot_errors == 1
        assert controller.stats.snapshots_written == 4
        assert not (tmp_path / f"base_{len(ticks):06d}.json").exists()
        # The manifest still names the last base that landed.
        reference = factory()
        for frames in ticks[:-2]:
            reference.step_batch(frames)
        assert_snapshots_identical(
            load_snapshot(tmp_path), reference.snapshot(),
            strip_controller=True,
        )

    def test_retain_collects_superseded_bases_without_deltas(
        self, synthetic_stack, series_maker, tmp_path
    ):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = churn_ticks(series_maker)
        with ServingController(
            factory(), snapshot_every=1, snapshot_dir=tmp_path,
            snapshot_retain=1,
        ) as controller:
            controller.run(ticks)
        assert controller.stats.snapshots_written == len(ticks)
        # Every cadence committed a base; all but the live one and the
        # newest superseded one were unlinked.
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            f"base_{t:06d}{suffix}"
            for t in (len(ticks) - 1, len(ticks))
            for suffix in (".json", ".npz")
        ] + ["manifest.json"]
        reference = factory()
        for frames in ticks:
            reference.step_batch(frames)
        assert_snapshots_identical(
            load_snapshot(tmp_path), reference.snapshot(),
            strip_controller=True,
        )

    def test_dropped_write_widens_the_next_delta_window(
        self, synthetic_stack, series_maker, tmp_path, monkeypatch
    ):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = self.workload(series_maker)
        engine = factory()
        controller = ServingController(
            engine,
            snapshot_every=1,
            snapshot_dir=tmp_path,
            snapshot_mode="bg",
            snapshot_deltas=4,
        )
        writer = controller._snapshot_writer
        real_submit = writer.submit
        refused = []

        def flaky_submit(label, write):
            if "delta_000002" in label and not refused:
                refused.append(label)  # queue "full" for this one write
                return False
            accepted = real_submit(label, write)
            if accepted:
                # Wait for the write to land, so a lagging writer thread
                # can never overrun the bounded queue: the refusal above
                # stays the only drop, whatever the scheduling.
                writer.drain()
            return accepted

        monkeypatch.setattr(controller._snapshot_writer, "submit", flaky_submit)
        with controller:
            controller.run(ticks)
        assert refused  # the drop really happened
        assert controller.stats.snapshots_dropped == 1
        assert controller.stats.snapshots_written == len(ticks) - 1
        # The tick-3 delta covered the dropped window (dirty since 1,
        # not since 2), so the chain composes to the exact final state.
        reference = factory()
        for frames in ticks:
            reference.step_batch(frames)
        assert_snapshots_identical(
            load_snapshot(tmp_path), reference.snapshot(),
            strip_controller=True,
        )

    def test_snapshots_written_history_is_bounded(self, synthetic_stack):
        from repro.serving.controller import SNAPSHOTS_WRITTEN_KEEP

        factory = make_factory(synthetic_stack)
        with ServingController(
            factory(), snapshot_every=1, snapshot_dir="unused"
        ) as controller:
            for n in range(SNAPSHOTS_WRITTEN_KEEP + 40):
                controller._record_written(f"snap-{n}")
            assert controller.stats.snapshots_written == (
                SNAPSHOTS_WRITTEN_KEEP + 40
            )
            assert len(controller.snapshots_written) == SNAPSHOTS_WRITTEN_KEEP
            assert controller.snapshots_written[0] == "snap-40"

    def test_controller_validates_durability_parameters(self, synthetic_stack):
        factory = make_factory(synthetic_stack)
        with pytest.raises(ValidationError, match="snapshot_mode"):
            ServingController(factory(), snapshot_mode="async")
        with pytest.raises(ValidationError, match="snapshot_deltas"):
            ServingController(factory(), snapshot_deltas=-1)
        with pytest.raises(ValidationError, match="snapshot_retain"):
            ServingController(factory(), snapshot_retain=-2)


# ----------------------------------------------------------------------
# O(dead-shard) recovery
# ----------------------------------------------------------------------
class _ChaosCluster:
    """A ShardedEngine on a chaos-wrapped transport (pipe/tcp)."""

    def __init__(self, transport_name, factory, n_shards, faults, **kwargs):
        self.processes = []
        if transport_name == "tcp":
            from repro.serving import TcpTransport, launch_local_workers

            addresses, self.processes = launch_local_workers(factory, n_shards)
            inner = TcpTransport(addresses, connect_timeout=10.0)
        else:
            inner = transport_name
        self.chaos = ChaosTransport(inner, faults)
        self.cluster = ShardedEngine(
            factory, n_shards, transport=self.chaos, **kwargs
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        from repro.serving import stop_local_workers

        self.cluster.close()
        stop_local_workers(self.processes)


class TestShardLocalRecovery:
    def workload(self, series_maker, length=8, n_streams=10, idle=()):
        rng = np.random.default_rng(907)
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        ticks = []
        for t in range(length):
            only = None
            if idle and t >= 4:
                only = set(range(n_streams)) - set(idle)
            ticks.append(
                tick_frames(series, ids, t, new_series=(t == 3), only=only)
            )
        return ticks

    @pytest.mark.parametrize("transport", ["inproc", "pipe"])
    def test_one_split_serves_checkpoints_and_restore(
        self, synthetic_stack, series_maker, transport
    ):
        # The per-shard checkpoints a controller derives on restore are
        # the split the cluster restores with, and that split reproduces
        # the parts the shards themselves report -- from a snapshot of
        # either topology.
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = self.workload(series_maker)
        reference = factory()
        for frames in ticks:
            reference.step_batch(frames)
        with ShardedEngine(factory, 2, transport=transport) as cluster:
            for frames in ticks:
                cluster.step_batch(frames)
            merged, parts = cluster.snapshot_shards()
            for source in (merged, reference.snapshot()):
                split = cluster.split_snapshot(source)
                assert len(split) == 2
                for shard, part in enumerate(split):
                    assert part.statistics == {}
                    assert_snapshots_identical(
                        part,
                        RegistrySnapshot(
                            tick=parts[shard].tick,
                            max_buffer_length=parts[shard].max_buffer_length,
                            idle_ttl=parts[shard].idle_ttl,
                            statistics={},
                            streams=parts[shard].streams,
                        ),
                    )
            with ServingController(cluster, failover=policy()) as controller:
                controller.restore(reference.snapshot())
                checkpoints = controller._shard_checkpoints
            assert sorted(checkpoints) == [0, 1]
            for shard, part in enumerate(cluster.split_snapshot(merged)):
                assert_snapshots_identical(checkpoints[shard], part)
            assert_snapshots_identical(
                cluster.snapshot(), in_shard_order(cluster, reference.snapshot())
            )

    @pytest.mark.parametrize("transport", ["pipe", TCP])
    def test_step_kill_touches_only_the_dead_shard(
        self, synthetic_stack, series_maker, transport
    ):
        length = 8
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = self.workload(series_maker, length=length)
        expected, expected_stats = single_baseline(factory, ticks)

        victim = 1
        faults = [
            ChaosFault(victim, "step", index=4, mode="kill", phase="recv")
        ]
        with _ChaosCluster(transport, factory, 2, faults) as harness:
            controller = ServingController(
                harness.cluster, failover=policy()
            )
            got: dict = {}
            for frames in ticks:
                for result in controller.tick(frames):
                    got.setdefault(result.stream_id, []).append(result)
            stats = harness.cluster.statistics()
            counts = harness.chaos._counts
            assert not harness.chaos.pending_faults
            assert controller.stats.failovers == 1
            assert controller.stats.shard_recoveries == 1
            assert controller.stats.shards_respawned == 1

        # Only the revived shard was restored and replayed: the survivor
        # saw exactly one step request per tick and zero restores.
        survivor = 1 - victim
        assert counts[(survivor, "step")] == length
        assert (survivor, "restore") not in counts
        assert counts[(victim, "restore")] == 1
        assert counts[(victim, "step")] > length  # its replays + salvage

        # And the run is still indistinguishable from an undisturbed one.
        assert got == expected
        assert stats == expected_stats

    def test_ttl_evictions_survive_shard_local_recovery(
        self, synthetic_stack, series_maker
    ):
        # Streams s0/s1 go idle at tick 4 (ttl=3 -> evicted at tick 8);
        # the kill at tick 5 forces the revived shard to replay through
        # idle ticks, and the eviction bookkeeping must come out exact.
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = self.workload(series_maker, length=10, idle=(0, 1))
        expected, expected_stats = single_baseline(factory, ticks)
        faults = [ChaosFault(0, "step", index=5, mode="kill", phase="recv")]
        with _ChaosCluster("pipe", factory, 2, faults) as harness:
            controller = ServingController(harness.cluster, failover=policy())
            got = controller.run(ticks)
            stats = harness.cluster.statistics()
            assert controller.stats.shard_recoveries == 1
        assert got == expected
        assert stats == expected_stats
        assert stats.evicted == expected_stats.evicted > 0

    def test_snapshot_kill_recovers_shard_locally(
        self, synthetic_stack, series_maker, tmp_path
    ):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = self.workload(series_maker)
        expected, expected_stats = single_baseline(factory, ticks)
        # Snapshot request 0 per shard is the eager recovery checkpoint;
        # index 1 is the tick-3 cadence write.
        faults = [ChaosFault(1, "snapshot", index=1, mode="kill", phase="recv")]
        with _ChaosCluster("pipe", factory, 2, faults) as harness:
            controller = ServingController(
                harness.cluster,
                failover=policy(),
                snapshot_every=3,
                snapshot_dir=tmp_path,
            )
            got = controller.run(ticks)
            stats = harness.cluster.statistics()
            counts = harness.chaos._counts
            assert controller.stats.failovers == 1
            assert controller.stats.shard_recoveries == 1
        assert got == expected
        assert stats == expected_stats
        assert (0, "restore") not in counts  # survivor untouched
        written = RegistrySnapshot.load(tmp_path / "base_000003")
        assert written.tick == 3
        assert load_snapshot(tmp_path).tick == 6

    def test_send_phase_loss_falls_back_to_full_recovery(
        self, synthetic_stack, series_maker
    ):
        # A hang strikes before the fan-out completes: there are no kept
        # survivor replies to salvage, so recovery must take the
        # whole-cluster path -- and still come out exact.
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = self.workload(series_maker, length=6)
        expected, expected_stats = single_baseline(factory, ticks)
        faults = [ChaosFault(1, "step", index=2, mode="hang")]
        with _ChaosCluster("pipe", factory, 2, faults) as harness:
            controller = ServingController(harness.cluster, failover=policy())
            got = controller.run(ticks)
            stats = harness.cluster.statistics()
            assert controller.stats.failovers == 1
            assert controller.stats.shard_recoveries == 0
        assert got == expected
        assert stats == expected_stats

    def test_shard_local_disabled_uses_the_full_path(
        self, synthetic_stack, series_maker
    ):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = self.workload(series_maker, length=6)
        expected, _ = single_baseline(factory, ticks)
        faults = [ChaosFault(1, "step", index=2, mode="kill", phase="recv")]
        with _ChaosCluster("pipe", factory, 2, faults) as harness:
            controller = ServingController(
                harness.cluster, failover=policy(shard_local=False)
            )
            got = controller.run(ticks)
            counts = harness.chaos._counts
            assert controller.stats.failovers == 1
            assert controller.stats.shard_recoveries == 0
        assert got == expected
        assert (0, "restore") in counts  # the survivor was rolled back too

    def test_pipelined_windows_fall_back_to_full_recovery(
        self, synthetic_stack, series_maker
    ):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = self.workload(series_maker, length=8)
        expected, expected_stats = single_baseline(factory, ticks)
        faults = [ChaosFault(1, "step", index=3, mode="kill", phase="recv")]
        with _ChaosCluster(
            "pipe", factory, 2, faults, inflight_window=2
        ) as harness:
            controller = ServingController(harness.cluster, failover=policy())
            got = controller.run(ticks)
            stats = harness.cluster.statistics()
            assert controller.stats.failovers >= 1
            assert controller.stats.shard_recoveries == 0
        assert got == expected
        assert stats == expected_stats


# ----------------------------------------------------------------------
# Crash safety of a live serving process
# ----------------------------------------------------------------------
class TestCrashSafety:
    @pytest.mark.slow
    def test_sigkill_mid_run_leaves_a_restorable_store(self, tmp_path):
        # SIGKILL a serve-cluster run as soon as its first commit lands.
        # The kill races later commits, which is the point: whatever
        # generation the manifest names must compose and pass its
        # digest checks.
        import os
        import pathlib
        import signal
        import subprocess
        import sys
        import time

        import repro

        store = tmp_path / "store"
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve-cluster", "--smoke",
                "--streams", "24", "--ticks", "400", "--shards", "2",
                "--threshold", "0.5", "--snapshot-every", "3",
                "--snapshot-dir", str(store), "--snapshot-mode", "bg",
                "--snapshot-deltas", "2", "--snapshot-retain", "1",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            start_new_session=True,  # one process group: parent + workers
        )
        try:
            deadline = time.monotonic() + 300.0
            while not (store / "manifest.json").exists():
                assert proc.poll() is None, "serving exited before a commit"
                assert time.monotonic() < deadline, "no commit within 300 s"
                time.sleep(0.05)
            time.sleep(0.2)
        finally:
            # Kill the whole group: orphaned pipe workers would otherwise
            # outlive the test (they hold each other's pipe ends open).
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        snapshot = load_snapshot(store)
        assert snapshot.streams, "restored an empty registry"
