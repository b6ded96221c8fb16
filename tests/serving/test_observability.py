"""Observability tests: metrics registry, exposition, tracing, controller.

Three layers of guarantees:

* the registry/exposition layer round-trips exactly -- every family a
  registry renders is re-parsed by the strict ``parse_prometheus``
  validator (type/help lines, label escaping, histogram bucket
  monotonicity) and the parsed numbers equal the registry's snapshot;
* the tracer is deterministic under a scripted clock, and the disabled
  path (``null_span``) touches no clock at all;
* a metrics-enabled controller's scrape is *consistent with its own
  ``ControllerStats``* -- tick counters, admission counters, failover
  counters, and the tick/phase histograms -- including over live HTTP
  against a running inproc cluster, and including a chaos-injected
  failover on the pipe transport.
"""

import itertools
import urllib.request
from dataclasses import fields

import numpy as np
import pytest

from chaos import ChaosFault, ChaosTransport
from repro.core.monitor import UncertaintyMonitor
from repro.exceptions import ValidationError
from repro.serving import (
    SLO,
    AdmissionPolicy,
    ControllerStats,
    FailoverPolicy,
    MetricsRegistry,
    MetricsServer,
    ServingController,
    ShardedEngine,
    SLOTracker,
    StreamFrame,
    StreamingEngine,
    TickTracer,
)
from repro.serving.observability import null_span, parse_prometheus
from repro.serving.observability.metrics import format_number


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


def counter_value(families, name, **labels):
    key = (name, tuple(sorted(labels.items())))
    return families[name]["samples"][key]


#: Every counter field of ControllerStats and the family it is read from.
COUNTER_FAMILIES = {
    "ticks": "repro_controller_ticks_total",
    "frames_submitted": "repro_controller_frames_submitted_total",
    "frames_admitted": "repro_controller_frames_admitted_total",
    "frames_resumed": "repro_controller_frames_resumed_total",
    "frames_deferred": "repro_controller_frames_deferred_total",
    "admission_overflow": "repro_controller_frames_dropped_total",
    "rebalances": "repro_controller_rebalances_total",
    "snapshots_written": "repro_controller_snapshots_total",
    "snapshots_dropped": "repro_snapshot_dropped_total",
    "snapshot_errors": "repro_snapshot_errors_total",
    "failovers": "repro_controller_failovers_total",
    "shard_recoveries": "repro_controller_shard_recoveries_total",
    "shards_respawned": "repro_controller_shards_respawned_total",
    "replayed_ticks": "repro_controller_replayed_ticks_total",
    "recovery_seconds": "repro_controller_recovery_seconds_total",
    "slo_breaches": "repro_slo_breaches_total",
    "slo_alerts": "repro_slo_alerts_total",
    "backpressure_throttles": "repro_cluster_backpressure_throttles_total",
}


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_get_or_create_returns_the_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "a counter")
        b = registry.counter("x_total", "a counter")
        assert a is b
        a.inc()
        b.inc(2)
        assert a.value == 3

    def test_reading_a_counter_creates_no_series(self):
        registry = MetricsRegistry()
        plain = registry.counter("plain_total", "unlabeled")
        by_class = registry.counter("by_class_total", "labeled", labels=("c",))
        assert plain.values() == {} and by_class.values() == {}
        families = parse_prometheus(registry.render_prometheus())
        assert families["plain_total"]["samples"] == {}
        plain.inc(2)
        by_class.labels(c="b").inc()
        by_class.labels(c="a").inc(3)
        assert plain.values() == {(): 2.0}
        assert by_class.values() == {("b",): 1.0, ("a",): 3.0}

    def test_signature_conflict_is_loud(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "a counter")
        with pytest.raises(ValidationError, match="already registered"):
            registry.gauge("x_total", "now a gauge")
        with pytest.raises(ValidationError, match="already registered"):
            registry.counter("x_total", "different labels", labels=("a",))

    def test_counters_only_go_up(self):
        counter = MetricsRegistry().counter("x_total", "c")
        counter.inc(0)  # zero is allowed (a no-op delta)
        with pytest.raises(ValidationError, match="only go up"):
            counter.inc(-1)

    def test_bad_names_and_labels_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.counter("0bad", "starts with a digit")
        with pytest.raises(ValidationError):
            registry.counter("ok_total", "bad label", labels=("le gume",))
        with pytest.raises(ValidationError, match="reserves"):
            registry.histogram("h", "le is the bucket label", labels=("le",))

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        family = registry.counter("req_total", "requests", labels=("code",))
        family.labels(code=200).inc(5)
        family.labels(code="500").inc()
        snapshot = {
            tuple(s["labels"].items()): s["value"]
            for s in registry.snapshot()["req_total"]["series"]
        }
        assert snapshot == {(("code", "200"),): 5, (("code", "500"),): 1}
        with pytest.raises(ValidationError, match="takes labels"):
            family.labels(status=200)
        with pytest.raises(ValidationError, match="labeled"):
            family.inc()  # labelled family has no unlabelled series

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", "latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        (series,) = registry.snapshot()["lat"]["series"]
        assert series["count"] == 5
        assert series["sum"] == pytest.approx(56.05)
        # Cumulative: le=0.1 -> 1, le=1 -> 3, le=10 -> 4, +Inf -> 5.
        assert series["buckets"] == {
            "0.1": 1, "1": 3, "10": 4, "+Inf": 5
        }

    def test_format_number_spellings(self):
        assert format_number(float("inf")) == "+Inf"
        assert format_number(float("-inf")) == "-Inf"
        assert format_number(float("nan")) == "NaN"
        assert format_number(3.0) == "3"
        assert format_number(0.25) == "0.25"


# ---------------------------------------------------------------------------
# Exposition round trip (render -> strict parse -> same numbers)
# ---------------------------------------------------------------------------

class TestExpositionRoundTrip:
    def build_registry(self):
        registry = MetricsRegistry()
        plain = registry.counter("frames_total", "Frames\nprocessed \\ total.")
        plain.inc(7)
        nasty = registry.gauge(
            "queue_depth", "per-queue depth", labels=("queue", "node")
        )
        # Label values exercising every escape: backslash, quote, newline.
        nasty.labels(queue='ba"ck\\slash', node="line1\nline2").set(3.5)
        nasty.labels(queue="plain", node="n1").set(-2)
        hist = registry.histogram(
            "tick_seconds", "tick latency", labels=("phase",),
            buckets=(0.01, 0.1, 1.0),
        )
        for phase, values in {
            "step": (0.005, 0.05, 0.5, 5.0),
            "merge": (0.02,),
        }.items():
            for value in values:
                hist.labels(phase=phase).observe(value)
        return registry

    def test_every_family_round_trips(self):
        registry = self.build_registry()
        families = parse_prometheus(registry.render_prometheus())
        assert set(families) == {"frames_total", "queue_depth", "tick_seconds"}
        assert families["frames_total"]["type"] == "counter"
        assert families["queue_depth"]["type"] == "gauge"
        assert families["tick_seconds"]["type"] == "histogram"
        # The parser keeps HELP text in its escaped wire form.
        assert (
            families["frames_total"]["help"] == "Frames\\nprocessed \\\\ total."
        )
        assert counter_value(families, "frames_total") == 7
        assert counter_value(
            families, "queue_depth", queue='ba"ck\\slash', node="line1\nline2"
        ) == 3.5
        samples = families["tick_seconds"]["samples"]
        assert samples[
            ("tick_seconds_count", (("phase", "step"),))
        ] == 4
        assert samples[
            ("tick_seconds_bucket", (("le", "+Inf"), ("phase", "step")))
        ] == 4
        assert samples[
            ("tick_seconds_bucket", (("le", "0.1"), ("phase", "step")))
        ] == 2
        assert samples[
            ("tick_seconds_sum", (("phase", "merge"),))
        ] == pytest.approx(0.02)

    def test_parser_rejects_non_monotonic_histogram(self):
        registry = self.build_registry()
        text = registry.render_prometheus()
        # Tamper one cumulative bucket below its predecessor.
        tampered = text.replace(
            'tick_seconds_bucket{phase="step",le="+Inf"} 4',
            'tick_seconds_bucket{phase="step",le="+Inf"} 1',
        )
        assert tampered != text
        with pytest.raises(ValidationError):
            parse_prometheus(tampered)

    def test_parser_rejects_foreign_samples(self):
        with pytest.raises(ValidationError, match="belong"):
            parse_prometheus(
                "# HELP a_total a\n# TYPE a_total counter\nb_total 1\n"
            )
        with pytest.raises(ValidationError, match="newline"):
            parse_prometheus("# HELP a_total a\n# TYPE a_total counter\na_total 1")


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class TestTracer:
    def test_scripted_clock_gives_exact_spans(self):
        reads = iter([1.0, 1.5, 2.0, 2.25, 10.0, 10.125])
        tracer = TickTracer(clock=lambda: next(reads))
        with tracer.span("fanout", shards=2):
            pass
        with tracer.span("await_window", shard=0):
            pass
        with tracer.span("await_window", shard=1):
            pass
        trace = tracer.end_tick(7)
        assert trace.tick == 7
        assert [s.name for s in trace.spans] == [
            "fanout", "await_window", "await_window"
        ]
        assert trace.seconds("fanout") == 0.5
        assert trace.seconds("await_window") == 0.25 + 0.125
        assert trace.as_dict()["spans"][0] == {
            "name": "fanout", "seconds": 0.5, "meta": {"shards": 2}
        }

    def test_span_records_even_on_exception(self):
        reads = iter([0.0, 3.0])
        tracer = TickTracer(clock=lambda: next(reads))
        with pytest.raises(RuntimeError):
            with tracer.span("step"):
                raise RuntimeError("engine rejected the tick")
        assert tracer.open_spans[0].seconds == 3.0
        tracer.abort_tick()
        assert tracer.open_spans == []
        assert tracer.last is None

    def test_window_bounds_retained_traces(self):
        tracer = TickTracer(clock=lambda: 0.0, window=2)
        for tick in range(5):
            tracer.record("step", 0.1)
            tracer.end_tick(tick)
        assert [t.tick for t in tracer.traces] == [3, 4]
        with pytest.raises(ValidationError):
            TickTracer(window=0)

    def test_null_span_never_reads_a_clock(self):
        def bomb():
            raise AssertionError("disabled tracing read a clock")

        span = null_span
        with span("fanout", shards=4):
            pass  # no tracer anywhere near this path
        tracer = TickTracer(clock=bomb)
        # The null span is the module singleton, shared across uses.
        assert null_span("a") is null_span("b")
        del tracer


# ---------------------------------------------------------------------------
# Controller publication: scrape == ControllerStats
# ---------------------------------------------------------------------------

class TestControllerMetrics:
    def run_cluster(self, synthetic_stack, series_maker, registry):
        rng = np.random.default_rng(901)
        n_streams, length = 8, 6
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        priorities = [sid % 2 for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        cluster = ShardedEngine(factory, 2, transport="inproc")
        controller = ServingController(
            cluster,
            admission=AdmissionPolicy(max_frames_per_tick=5),
            owns_engine=True,
            metrics=registry,
        )
        with controller:
            for t in range(length):
                controller.tick(tick_frames(series, ids, t, priorities))
            stats = controller.stats
        return controller, stats

    def test_scrape_is_consistent_with_stats(
        self, synthetic_stack, series_maker
    ):
        registry = MetricsRegistry()
        controller, stats = self.run_cluster(
            synthetic_stack, series_maker, registry
        )
        families = parse_prometheus(registry.render_prometheus())

        assert counter_value(families, "repro_controller_ticks_total") == stats.ticks
        assert (
            counter_value(families, "repro_controller_frames_submitted_total")
            == stats.frames_submitted
        )
        assert (
            counter_value(families, "repro_controller_frames_admitted_total")
            == stats.frames_admitted
        )
        assert (
            counter_value(families, "repro_controller_frames_resumed_total")
            == stats.frames_resumed
        )
        assert stats.frames_deferred > 0  # budget 5 < 8 streams
        deferred = {
            key[1][0][1]: value
            for key, value in families[
                "repro_controller_frames_deferred_total"
            ]["samples"].items()
        }
        assert deferred == {
            str(priority): count
            for priority, count in stats.deferred_by_priority.items()
        }
        # Engine fan-out counters rode along.
        fanout = controller.engine.fanout_stats()
        assert (
            counter_value(families, "repro_fanout_ticks_total")
            == fanout["ticks"]
        )
        # Gauges reflect the final tick.
        assert counter_value(families, "repro_controller_shards") == 2
        assert (
            counter_value(families, "repro_controller_backlog_frames")
            == controller.backlog
        )
        assert (
            counter_value(families, "repro_controller_telemetry_window_ticks")
            == stats.telemetry_window
        )
        # Tick latency histogram observed one value per tick.
        samples = families["repro_tick_latency_seconds"]["samples"]
        assert samples[("repro_tick_latency_seconds_count", ())] == stats.ticks
        # Phase histogram shows both controller and engine phases.
        phase_counts = {
            key[1][0][1]: value
            for key, value in families["repro_tick_phase_seconds"][
                "samples"
            ].items()
            if key[0] == "repro_tick_phase_seconds_count"
        }
        for phase in (
            "intake", "admission", "step", "fanout", "merge_ready"
        ):
            assert phase_counts.get(phase) == stats.ticks, phase
        assert phase_counts.get("await_window") == 2 * stats.ticks

    def run_counted(self, synthetic_stack, series_maker, engine, tmp_path,
                    registry):
        """A run that drops frames at admission, writes bg snapshots
        and breaches an SLO on every tick (scripted 10 ms latency)."""
        rng = np.random.default_rng(904)
        n_streams, length = 8, 8
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        priorities = [sid % 3 for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        steps = itertools.count()
        controller = ServingController(
            factory() if engine == "single"
            else ShardedEngine(factory, 2, transport=engine),
            admission=AdmissionPolicy(
                max_frames_per_tick=3, max_deferred_per_stream=1
            ),
            snapshot_every=2,
            snapshot_dir=tmp_path / f"store-{registry is not None}",
            snapshot_mode="bg",
            snapshot_deltas=1,
            owns_engine=True,
            clock=lambda: next(steps) * 0.01,
            slo=SLOTracker(
                [SLO("p99", 0.005, target=0.9, short_window=2, long_window=4)]
            ),
            metrics=registry,
        )
        with controller:
            for t in range(length):
                controller.tick(tick_frames(series, ids, t, priorities))
        return controller.stats

    @pytest.mark.parametrize("engine", ["single", "inproc"])
    def test_every_counter_field_is_its_scraped_family(
        self, synthetic_stack, series_maker, engine, tmp_path
    ):
        registry = MetricsRegistry()
        stats = self.run_counted(
            synthetic_stack, series_maker, engine, tmp_path, registry
        )
        families = parse_prometheus(registry.render_prometheus())
        plain = {"telemetry_window", "max_inflight_depth"}
        by_priority = {"deferred_by_priority", "dropped_by_priority"}
        assert set(COUNTER_FAMILIES) == {
            f.name for f in fields(ControllerStats)
        } - plain - by_priority
        for field, name in COUNTER_FAMILIES.items():
            family = families.get(name, {"samples": {}})
            scraped = sum(family["samples"].values())
            assert scraped == pytest.approx(getattr(stats, field)), field
        for field, name in (
            ("deferred_by_priority", "repro_controller_frames_deferred_total"),
            ("dropped_by_priority", "repro_controller_frames_dropped_total"),
        ):
            assert getattr(stats, field) == {
                int(dict(labels)["priority"]): value
                for (_, labels), value in families[name]["samples"].items()
            }, field
        # The run exercised what it was built to exercise.
        assert stats.admission_overflow > 0
        assert len(stats.dropped_by_priority) > 1
        assert stats.snapshots_written > 0
        assert stats.slo_breaches == stats.ticks == 8
        assert stats.slo_alerts > 0

        # Without metrics= the controller counts into its own registry
        # and reports exactly the same stats.
        alone = self.run_counted(
            synthetic_stack, series_maker, engine, tmp_path, None
        )
        assert alone.as_dict() == stats.as_dict()
        for field, value in alone.as_dict().items():
            expected = float if field == "recovery_seconds" else (
                dict if field in by_priority else int
            )
            assert type(value) is expected, field
        for field in by_priority:
            counts = getattr(alone, field)
            assert all(type(key) is int for key in counts), field
            assert all(type(value) is int for value in counts.values())

    def test_scrape_before_the_first_tick_reads_zero_ticks(
        self, synthetic_stack
    ):
        registry = MetricsRegistry()
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        with ServingController(factory(), metrics=registry) as controller:
            families = parse_prometheus(registry.render_prometheus())
            assert counter_value(families, "repro_controller_ticks_total") == 0
            assert controller.stats.ticks == 0

    def test_a_registry_backs_one_controller(self, synthetic_stack):
        registry = MetricsRegistry()
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        with ServingController(factory(), metrics=registry) as first:
            first.tick([])
            with pytest.raises(ValidationError, match="own MetricsRegistry"):
                ServingController(factory(), metrics=registry)
            assert first.stats.ticks == 1

    def test_duration_help_names_its_clock(
        self, synthetic_stack, series_maker
    ):
        # Every duration family says which clock it reads, and says it
        # right: fan-out encode/overlap are parent CPU time
        # (process_time, see ShardedEngine.fanout_stats); everything
        # else is wall time.  A new *_seconds* family must join the map.
        registry = MetricsRegistry()
        self.run_cluster(synthetic_stack, series_maker, registry)
        families = parse_prometheus(registry.render_prometheus())
        expected = {
            "repro_snapshot_write_seconds": "wall",
            "repro_controller_recovery_seconds_total": "wall",
            "repro_fanout_encode_seconds_total": "cpu",
            "repro_fanout_overlap_seconds_total": "cpu",
            "repro_controller_latency_ewma_seconds": "wall",
            "repro_tick_latency_seconds": "wall",
            "repro_tick_phase_seconds": "wall",
            "repro_recovery_seconds": "wall",
            "repro_cluster_worker_phase_seconds_total": "wall",
        }

        def clock(help_text):
            text = help_text.lower()
            named = {
                name
                for name, phrase in (("wall", "wall time"), ("cpu", "cpu time"))
                if phrase in text
            }
            assert len(named) == 1, help_text
            return named.pop()

        assert {
            name: clock(family["help"])
            for name, family in families.items()
            if "_seconds" in name
        } == expected

    def test_failover_counters_match_stats(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(902)
        n_streams, length = 6, 6
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        registry = MetricsRegistry()
        chaos = ChaosTransport(
            "pipe",
            [ChaosFault(shard=1, command="step", index=3, mode="kill")],
        )
        cluster = ShardedEngine(factory, 2, transport=chaos)
        controller = ServingController(
            cluster,
            failover=FailoverPolicy(
                max_failovers=4, journal_depth=16, respawn_backoff=0.0
            ),
            owns_engine=True,
            metrics=registry,
        )
        with controller:
            for t in range(length):
                controller.tick(tick_frames(series, ids, t))
            stats = controller.stats
        assert stats.failovers >= 1
        families = parse_prometheus(registry.render_prometheus())
        assert (
            counter_value(families, "repro_controller_failovers_total")
            == stats.failovers
        )
        assert (
            counter_value(families, "repro_controller_shards_respawned_total")
            == stats.shards_respawned
        )
        assert (
            counter_value(families, "repro_controller_replayed_ticks_total")
            == stats.replayed_ticks
        )
        assert counter_value(
            families, "repro_controller_recovery_seconds_total"
        ) == pytest.approx(stats.recovery_seconds)
        samples = families["repro_recovery_seconds"]["samples"]
        recovering_ticks = sum(
            1 for record in controller.telemetry if record.recovery_seconds > 0
        )
        assert samples[("repro_recovery_seconds_count", ())] == recovering_ticks
        phase_counts = families["repro_tick_phase_seconds"]["samples"]
        assert (
            phase_counts[
                ("repro_tick_phase_seconds_count", (("phase", "recovery"),))
            ]
            >= 1
        )

    def test_live_scrape_over_http(self, synthetic_stack, series_maker):
        registry = MetricsRegistry()
        scrapes = []

        rng = np.random.default_rng(903)
        n_streams, length = 6, 5
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        cluster = ShardedEngine(factory, 2, transport="inproc")

        with MetricsServer(registry, port=0) as server:
            def scrape_mid_run(record):
                if record.tick != 3:
                    return
                with urllib.request.urlopen(server.url, timeout=10) as response:
                    assert response.status == 200
                    assert "0.0.4" in response.headers["Content-Type"]
                    scrapes.append(response.read().decode("utf-8"))

            controller = ServingController(
                cluster,
                owns_engine=True,
                metrics=registry,
                on_tick=scrape_mid_run,
            )
            with controller:
                for t in range(length):
                    controller.tick(tick_frames(series, ids, t))
            health = urllib.request.urlopen(
                f"http://{server.host}:{server.port}/healthz", timeout=10
            )
            assert health.read() == b"ok\n"

        (text,) = scrapes
        families = parse_prometheus(text)
        # Mid-run scrape: publication runs before on_tick, so tick 3's
        # counters (3 completed ticks) are already visible.
        assert counter_value(families, "repro_controller_ticks_total") == 3


# ---------------------------------------------------------------------------
# Live scrape of a serving process
# ---------------------------------------------------------------------------

class TestLiveScrape:
    @pytest.mark.slow
    def test_mid_run_scrape_of_a_two_shard_pipe_cluster(self, tmp_path):
        # Scrape a serve-cluster run on an ephemeral metrics port while
        # it serves.  The endpoint is up before the controller binds its
        # families, and a scrape can land between a tick's counts and
        # its gauges: a refused connection, a missing family and a
        # missing sample all mean "scrape again".
        import os
        import pathlib
        import re
        import signal
        import subprocess
        import sys
        import time

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        log = tmp_path / "serve.log"
        with open(log, "w") as out:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve-cluster", "--smoke",
                    "--streams", "32", "--ticks", "200", "--shards", "2",
                    "--threshold", "0.5", "--metrics-port", "0",
                    "--telemetry-window", "64",
                ],
                env=env,
                stdout=out,
                stderr=subprocess.STDOUT,
                start_new_session=True,  # one process group: parent + workers
            )

        def sample(families, name):
            family = families.get(name)
            return family["samples"].get((name, ())) if family else None

        try:
            deadline = time.monotonic() + 300.0
            url = None
            while url is None:
                found = re.search(r"serving metrics at (\S+)", log.read_text())
                if found:
                    url = found.group(1)
                    break
                assert proc.poll() is None, log.read_text()
                assert time.monotonic() < deadline, "no metrics endpoint"
                time.sleep(0.02)
            while True:
                assert proc.poll() is None, "never scraped a mid-run tick"
                assert time.monotonic() < deadline, "never scraped a tick"
                try:
                    with urllib.request.urlopen(url, timeout=2) as response:
                        families = parse_prometheus(response.read().decode())
                except OSError:
                    time.sleep(0.02)
                    continue
                ticks = sample(families, "repro_controller_ticks_total")
                shards = sample(families, "repro_controller_shards")
                if ticks and shards is not None:
                    break
                time.sleep(0.02)
            assert shards == 2, f"expected 2 shards, scraped {shards}"
            assert "repro_tick_latency_seconds" in families
            assert proc.wait(timeout=300) == 0, log.read_text()
        finally:
            if proc.poll() is None:
                # Orphaned pipe workers would outlive the test otherwise.
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


# ---------------------------------------------------------------------------
# Telemetry window satellite
# ---------------------------------------------------------------------------

class TestTelemetryWindow:
    def test_window_is_configurable_and_surfaced(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(904)
        n_streams, length = 4, 5
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        with ServingController(factory(), telemetry_window=3) as controller:
            for t in range(length):
                controller.tick(tick_frames(series, ids, t))
            assert len(controller.telemetry) == 3
            assert [r.tick for r in controller.telemetry] == [3, 4, 5]
            assert controller.stats.telemetry_window == 3
            assert controller.stats.as_dict()["telemetry_window"] == 3

    def test_default_window_unchanged(self, synthetic_stack):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        with ServingController(factory()) as controller:
            assert controller.telemetry.maxlen == 4096
            assert controller.stats.telemetry_window == 4096

    def test_invalid_window_rejected(self, synthetic_stack):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        with pytest.raises(ValidationError, match="telemetry_window"):
            ServingController(factory(), telemetry_window=0)
