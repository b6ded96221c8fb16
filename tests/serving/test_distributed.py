"""Distributed tracing + SLO tests: rebasing, timelines, burn rates.

The guarantees under test:

* clock rebasing is exact arithmetic (NTP midpoint +/- RTT/2), and a
  scripted clock skew is recovered bit-exactly;
* timeline assembly always *nests*: every rebased worker span lands
  strictly inside its shard's ``await_window`` envelope, no matter how
  skewed the injected worker clock is;
* the trace-context/telemetry side channel is invisible to payloads --
  a traced cluster run is bitwise-identical to an untraced one, on
  every transport -- and the merged timeline is structurally identical
  across inproc/pipe/tcp;
* a worker request that raises aborts its trace (no leaked open spans);
* SLO burn rates computed live agree exactly with the offline
  recomputation from recorded telemetry;
* the Chrome trace-event export validates, from both the live exporter
  and a flight-log reconstruction.
"""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.core.monitor import UncertaintyMonitor
from repro.exceptions import ValidationError
from repro.serving import (
    SLO,
    MetricsRegistry,
    MetricsServer,
    ServingController,
    ShardedEngine,
    SLOTracker,
    StreamFrame,
    StreamingEngine,
    TcpTransport,
    TickTracer,
    TraceExporter,
    assemble_tick_timeline,
    estimate_clock_offset,
    timeline_from_flight,
    write_trace_events,
)
from repro.serving.observability import (
    FlightRecorder,
    FlightRecordingTransport,
    parse_prometheus,
    recompute_burn_rates,
    trace_events,
    validate_trace_events,
)
from repro.serving.observability.distributed import burn_rate
from repro.serving.observability.tracing import SpanRecord, TickTrace
from repro.serving.protocol import (
    TELEMETRY_META_KEY,
    TRACE_META_KEY,
    decode_reply,
    decode_request,
    encode_reply,
    encode_request,
)
from repro.serving.transport import WorkerServicer, serve_worker


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


def counter_value(families, name, **labels):
    key = (name, tuple(sorted(labels.items())))
    return families[name]["samples"][key]


# ---------------------------------------------------------------------------
# Clock rebasing
# ---------------------------------------------------------------------------

class TestClockOffset:
    def test_midpoint_estimate_is_exact_arithmetic(self):
        offset, uncertainty = estimate_clock_offset(10.0, 10.2, 110.1)
        assert offset == pytest.approx(-100.0)
        assert uncertainty == pytest.approx(0.1)

    def test_skewed_worker_clock_is_recovered(self):
        # A worker whose clock runs 1234.5s ahead, observed through a
        # symmetric 40ms round trip, rebases exactly.
        t_request, rtt, skew = 50.0, 0.04, 1234.5
        worker_read = t_request + rtt / 2 + skew
        offset, uncertainty = estimate_clock_offset(
            t_request, t_request + rtt, worker_read
        )
        assert offset == pytest.approx(-skew)
        assert uncertainty == pytest.approx(rtt / 2)
        assert worker_read + offset == pytest.approx(t_request + rtt / 2)

    def test_non_monotonic_reads_are_rejected(self):
        with pytest.raises(ValidationError, match="precedes"):
            estimate_clock_offset(10.0, 9.0, 0.0)


# ---------------------------------------------------------------------------
# Timeline assembly + containment
# ---------------------------------------------------------------------------

def synthetic_trace(tick=7):
    """A controller trace with two await_window envelopes on [1.0, 1.4]."""
    return TickTrace(
        tick=tick,
        spans=(
            SpanRecord("intake", 0.05, {}, 0.90),
            SpanRecord("step", 0.45, {"frames": 8}, 0.95),
            SpanRecord("await_window", 0.40, {"shard": 0}, 1.00),
            SpanRecord("await_window", 0.35, {"shard": 1}, 1.02),
            SpanRecord("external", 0.01, {}),  # no start: duration-only
        ),
    )


def worker_record(base, *, send=None, done=None):
    """Shard telemetry on a worker clock starting at ``base``."""
    record = {
        "telemetry": {
            "tick": 7,
            "recv": [base, base + 0.01],
            "decoded": base + 0.02,
            "stepped": base + 0.30,
            "prev_encode": 0.0,
            "prev_send": 0.0,
        }
    }
    if send is not None:
        record["send"] = send
    if done is not None:
        record["done"] = done
    return record


class TestTimelineAssembly:
    def test_worker_spans_rebase_and_nest_inside_envelope(self):
        # Worker clocks wildly skewed in both directions; offsets from
        # the handshake rebase them back inside [1.0, 1.4] / [1.02, 1.37].
        records = {
            0: worker_record(5000.0, send=1.01, done=1.39),
            1: worker_record(-300.0, send=1.03, done=1.36),
        }
        offsets = {
            0: {"offset": 1.0 - 5000.0 + 0.02, "uncertainty": 0.01},
            1: -(-300.0) + 1.03,
        }
        timeline = assemble_tick_timeline(synthetic_trace(), records, offsets)
        assert timeline.tick == 7
        envelopes = {
            span.meta["shard"]: span
            for span in timeline.spans
            if span.name == "await_window"
        }
        assert set(envelopes) == {0, 1}
        for shard in (0, 1):
            workers = [
                span
                for span in timeline.spans
                if span.track == f"shard {shard} worker"
            ]
            assert [span.name for span in workers] == [
                "worker", "recv", "decode", "step",
            ]
            parent = envelopes[shard]
            for span in workers:
                assert span.start > parent.start
                assert span.end < parent.end
                assert span.seconds >= 0.0

    def test_extreme_skew_still_contained(self):
        # An offset that is plain wrong (handshake jitter) must clamp,
        # not escape the envelope.
        records = {0: worker_record(0.0, send=1.01, done=1.39)}
        timeline = assemble_tick_timeline(
            synthetic_trace(), records, {0: 99.0}
        )
        parent = next(
            s for s in timeline.spans if s.name == "await_window"
            and s.meta["shard"] == 0
        )
        for span in timeline.spans:
            if span.track == "shard 0 worker":
                assert parent.start < span.start <= span.end < parent.end

    def test_spans_without_start_are_skipped(self):
        timeline = assemble_tick_timeline(synthetic_trace())
        assert all(span.name != "external" for span in timeline.spans)
        assert timeline.tracks() == ("controller",)

    def test_missing_telemetry_yields_no_worker_track(self):
        records = {0: {"send": 1.0, "done": 1.4, "telemetry": None}}
        timeline = assemble_tick_timeline(synthetic_trace(), records, {})
        assert timeline.tracks() == ("controller",)

    def test_assembly_is_deterministic(self):
        records = {
            0: worker_record(5000.0, send=1.01, done=1.39),
            1: worker_record(-300.0, send=1.03, done=1.36),
        }
        offsets = {0: -4998.98, 1: 301.03}
        a = assemble_tick_timeline(synthetic_trace(), records, offsets)
        b = assemble_tick_timeline(synthetic_trace(), dict(records), offsets)
        assert a.as_dict() == b.as_dict()


class TestTraceEventExport:
    def test_events_validate_and_rebase_to_origin(self, tmp_path):
        records = {0: worker_record(5000.0, send=1.01, done=1.39)}
        timeline = assemble_tick_timeline(
            synthetic_trace(), records, {0: -4998.98}
        )
        path = write_trace_events(tmp_path / "trace.json", [timeline])
        payload = json.loads(path.read_text())
        complete = validate_trace_events(payload)
        assert complete == len(timeline.spans)
        names = {
            event["args"]["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert names == {"controller", "shard 0 worker"}
        # Events are microseconds relative to the earliest span.
        ts = [
            event["ts"]
            for event in payload["traceEvents"]
            if event["ph"] == "X"
        ]
        assert min(ts) == 0.0

    def test_negative_timestamps_are_rejected(self):
        events = trace_events(
            [assemble_tick_timeline(synthetic_trace())], origin=100.0
        )
        with pytest.raises(ValidationError, match="negative"):
            validate_trace_events({"traceEvents": events})

    def test_envelope_shape_is_validated(self):
        with pytest.raises(ValidationError, match="traceEvents"):
            validate_trace_events([])
        with pytest.raises(ValidationError, match="missing"):
            validate_trace_events({"traceEvents": [{"name": "x"}]})


# ---------------------------------------------------------------------------
# Protocol side channel
# ---------------------------------------------------------------------------

class TestTraceProtocol:
    def test_trace_meta_round_trips_and_is_stripped(self):
        trace = {
            "tick": 3, "shard": 1, "parent": "await_window", "sampled": True
        }
        data = encode_request("ids", None, trace=trace).join()
        command, payload, decoded, tick = decode_request(data)
        # The side channel is stripped before the command decoder runs.
        assert (command, payload, tick) == ("ids", None, None)
        assert decoded == trace

    def test_untraced_frames_are_byte_identical(self):
        assert encode_request("ids", None).join() == encode_request(
            "ids", None, trace=None
        ).join()
        _, _, trace, _ = decode_request(encode_request("ids", None).join())
        assert trace is None

    def test_telemetry_meta_round_trips_and_is_stripped(self):
        telemetry = {"tick": 3, "recv": [1.0, 2.0]}
        data = encode_reply("ids", ("ok", ["a"]), telemetry=telemetry).join()
        reply, decoded, tick = decode_reply(data, "ids")
        assert reply == ("ok", ["a"])
        assert decoded == telemetry
        assert tick is None

    def test_error_replies_never_carry_telemetry(self):
        data = encode_reply("ids", ("error", "ClusterError", "boom")).join()
        reply, telemetry, _ = decode_reply(data, "ids")
        assert reply == ("error", "ClusterError", "boom")
        assert telemetry is None

    def test_reserved_keys_are_real_constants(self):
        assert TRACE_META_KEY == "_trace"
        assert TELEMETRY_META_KEY == "_telemetry"


# ---------------------------------------------------------------------------
# Worker-side tracing
# ---------------------------------------------------------------------------

class TestWorkerTracing:
    def test_failed_request_aborts_its_trace(self, synthetic_stack):
        engine = make_factory(synthetic_stack)()
        tracer = TickTracer()
        servicer = WorkerServicer(engine, tracer=tracer)
        with pytest.raises(Exception, match="unknown worker command"):
            servicer.handle("bogus", None)
        # The satellite fix: the failed request's spans must not linger.
        assert tracer.open_spans == []
        # The next request starts from a clean trace.
        assert servicer.handle("ids", None) == []
        assert [span.name for span in tracer.open_spans] == ["handle"]

    def test_note_request_piggybacks_only_sampled_traces(self, synthetic_stack):
        engine = make_factory(synthetic_stack)()
        tracer = TickTracer()
        servicer = WorkerServicer(engine, tracer=tracer)
        servicer.handle("ids", None)
        telemetry = servicer.note_request(
            {"tick": 4, "sampled": True}, 1.0, 1.1, 1.2, 1.5, 0.01, 0.02
        )
        assert telemetry == {
            "tick": 4,
            "recv": [1.0, 1.1],
            "decoded": 1.2,
            "stepped": 1.5,
            "prev_encode": 0.01,
            "prev_send": 0.02,
        }
        assert tracer.last.tick == 4
        assert tracer.open_spans == []  # tick was closed
        names = [span.name for span in tracer.last.spans]
        assert names == ["handle", "recv", "decode", "step", "encode", "send"]

        servicer.handle("ids", None)
        assert servicer.note_request(None, 1.0, 1.1, 1.2, 1.5) is None
        assert tracer.open_spans == []  # unsampled requests close too

    def test_untraced_servicer_is_the_bare_call(self, synthetic_stack):
        engine = make_factory(synthetic_stack)()
        servicer = WorkerServicer(engine)
        assert servicer.tracer is None
        assert servicer.handle("ids", None) == []


# ---------------------------------------------------------------------------
# Cluster integration
# ---------------------------------------------------------------------------

def run_outcomes(per_stream):
    return {
        stream_id: [result.outcome for result in results]
        for stream_id, results in per_stream.items()
    }


class TestClusterTracing:
    def run_plain(self, factory, series, ids, length, transport="pipe"):
        results = []
        with ShardedEngine(factory, 2, transport=transport) as cluster:
            for t in range(length):
                results.append(
                    cluster.step_batch(tick_frames(series, ids, t))
                )
        return results

    def run_traced(self, factory, series, ids, length, transport="pipe"):
        tracer = TickTracer()
        results = []
        timelines = []
        with ShardedEngine(factory, 2, transport=transport) as cluster:
            controller = ServingController(cluster, tracer=tracer)
            with controller:
                for t in range(length):
                    results.append(
                        controller.tick(tick_frames(series, ids, t))
                    )
                    timelines.append(
                        assemble_tick_timeline(
                            tracer.last,
                            (cluster.last_rpc or {}).get("shards"),
                            cluster.clock_offsets,
                        )
                    )
            stats = cluster.fanout_stats()
        return results, timelines, stats

    def test_traced_run_is_bitwise_identical(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(702)
        n_streams, length = 8, 5
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())

        plain = self.run_plain(factory, series, ids, length)
        traced, timelines, stats = self.run_traced(
            factory, series, ids, length
        )
        assert [
            [r.outcome for r in tick] for tick in plain
        ] == [[r.outcome for r in tick] for tick in traced]

        # Every tick merged both shards' worker spans into the timeline.
        for timeline in timelines:
            await_windows = [
                s for s in timeline.spans if s.name == "await_window"
            ]
            assert len(await_windows) == 2
            assert {f"shard {s} worker" for s in (0, 1)} <= set(
                timeline.tracks()
            )

        # Satellite: fanout_stats exposes per-shard worker phase time.
        phases = stats["worker_phase_seconds"]
        assert set(phases) == {0, 1}
        for shard_phases in phases.values():
            assert set(shard_phases) == {
                "recv", "decode", "step", "encode", "send",
            }
            assert shard_phases["step"] > 0.0

    def test_untraced_cluster_records_no_rpc_state(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(703)
        series = series_maker(rng, n_series=4, length=3)
        ids = [f"s{sid}" for sid in range(4)]
        factory = make_factory(synthetic_stack)
        with ShardedEngine(factory, 2, transport="pipe") as cluster:
            for t in range(3):
                cluster.step_batch(tick_frames(series, ids, t))
            assert cluster.last_rpc is None
            # No telemetry collected: the key is omitted entirely, not
            # published as a misleading empty breakdown.
            assert "worker_phase_seconds" not in cluster.fanout_stats()

    @pytest.mark.parametrize("transport", ["inproc", "pipe", "tcp"])
    def test_merged_timeline_is_structurally_stable(
        self, synthetic_stack, series_maker, transport
    ):
        from repro.serving import launch_local_workers, stop_local_workers

        rng = np.random.default_rng(704)
        n_streams, length = 6, 4
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())

        if transport == "tcp":
            addresses, processes = launch_local_workers(factory, 2)
            spec = TcpTransport(addresses)
        else:
            processes = None
            spec = transport
        try:
            _, timelines, _ = self.run_traced(
                factory, series, ids, length, transport=spec
            )
        finally:
            if processes is not None:
                stop_local_workers(processes)

        for timeline in timelines:
            for shard in (0, 1):
                track = f"shard {shard} worker"
                workers = [
                    s for s in timeline.spans if s.track == track
                ]
                # The same nested structure on every transport -- inproc
                # synthesizes zero-width recv/decode so the shape holds.
                assert [s.name for s in workers] == [
                    "worker", "recv", "decode", "step",
                ]
                parent = next(
                    s
                    for s in timeline.spans
                    if s.name == "await_window" and s.meta["shard"] == shard
                )
                for span in workers:
                    assert parent.start < span.start
                    assert span.end < parent.end

    def test_inproc_clock_offsets_are_zero(
        self, synthetic_stack, series_maker
    ):
        factory = make_factory(synthetic_stack)
        with ShardedEngine(factory, 2, transport="inproc") as cluster:
            for entry in cluster.clock_offsets.values():
                assert entry == {"offset": 0.0, "uncertainty": 0.0}

    def test_pipe_clock_offsets_come_from_handshake(
        self, synthetic_stack
    ):
        factory = make_factory(synthetic_stack)
        with ShardedEngine(factory, 2, transport="pipe") as cluster:
            offsets = cluster.clock_offsets
            assert set(offsets) == {0, 1}
            for entry in offsets.values():
                assert entry["uncertainty"] > 0.0


# ---------------------------------------------------------------------------
# Flight-log reconstruction + exporter
# ---------------------------------------------------------------------------

class TestFlightTimeline:
    def test_flight_log_reconstructs_a_timeline(
        self, synthetic_stack, series_maker, tmp_path
    ):
        rng = np.random.default_rng(705)
        n_streams, length = 6, 4
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack)

        recorder = FlightRecorder(tmp_path / "flight")
        transport = FlightRecordingTransport("pipe", recorder)
        with ShardedEngine(factory, 2, transport=transport) as cluster:
            for t in range(length):
                cluster.step_batch(tick_frames(series, ids, t))
        recorder.close()

        timelines = timeline_from_flight(tmp_path / "flight")
        assert len(timelines) == length
        for timeline in timelines:
            shards = sorted(span.meta["shard"] for span in timeline.spans)
            assert shards == [0, 1]
            for span in timeline.spans:
                assert span.name == "await_window"
                assert span.seconds >= 0.0
                assert span.meta["status"] == "ok"

        path = write_trace_events(tmp_path / "trace.json", timelines)
        assert validate_trace_events(json.loads(path.read_text())) == 2 * length

    def test_exporter_writes_a_valid_contained_trace(
        self, synthetic_stack, series_maker, tmp_path
    ):
        rng = np.random.default_rng(706)
        n_streams, length = 6, 4
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())

        tracer = TickTracer()
        with TraceExporter(tmp_path / "traces") as exporter:
            with ShardedEngine(factory, 2, transport="pipe") as cluster:
                controller = ServingController(
                    cluster,
                    tracer=tracer,
                    on_tick=lambda record: exporter.observe(
                        tracer.last, cluster
                    ),
                )
                with controller:
                    for t in range(length):
                        controller.tick(tick_frames(series, ids, t))
        path = tmp_path / "traces" / "trace.json"
        payload = json.loads(path.read_text())
        assert validate_trace_events(payload) > 0

        # Containment in the exported file itself: every worker-track
        # event nests inside its tick's await_window on the same shard.
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        envelopes = {
            (event["args"]["tick"], event["args"]["shard"]): event
            for event in events
            if event["name"] == "await_window"
        }
        worker_events = [e for e in events if e["name"] == "worker"]
        assert worker_events
        for event in worker_events:
            parent = envelopes[
                (event["args"]["tick"], event["args"]["shard"])
            ]
            assert parent["ts"] < event["ts"]
            assert (
                event["ts"] + event["dur"] < parent["ts"] + parent["dur"]
            )


# ---------------------------------------------------------------------------
# Live worker scrape
# ---------------------------------------------------------------------------

class TestLiveWorkerMetrics:
    def test_worker_phase_histogram_is_scrapable(
        self, synthetic_stack, series_maker
    ):
        rng = np.random.default_rng(707)
        n_streams, length = 6, 4
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack)

        registry = MetricsRegistry()
        ready = threading.Event()
        bound = {}

        def announce(port):
            bound["addr"] = ("127.0.0.1", port)
            ready.set()

        worker = threading.Thread(
            target=serve_worker,
            args=(factory,),
            kwargs=dict(
                max_connections=1, ready_callback=announce, metrics=registry
            ),
            daemon=True,
        )
        worker.start()
        assert ready.wait(10.0)

        server = MetricsServer(registry, port=0)
        try:
            tracer = TickTracer()
            with ShardedEngine(
                factory, 1, transport=TcpTransport([bound["addr"]])
            ) as cluster:
                cluster.tracer = tracer
                for t in range(length):
                    cluster.step_batch(tick_frames(series, ids, t))
                    tracer.end_tick(t)
                with urllib.request.urlopen(
                    server.url, timeout=10.0
                ) as response:
                    families = parse_prometheus(
                        response.read().decode("utf-8")
                    )
            worker.join(10.0)
        finally:
            server.close()

        assert (
            counter_value(
                families, "repro_worker_requests_total", command="step"
            )
            == length
        )
        phase_count = families["repro_worker_phase_seconds"]["samples"]
        for phase in ("recv", "decode", "step"):
            key = (
                "repro_worker_phase_seconds_count",
                (("phase", phase),),
            )
            assert phase_count[key] == length


# ---------------------------------------------------------------------------
# SLOs + burn rates
# ---------------------------------------------------------------------------

class TestSLO:
    def test_slo_validation_is_loud(self):
        with pytest.raises(ValidationError, match="budget_seconds"):
            SLO("p99", 0.0)
        with pytest.raises(ValidationError, match="target"):
            SLO("p99", 0.01, target=1.0)
        with pytest.raises(ValidationError, match="short_window"):
            SLO("p99", 0.01, short_window=0)
        with pytest.raises(ValidationError, match="slow_burn"):
            SLO("p99", 0.01, fast_burn=1.0, slow_burn=2.0)
        with pytest.raises(ValidationError, match="at least one"):
            SLOTracker([])
        with pytest.raises(ValidationError, match="duplicate"):
            SLOTracker([SLO("a", 0.01), SLO("a", 0.02)])

    def test_burn_rate_arithmetic(self):
        assert burn_rate(0, 100, 0.99) == 0.0
        assert burn_rate(1, 100, 0.99) == pytest.approx(1.0)
        assert burn_rate(50, 100, 0.99) == pytest.approx(50.0)
        assert burn_rate(0, 0, 0.99) == 0.0

    def test_multi_window_alerting_needs_both_windows(self):
        slo = SLO(
            "p99", 0.010, target=0.9,
            short_window=2, long_window=6,
            fast_burn=8.0, slow_burn=4.0,
        )
        tracker = SLOTracker([slo])
        # Good ticks: no breach, no alert.
        for _ in range(4):
            (verdict,) = tracker.observe(0.001)
            assert not verdict.breached and verdict.severity is None
        # One bad tick: the short window burns (1/2)/0.1 = 5.0 but the
        # long window (1/5)/0.1 = 2.0 stays under slow_burn -- no page.
        (verdict,) = tracker.observe(0.100)
        assert verdict.breached
        assert verdict.burn_short == pytest.approx(5.0)
        assert verdict.severity is None
        # Sustained badness: both windows exceed fast_burn -> "fast".
        for _ in range(5):
            (verdict,) = tracker.observe(0.100)
        assert verdict.burn_short == pytest.approx(10.0)
        assert verdict.severity == "fast"
        assert verdict.alerting
        assert tracker.breaches("p99") == 6
        assert tracker.alerts("p99")["fast"] >= 1

    def test_offline_recomputation_matches_live(self):
        rng = np.random.default_rng(708)
        slo = SLO("p99", 0.005, target=0.95, short_window=7, long_window=20)
        tracker = SLOTracker([slo])
        latencies = list(rng.uniform(0.0, 0.01, size=50))
        for latency in latencies:
            tracker.observe(latency)
        live = tracker.burn_rates("p99")
        offline = recompute_burn_rates(latencies, slo)
        assert live == offline  # bit-exact, not approx

    def test_controller_feeds_the_tracker(self, synthetic_stack, series_maker):
        rng = np.random.default_rng(709)
        n_streams, length = 6, 8
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack)

        # A scripted controller clock: latency alternates 1ms / 20ms
        # against a 5ms budget, so breaches land on exactly the odd ticks.
        reads = []
        for t in range(length):
            reads += [float(t), float(t) + (0.020 if t % 2 else 0.001)]

        def clock():
            return reads.pop(0) if reads else 99.0

        slo = SLOTracker(
            [SLO("p99_latency", 0.005, target=0.9, short_window=4,
                 long_window=8)]
        )
        controller = ServingController(factory(), clock=clock, slo=slo)
        with controller:
            for t in range(length):
                controller.tick(tick_frames(series, ids, t))

        assert controller.stats.slo_breaches == length // 2
        breached_ticks = [
            record.slo_breaches for record in controller.telemetry
        ]
        assert breached_ticks == [0, 1] * (length // 2)
        # Live state agrees with the offline recomputation from the very
        # telemetry the controller recorded.
        latencies = [
            record.latency_seconds for record in controller.telemetry
        ]
        assert slo.burn_rates("p99_latency") == recompute_burn_rates(
            latencies, slo.objectives[0]
        )
        last = controller.telemetry[-1]
        assert last.slo_burn_rate == pytest.approx(
            slo.burn_rates("p99_latency")["short"]
        )

    def test_slo_metrics_are_published(self, synthetic_stack, series_maker):
        rng = np.random.default_rng(710)
        n_streams, length = 4, 6
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack)

        registry = MetricsRegistry()
        slo = SLOTracker([SLO("p99_latency", 1e-9, target=0.9)])  # all breach
        controller = ServingController(
            factory(), metrics=registry, slo=slo
        )
        with controller:
            for t in range(length):
                controller.tick(tick_frames(series, ids, t))

        families = parse_prometheus(registry.render_prometheus())
        assert (
            counter_value(
                families, "repro_slo_breaches_total", slo="p99_latency"
            )
            == length
        )
        burn_short = counter_value(
            families, "repro_slo_burn_rate", slo="p99_latency", window="short"
        )
        assert burn_short == pytest.approx(
            slo.burn_rates("p99_latency")["short"]
        )

    def test_tracker_as_dict_is_json_safe(self):
        tracker = SLOTracker([SLO("p99", 0.01)])
        tracker.observe(0.5)
        snapshot = tracker.as_dict()
        json.dumps(snapshot)
        assert snapshot["ticks"] == 1
        assert snapshot["objectives"]["p99"]["breaches"] == 1
