"""Cluster scaling: sharded serving vs shard count, on every transport.

The sharded cluster's claim is threefold.  *Correctness*: partitioning
1024 concurrent streams across shard workers by consistent hashing and
merging each tick in input order is bitwise-identical to one
single-process ``StreamingEngine`` -- asserted here unconditionally, for
every transport (inproc, pipe, TCP loopback) at every shard count.
*Scaling*: because a tick's per-stream work is embarrassingly parallel,
4 pipe shards should deliver >= 2x the frames/sec of 1 shard at 1024+
streams.  *Overlap*: the parent encodes shard k+1's payload while shard k
is already computing, so fan-out serialization is no longer a serial
prefix of the tick -- the overlap window is measured and asserted > 0,
and recorded in ``BENCH_cluster.json`` so the perf trajectory stays
comparable across PRs.

The scaling gate is hardware-gated: it measures real multi-core
parallelism, so it only asserts when the machine grants this process at
least 4 usable cores (CI runners do; a 1-core sandbox physically cannot
run 4 workers concurrently).  The measurement itself always runs and is
recorded either way, with the gate's status spelled out.  The in-proc
transport doubles as the single-shard no-regression check: one inproc
shard is the single-process engine plus the cluster's tick path (column
stacking, dispatch, result assembly), so its throughput must stay within
a small factor of the plain engine's.  That
ratio is measured warm: one discarded warm-up replay per side, then
interleaved best-of-``INPROC_GATE_REPEATS`` replays, so a cold first
tick or a noisy neighbour on one side cannot decide the gate.
"""

import statistics
import time

import numpy as np
import pytest

from _blocks import interleaved
from repro.core.monitor import UncertaintyMonitor
from repro.serving import (
    SLO,
    ServingController,
    ShardedEngine,
    SLOTracker,
    StreamingEngine,
    TcpTransport,
    TickTracer,
    build_stream_workload,
    launch_local_workers,
    replay_results,
    stop_local_workers,
)

N_STREAMS = 1024
N_TICKS = 6
SHARD_COUNTS = (1, 2, 4)
TRANSPORTS = ("inproc", "pipe", "tcp")
MIN_SPEEDUP_4_VS_1 = 2.0
MIN_CORES_FOR_GATE = 4
# PR-7 fan-out encode cost on pipe x 4, per tick, before the buffer-pool
# codec landed (BENCH_cluster.json at ee5bc6e: 0.112246 s over 6 ticks).
# The pooled encode-into path must at least halve it -- this is the
# tentpole's perf acceptance gate, and unlike the scaling gate it holds
# on any core count (it measures parent-side encode work, not
# parallelism).
BASELINE_ENCODE_SECONDS_PER_TICK = 0.11224608399970748 / 6
MAX_ENCODE_RELATIVE_TO_BASELINE = 0.5
# One inproc shard = the single engine's columnar core + payload stacking,
# dispatch and result assembly at the parent; anything below this would
# mean the cluster's tick path regressed against the engine it wraps.
MIN_INPROC_1SHARD_RELATIVE = 0.5
# Timed replays per side behind that floor, after one warm-up each.
INPROC_GATE_REPEATS = 5
# With 4 evenly loaded shards, a sizable share of the parent's encode
# CPU lands after the first shard's payload is already in flight (every
# later shard's build + send).  A serial build-everything-then-send
# design scores near 0 here (only the later send syscalls count), so
# this floor is what actually enforces the overlap claim.
MIN_OVERLAP_FRACTION_OF_ENCODE = 0.3
# Distributed tracing (trace contexts on requests, piggybacked worker
# telemetry on replies, per-tick timeline assembly) must stay cheap:
# the traced median tick within this factor of the untraced one.
TRACING_OVERHEAD_MAX = 1.5
# The overhead is read from interleaved plain/traced blocks (ABBA order,
# GC on), each block a fresh 2-shard pipe run of TRACING_TICKS ticks
# whose first, cold tick is dropped; the medians pool every warm tick of
# a side.  GC off is a labelled secondary number with fewer blocks.
TRACING_REPEATS = 4
TRACING_REPEATS_GC_OFF = 2
TRACING_TICKS = 16
# The SLO the traced bench run declares: generous enough that a healthy
# run records verdicts without manufacturing breaches.
BENCH_SLO_BUDGET_SECONDS = 5.0
# Pipelining gate: with one shard's round trips slowed by an emulated
# send-anchored RTT, a window-2 run overlaps the latency (tick t+1 is on
# the wire while tick t's delayed reply is pending) and converges on
# DELAY/2 per tick where lockstep pays the full DELAY.  The ideal
# speedup is 2x; 1.5x tolerates parent-side serial work (admission,
# merge, encode) up to DELAY/2 per tick -- an order of magnitude above
# what this workload measures -- so the gate holds on a loaded runner.
MIN_PIPELINE_SPEEDUP = 1.5
PIPELINE_DELAY_SECONDS = 0.2
PIPELINE_WINDOW = 2


@pytest.fixture(scope="module")
def workload(study_data):
    rng = np.random.default_rng(20240)
    return build_stream_workload(study_data.feature_model, N_STREAMS, N_TICKS, rng)


@pytest.fixture(scope="module")
def engine_factory(study_data):
    def factory():
        return StreamingEngine(
            ddm=study_data.ddm,
            stateless_qim=study_data.stateless_qim,
            timeseries_qim=study_data.ta_qim,
            layout=study_data.layout,
            monitor_factory=lambda: UncertaintyMonitor(threshold=0.35),
        )

    return factory


def _cluster_run(engine_factory, transport_name, n_shards, workload, addresses):
    """One timed replay on the given transport; returns results + stats."""
    transport = (
        TcpTransport(addresses) if transport_name == "tcp" else transport_name
    )
    with ShardedEngine(engine_factory, n_shards, transport=transport) as cluster:
        start = time.perf_counter()
        results = replay_results(cluster, workload)
        seconds = time.perf_counter() - start
        fanout = cluster.fanout_stats()
    return results, seconds, fanout


def _timed_replay(engine, workload):
    start = time.perf_counter()
    results = replay_results(engine, workload)
    return results, time.perf_counter() - start


def _warm_single_vs_inproc(engine_factory, workload):
    """Best warm seconds of the single engine and of a 1-shard inproc
    cluster: a discarded warm-up replay each, then
    ``INPROC_GATE_REPEATS`` timed replays alternating between the two,
    each on a fresh engine, so drift on the host hits both sides alike.
    Returns the single engine's results and both best times."""
    single, inproc = [], []
    for _ in range(INPROC_GATE_REPEATS + 1):
        results, seconds = _timed_replay(engine_factory(), workload)
        single.append(seconds)
        with ShardedEngine(engine_factory, 1, transport="inproc") as cluster:
            inproc.append(_timed_replay(cluster, workload)[1])
    return results, min(single[1:]), min(inproc[1:])


def _controlled_pipe_run(engine_factory, workload, *, traced):
    """One controller-driven 2-shard pipe replay, plain or fully traced
    (distributed tracing + an SLO tracker).  Returns per-stream results,
    per-tick latencies, fan-out stats, and the SLO tracker (None plain)."""
    tracer = TickTracer() if traced else None
    slo = (
        SLOTracker([SLO("p99_latency", BENCH_SLO_BUDGET_SECONDS)])
        if traced
        else None
    )
    with ShardedEngine(engine_factory, 2) as cluster:
        controller = ServingController(cluster, tracer=tracer, slo=slo)
        per_stream = controller.run(workload.ticks)
        latencies = [t.latency_seconds for t in controller.telemetry]
        fanout = cluster.fanout_stats()
    return per_stream, latencies, fanout, slo


def test_cluster_equivalence_and_scaling(
    study_data, engine_factory, workload, write_output, write_bench_json, usable_cores
):
    single_results, single_seconds, inproc_seconds = _warm_single_vs_inproc(
        engine_factory, workload
    )

    addresses, worker_processes = launch_local_workers(
        engine_factory, max(SHARD_COUNTS)
    )
    seconds = {}
    fanouts = {}
    try:
        for transport_name in TRANSPORTS:
            for n_shards in SHARD_COUNTS:
                results, elapsed, fanout = _cluster_run(
                    engine_factory, transport_name, n_shards, workload, addresses
                )
                seconds[transport_name, n_shards] = elapsed
                fanouts[transport_name, n_shards] = fanout
                assert results == single_results, (
                    f"{n_shards}-shard {transport_name} cluster results "
                    "diverge from the single-process engine (outcomes, "
                    "uncertainties, or verdicts)"
                )
    finally:
        stop_local_workers(worker_processes)

    # One traced 2-shard pipe run: the worker-side phase breakdown and
    # the SLO verdicts ride along in BENCH_cluster.json so the
    # distributed-tracing view of the same workload stays comparable
    # across PRs (the overhead gate lives in its own test below).
    _, traced_latencies, traced_fanout, slo = _controlled_pipe_run(
        engine_factory, workload, traced=True
    )

    scaling = seconds["pipe", 1] / seconds["pipe", 4]
    inproc_relative = single_seconds / inproc_seconds
    overlap = fanouts["pipe", 4]
    cores = usable_cores
    gate_active = cores >= MIN_CORES_FOR_GATE

    lines = [
        f"CLUSTER SCALING ({N_STREAMS} streams x {N_TICKS} ticks, "
        f"{workload.n_frames} frames, monitors on)",
        f"usable cores:          {cores}",
        f"single-process:        {workload.n_frames / single_seconds:,.0f} frames/s "
        f"(warm, best of {INPROC_GATE_REPEATS})",
    ]
    for transport_name in TRANSPORTS:
        for n_shards in SHARD_COUNTS:
            fps = workload.n_frames / seconds[transport_name, n_shards]
            lines.append(
                f"{transport_name:>6} x {n_shards} shard(s):   {fps:>10,.0f} frames/s"
            )
    encode_per_tick = overlap["encode_seconds"] / overlap["ticks"]
    pool_pipe4 = overlap.get("pool", {})
    lines += [
        f"pipe 4 vs 1 shard:     {scaling:.2f}x",
        f"inproc 1-shard vs single-process: {inproc_relative:.2f}x "
        f"(warm, interleaved best of {INPROC_GATE_REPEATS})",
        f"pipe-4 fan-out encode: {overlap['encode_seconds'] * 1e3:.1f} ms total, "
        f"{overlap['overlap_seconds'] * 1e3:.1f} ms overlapped with compute",
        f"pipe-4 encode/tick:    {encode_per_tick * 1e3:.2f} ms "
        f"(PR-7 baseline {BASELINE_ENCODE_SECONDS_PER_TICK * 1e3:.2f} ms, "
        f"gate <= {MAX_ENCODE_RELATIVE_TO_BASELINE:.1f}x)",
        f"pipe-4 codec pool:     {pool_pipe4.get('hits', 0)} hits / "
        f"{pool_pipe4.get('misses', 0)} misses, "
        f"{pool_pipe4.get('bytes_copied', 0) / max(overlap['ticks'], 1) / 1e3:.0f} "
        "kB copied/tick",
        "outputs identical:     True (all transports, all shard counts)",
        f"scaling gate (>= {MIN_SPEEDUP_4_VS_1}x): "
        + ("ASSERTED" if gate_active else f"RECORDED ONLY ({cores} core(s))"),
    ]
    write_output("cluster_scaling.txt", "\n".join(lines) + "\n")

    write_bench_json(
        "cluster",
        {
            "streams": N_STREAMS,
            "ticks": N_TICKS,
            "frames": workload.n_frames,
            "single_process_seconds": single_seconds,
            "single_process_frames_per_sec": workload.n_frames / single_seconds,
            "seconds": {
                f"{t}x{n}": seconds[t, n] for t in TRANSPORTS for n in SHARD_COUNTS
            },
            "frames_per_sec": {
                f"{t}x{n}": workload.n_frames / seconds[t, n]
                for t in TRANSPORTS
                for n in SHARD_COUNTS
            },
            "fanout": {
                f"{t}x{n}": fanouts[t, n] for t in TRANSPORTS for n in SHARD_COUNTS
            },
            "speedup_pipe_4_vs_1": scaling,
            "inproc_1shard_vs_single_process": inproc_relative,
            "inproc_1shard_warm_seconds": inproc_seconds,
            "inproc_gate_repeats": INPROC_GATE_REPEATS,
            "outputs_identical": True,
            "scaling_gate_min": MIN_SPEEDUP_4_VS_1,
            "scaling_gate_asserted": gate_active,
            "codec_pool": {
                "pipe_encode_seconds_per_tick": encode_per_tick,
                "baseline_encode_seconds_per_tick": (
                    BASELINE_ENCODE_SECONDS_PER_TICK
                ),
                "encode_gate_max_relative": MAX_ENCODE_RELATIVE_TO_BASELINE,
                "pipe4": pool_pipe4,
            },
            "tracing": {
                "tick_latency_seconds": traced_latencies,
                "worker_phase_seconds": {
                    str(shard): phases
                    for shard, phases in traced_fanout[
                        "worker_phase_seconds"
                    ].items()
                },
                "slo": slo.as_dict(),
            },
        },
        transport=list(TRANSPORTS),
        shards=list(SHARD_COUNTS),
    )

    # Fan-out encode/compute overlap: with 4 busy shards, the encode
    # CPU spent after the first shard's payload is in flight (i.e. while
    # shard 0 is already computing) must be a substantial fraction of
    # the total encode cost.  A serial build-all-then-send-all
    # regression would collapse this to just the later send syscalls
    # and fail the floor.  This holds on 1 core too -- it measures
    # pipelining of parent encode vs worker compute, not parallel cores.
    assert overlap["ticks"] == N_TICKS
    overlap_fraction = overlap["overlap_seconds"] / overlap["encode_seconds"]
    assert overlap_fraction >= MIN_OVERLAP_FRACTION_OF_ENCODE, (
        f"only {overlap_fraction:.0%} of fan-out encode ran while workers "
        f"were computing (floor {MIN_OVERLAP_FRACTION_OF_ENCODE:.0%}); "
        "parent serialization has regressed toward a serial prefix"
    )

    # Tentpole perf gate: the pooled encode-into codec (no per-segment
    # tobytes, no b"".join, tick-wide payload stacking) must at least
    # halve the PR-7 per-tick fan-out encode cost on pipe x 4.
    assert encode_per_tick <= (
        MAX_ENCODE_RELATIVE_TO_BASELINE * BASELINE_ENCODE_SECONDS_PER_TICK
    ), (
        f"pipe-4 fan-out encode is {encode_per_tick * 1e3:.2f} ms/tick; the "
        f"pooled codec must stay <= {MAX_ENCODE_RELATIVE_TO_BASELINE:.1f}x "
        f"of the PR-7 baseline "
        f"({BASELINE_ENCODE_SECONDS_PER_TICK * 1e3:.2f} ms/tick)"
    )

    # Single-shard no-regression: one inproc shard is the plain engine
    # plus the cluster's tick path, which must not tax it beyond the floor.
    assert inproc_relative >= MIN_INPROC_1SHARD_RELATIVE, (
        f"1-shard inproc cluster fell to {inproc_relative:.2f}x of the "
        f"single-process engine (floor {MIN_INPROC_1SHARD_RELATIVE}x)"
    )

    if gate_active:
        assert scaling >= MIN_SPEEDUP_4_VS_1, (
            f"4 pipe shards must be >= {MIN_SPEEDUP_4_VS_1}x over 1 shard at "
            f"{N_STREAMS} streams on {cores} cores, measured {scaling:.2f}x"
        )
    else:
        pytest.skip(
            f"scaling gate needs >= {MIN_CORES_FOR_GATE} usable cores, have "
            f"{cores}; equivalence asserted, scaling recorded "
            f"({scaling:.2f}x) in BENCH_cluster.json"
        )


@pytest.fixture(scope="module")
def tracing_workload(study_data):
    rng = np.random.default_rng(20241)
    return build_stream_workload(
        study_data.feature_model, N_STREAMS, TRACING_TICKS, rng
    )


def _warm_medians(plain_runs, traced_runs):
    """Median warm tick latency of each side, pooled over its blocks."""
    return tuple(
        statistics.median(s for run in runs for s in run[1][1:])
        for runs in (plain_runs, traced_runs)
    )


def test_tracing_overhead_is_bounded(
    study_data, engine_factory, tracing_workload, write_bench_json
):
    """Distributed tracing must be free in outcomes and cheap in time.

    The same 2-shard pipe workload runs in interleaved plain and fully
    traced blocks (trace contexts on every fan-out request, piggybacked
    worker telemetry, per-tick SLO evaluation).  Every traced block must
    produce bit-identical results -- the side channel rides reserved
    meta keys that are stripped before command decoding, so it cannot
    perturb a single payload byte -- and the traced median warm tick
    must stay within ``TRACING_OVERHEAD_MAX`` of the plain one, GC on.
    """

    def block(traced):
        return lambda: _controlled_pipe_run(
            engine_factory, tracing_workload, traced=traced
        )

    plain_runs, traced_runs = interleaved(
        block(False), block(True), TRACING_REPEATS
    )
    plain_stream = plain_runs[0][0]
    for plain, traced in zip(plain_runs, traced_runs):
        assert plain[0] == plain_stream and traced[0] == plain_stream, (
            "tracing changed results: the trace/telemetry side channel "
            "must be invisible to payload handling"
        )
        # The untraced run must not even collect worker telemetry -- the
        # key is omitted entirely, never published as an empty breakdown.
        assert "worker_phase_seconds" not in plain[2]
        assert traced[3].ticks == TRACING_TICKS
    _, _, traced_fanout, slo = traced_runs[-1]
    phases = traced_fanout["worker_phase_seconds"]
    assert set(phases) == {0, 1}
    assert all(shard["step"] > 0.0 for shard in phases.values())

    plain_median, traced_median = _warm_medians(plain_runs, traced_runs)
    overhead = traced_median / plain_median
    plain_off, traced_off = _warm_medians(
        *interleaved(
            block(False), block(True), TRACING_REPEATS_GC_OFF, gc_enabled=False
        )
    )

    write_bench_json(
        "cluster_tracing",
        {
            "streams": N_STREAMS,
            "ticks": TRACING_TICKS,
            "repeats": TRACING_REPEATS,
            "gc_enabled": True,
            "plain_median_tick_seconds": plain_median,
            "traced_median_tick_seconds": traced_median,
            "tracing_overhead": overhead,
            "tracing_overhead_max": TRACING_OVERHEAD_MAX,
            "secondary_gc_off": {
                "repeats": TRACING_REPEATS_GC_OFF,
                "plain_median_tick_seconds": plain_off,
                "traced_median_tick_seconds": traced_off,
                "tracing_overhead": traced_off / plain_off,
            },
            "outputs_identical": True,
            "worker_phase_seconds": {
                str(shard): shard_phases
                for shard, shard_phases in phases.items()
            },
            "slo": slo.as_dict(),
        },
        transport="pipe",
        shards=2,
    )

    assert overhead <= TRACING_OVERHEAD_MAX, (
        f"traced median tick is {overhead:.2f}x the plain one "
        f"(cap {TRACING_OVERHEAD_MAX}x); the tracing side channel has "
        "become a tax on the serving loop"
    )


def test_snapshot_restore_roundtrip_overhead(
    study_data, engine_factory, workload, tmp_path, write_bench_json
):
    """Snapshot + save + load + restore cost at 1024 streams, and the
    restored cluster's bitwise fidelity on the following ticks -- across
    a transport change (pipe snapshot -> TCP cluster)."""
    with ShardedEngine(engine_factory, 2) as cluster:  # pipe (default)
        warm = workload.ticks[: N_TICKS // 2]
        rest = workload.ticks[N_TICKS // 2 :]
        controller = ServingController(cluster)  # the shared tick driver
        controller.run(warm)

        start = time.perf_counter()
        snapshot = controller.snapshot()
        capture_seconds = time.perf_counter() - start
        start = time.perf_counter()
        snapshot.save(tmp_path / "bench_snap")
        save_seconds = time.perf_counter() - start

        baseline = controller.run(rest)

    from repro.serving import RegistrySnapshot

    start = time.perf_counter()
    loaded = RegistrySnapshot.load(tmp_path / "bench_snap")
    load_seconds = time.perf_counter() - start
    addresses, worker_processes = launch_local_workers(engine_factory, 4)
    try:
        # Different topology AND different transport than the source.
        with ShardedEngine(
            engine_factory, 4, transport=TcpTransport(addresses)
        ) as cluster2:
            controller2 = ServingController(cluster2)
            start = time.perf_counter()
            controller2.restore(loaded)
            restore_seconds = time.perf_counter() - start
            resumed = controller2.run(rest)
    finally:
        stop_local_workers(worker_processes)

    assert resumed == baseline, (
        "restore-then-step must be bitwise-identical to the uninterrupted "
        "run, even across a pipe -> TCP transport change"
    )
    write_bench_json(
        "cluster_snapshot",
        {
            "streams": snapshot.n_streams,
            "capture_seconds": capture_seconds,
            "save_seconds": save_seconds,
            "load_seconds": load_seconds,
            "restore_seconds": restore_seconds,
        },
        transport="pipe->tcp",
        shards="2->4",
    )


def test_pipelined_window_overlaps_slow_shard(
    study_data, engine_factory, workload, write_bench_json
):
    """Windowed ticks must actually buy throughput under shard latency.

    One of two pipe shards answers every step request a send-anchored
    ``PIPELINE_DELAY_SECONDS`` late (the chaos harness's "delay" mode:
    the reply becomes readable DELAY after the request went out, like a
    slow network hop).  A lockstep controller pays the full delay every
    tick; a window-2 controller has tick t+1's shard payloads on the
    wire while tick t's delayed reply is still pending, so two ticks
    complete per delay period.  Gates: windowed throughput >=
    ``MIN_PIPELINE_SPEEDUP`` x lockstep, bitwise-identical per-stream
    results, and the in-flight depth fills the window but never exceeds
    it -- asserted from the cluster's own fan-out stats, the
    controller's stats, and the metrics registry's depth gauge.
    """
    import pathlib
    import sys

    # The chaos harness lives with the serving tests, which the bench
    # conftest does not put on sys.path; borrow it for the delay mode.
    chaos_dir = pathlib.Path(__file__).resolve().parents[1] / "tests" / "serving"
    sys.path.insert(0, str(chaos_dir))
    try:
        from chaos import ChaosFault, ChaosTransport
    finally:
        sys.path.remove(str(chaos_dir))

    from repro.serving import MetricsRegistry
    from repro.serving.observability import parse_prometheus

    def delayed_run(window):
        transport = ChaosTransport(
            "pipe",
            [
                ChaosFault(
                    1,
                    "step",
                    index=0,
                    mode="delay",
                    seconds=PIPELINE_DELAY_SECONDS,
                    count=N_TICKS,
                )
            ],
        )
        registry = MetricsRegistry()
        with ShardedEngine(
            engine_factory, 2, transport=transport, inflight_window=window
        ) as cluster:
            controller = ServingController(cluster, metrics=registry)
            start = time.perf_counter()
            per_stream = controller.run(workload.ticks)
            seconds = time.perf_counter() - start
            inflight = cluster.fanout_stats()["inflight"]
        assert not transport.pending_faults, "the delay fault never fired"
        return per_stream, seconds, inflight, controller.stats, registry

    lockstep_results, lockstep_seconds, lockstep_inflight, _, _ = delayed_run(1)
    (
        windowed_results,
        windowed_seconds,
        windowed_inflight,
        windowed_stats,
        registry,
    ) = delayed_run(PIPELINE_WINDOW)
    speedup = lockstep_seconds / windowed_seconds

    write_bench_json(
        "cluster_pipeline",
        {
            "streams": N_STREAMS,
            "ticks": N_TICKS,
            "delay_seconds": PIPELINE_DELAY_SECONDS,
            "window": PIPELINE_WINDOW,
            "lockstep_seconds": lockstep_seconds,
            "windowed_seconds": windowed_seconds,
            "speedup": speedup,
            "speedup_gate_min": MIN_PIPELINE_SPEEDUP,
            "lockstep_inflight": lockstep_inflight,
            "windowed_inflight": windowed_inflight,
            "max_inflight_depth": windowed_stats.max_inflight_depth,
            "backpressure_throttles": windowed_stats.backpressure_throttles,
            "outputs_identical": windowed_results == lockstep_results,
        },
        transport="pipe",
        shards=2,
    )

    # Pipelining reorders wire traffic, never results: the windowed run
    # is bitwise-identical to lockstep under the same delayed shard.
    assert windowed_results == lockstep_results, (
        "windowed run diverged from lockstep under a delayed shard"
    )

    # The window filled (real pipelining happened) and was never
    # exceeded -- from the engine's own high-water mark, the
    # controller's stats, and the published depth gauge.
    assert lockstep_inflight["window"] == 1
    assert lockstep_inflight["max_depth"] == 1, (
        "window 1 must collect each tick before submitting the next"
    )
    assert windowed_inflight["window"] == PIPELINE_WINDOW
    assert windowed_inflight["max_depth"] == PIPELINE_WINDOW
    assert windowed_stats.max_inflight_depth == PIPELINE_WINDOW
    families = parse_prometheus(registry.render_prometheus())
    depth_gauge = families["repro_cluster_inflight_depth"]["samples"][
        ("repro_cluster_inflight_depth", ())
    ]
    assert 0 <= depth_gauge < PIPELINE_WINDOW  # drained by the last tick

    # The throughput gate itself: latency hiding, not luck.  Holds on
    # one core -- the overlapped resource is emulated wire latency.
    assert speedup >= MIN_PIPELINE_SPEEDUP, (
        f"window-{PIPELINE_WINDOW} run is only {speedup:.2f}x lockstep "
        f"under a {PIPELINE_DELAY_SECONDS * 1e3:.0f}ms-slow shard "
        f"(gate >= {MIN_PIPELINE_SPEEDUP}x); the in-flight window is "
        "not overlapping the round trip"
    )
