"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``study``
    Run the full reproduction study and print the paper's tables/figures;
    optionally write JSON/CSV artifacts.
``importance``
    Run the Fig. 7 feature-importance sweep.
``dataset``
    Generate a GTSRB-like timeseries dataset and save it as ``.npz``.
``bounds``
    Tabulate the guarantee bounds for a given failure count / sample size
    (handy when sizing calibration sets).
``simulate-streams``
    Replay interleaved GTSRB situation streams through the batched
    :class:`~repro.serving.StreamingEngine` and report the serving
    throughput (optionally against the naive per-stream ``step`` loop).
    ``--shards N`` routes the replay through the multi-process
    :class:`~repro.serving.ShardedEngine`; ``--snapshot-every K`` writes
    periodic registry snapshots.
``serve-cluster``
    Run the sharded serving cluster on a simulated workload: consistent-
    hash placement over N shard workers (``--transport`` picks in-proc,
    forked pipe workers, or TCP to remote ``serve-worker`` processes),
    optional periodic snapshots, restore-from-snapshot, and an
    equivalence check against the single-process engine.

Both serving commands are driven by the
:class:`~repro.serving.ServingController` control plane (workers are
reaped even on mid-run exceptions) and accept its policy flags:
``--latency-budget-ms`` enables QoS admission control,
``--autoscale MIN:MAX`` enables latency-driven shard autoscaling,
``--priority-field``/``--priority-classes`` shape the QoS classes,
``--stats-every N`` prints per-tick telemetry, and
``--max-failovers N``/``--journal-depth K`` enable self-healing worker
failover (respawn + snapshot restore + tick-journal replay on worker
death, bitwise-identical to an uninterrupted run).
``serve-worker``
    Run one TCP shard worker: listens on ``--listen HOST:PORT``, builds
    a fresh engine per cluster connection, and serves the wire protocol
    until the cluster disconnects.  Point ``serve-cluster --transport
    tcp --workers ...`` at any number of these, on any machines.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Timeseries-aware uncertainty wrappers (DSN/VERDI 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run the full reproduction study")
    study.add_argument("--paper-scale", action="store_true",
                       help="use the paper's dataset sizes (slow)")
    study.add_argument("--smoke", action="store_true",
                       help="tiny configuration for a quick look")
    study.add_argument("--seed", type=int, default=42, help="master seed")
    study.add_argument("--json", metavar="PATH",
                       help="write results JSON to PATH")
    study.add_argument("--csv-dir", metavar="DIR",
                       help="write table1.csv and fig4.csv into DIR")

    importance = sub.add_parser(
        "importance", help="run the Fig. 7 taQF importance sweep"
    )
    importance.add_argument("--paper-scale", action="store_true")
    importance.add_argument("--smoke", action="store_true")
    importance.add_argument("--seed", type=int, default=42)
    importance.add_argument("--csv", metavar="PATH",
                            help="write the sweep as CSV to PATH")

    dataset = sub.add_parser(
        "dataset", help="generate and save a GTSRB-like dataset"
    )
    dataset.add_argument("out", help="output .npz path")
    dataset.add_argument("--n-series", type=int, default=100)
    dataset.add_argument("--settings-per-series", type=int, default=1,
                         help="situation augmentations per base series")
    dataset.add_argument("--subsample-length", type=int, default=0,
                         help="cut windows of this length (0 = keep full)")
    dataset.add_argument("--seed", type=int, default=0)

    bounds = sub.add_parser(
        "bounds", help="tabulate guarantee bounds for k failures in n samples"
    )
    bounds.add_argument("failures", type=int)
    bounds.add_argument("samples", type=int)
    bounds.add_argument("--confidence", type=float, default=0.999)

    serve = sub.add_parser(
        "simulate-streams",
        help="replay interleaved object streams through the serving engine",
    )
    serve.add_argument("--streams", type=int, default=256,
                       help="number of concurrent object streams")
    serve.add_argument("--ticks", type=int, default=50,
                       help="number of engine ticks (frames per stream)")
    serve.add_argument("--paper-scale", action="store_true")
    serve.add_argument("--smoke", action="store_true",
                       help="tiny study configuration for a quick look")
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--threshold", type=float, default=None,
                       help="per-stream monitor acceptance threshold")
    serve.add_argument("--max-buffer-length", type=int, default=None,
                       help="sliding-window cap per stream buffer")
    serve.add_argument("--ttl", type=int, default=None,
                       help="evict streams idle for this many ticks")
    serve.add_argument("--shards", type=int, default=1,
                       help="worker processes; > 1 serves through the "
                            "sharded cluster engine")
    serve.add_argument("--transport", choices=["pipe", "inproc"],
                       default="pipe",
                       help="cluster transport when --shards > 1 "
                            "(forked pipe workers or in-process loopback)")
    serve.add_argument("--snapshot-every", type=int, default=0, metavar="K",
                       help="commit a registry snapshot every K ticks")
    serve.add_argument("--snapshot-dir", default="snapshots", metavar="DIR",
                       help="snapshot store directory (base/delta files "
                            "behind an atomic manifest.json)")
    serve.add_argument("--snapshot-mode", choices=["sync", "bg"],
                       default="sync",
                       help="wait for each snapshot write to land and "
                            "fail the tick on a write error (sync), or "
                            "leave it to the background writer thread (bg)")
    serve.add_argument("--snapshot-deltas", type=int, default=0, metavar="K",
                       help="write K delta snapshots (dirty streams only) "
                            "after each full base (0 = a full base at "
                            "every cadence)")
    serve.add_argument("--snapshot-retain", type=int, default=0, metavar="N",
                       help="keep only the newest N superseded base+delta "
                            "generations on disk (0 = keep everything)")
    serve.add_argument("--compare-naive", action="store_true",
                       help="also time the per-stream step loop and "
                            "verify identical outputs")
    serve.add_argument("--json", metavar="PATH",
                       help="write the throughput report JSON to PATH")
    _add_controller_flags(serve)

    cluster = sub.add_parser(
        "serve-cluster",
        help="serve interleaved object streams on the sharded multi-process cluster",
    )
    cluster.add_argument("--streams", type=int, default=1024,
                         help="number of concurrent object streams")
    cluster.add_argument("--ticks", type=int, default=25,
                         help="number of cluster ticks (frames per stream)")
    cluster.add_argument("--shards", type=int, default=4,
                         help="number of shard workers")
    cluster.add_argument("--transport",
                         choices=["pipe", "inproc", "tcp"],
                         default="pipe",
                         help="worker transport: forked pipe workers "
                              "(default), in-process loopback, or TCP to "
                              "remote serve-worker processes (--workers)")
    cluster.add_argument("--workers", metavar="HOST:PORT[,HOST:PORT...]",
                         help="worker addresses for --transport tcp, one "
                              "per shard in shard order")
    cluster.add_argument("--connect-timeout", type=float, default=120.0,
                         help="seconds to keep retrying TCP worker "
                              "connections (covers worker warm-up)")
    cluster.add_argument("--paper-scale", action="store_true")
    cluster.add_argument("--smoke", action="store_true",
                         help="tiny study configuration for a quick look")
    cluster.add_argument("--seed", type=int, default=42)
    cluster.add_argument("--threshold", type=float, default=None,
                         help="per-stream monitor acceptance threshold")
    cluster.add_argument("--max-buffer-length", type=int, default=None,
                         help="sliding-window cap per stream buffer")
    cluster.add_argument("--ttl", type=int, default=None,
                         help="evict streams idle for this many ticks")
    cluster.add_argument("--snapshot-every", type=int, default=0, metavar="K",
                         help="commit a cluster snapshot every K ticks")
    cluster.add_argument("--snapshot-dir", default="snapshots", metavar="DIR",
                         help="snapshot store directory (base/delta files "
                              "behind an atomic manifest.json)")
    cluster.add_argument("--snapshot-mode", choices=["sync", "bg"],
                         default="sync",
                         help="wait for each snapshot write to land and "
                              "fail the tick on a write error (sync), or "
                              "leave it to the background writer thread "
                              "(bg)")
    cluster.add_argument("--snapshot-deltas", type=int, default=0,
                         metavar="K",
                         help="write K delta snapshots (dirty streams only) "
                              "after each full base (0 = a full base at "
                              "every cadence)")
    cluster.add_argument("--snapshot-retain", type=int, default=0,
                         metavar="N",
                         help="keep only the newest N superseded base+delta "
                              "generations on disk (0 = keep everything)")
    cluster.add_argument("--restore", metavar="PATH",
                         help="restore registry state before serving from a "
                              "snapshot store directory (as --snapshot-every "
                              "writes it), its manifest.json, or a legacy "
                              "snapshot stem")
    cluster.add_argument("--compare-single", action="store_true",
                         help="also run the single-process engine and "
                              "verify bitwise-identical outputs")
    cluster.add_argument("--flight-record", metavar="DIR", default=None,
                         help="journal every wire frame to a flight log in "
                              "DIR (replayable with replay-flight)")
    cluster.add_argument("--trace-export", metavar="DIR", default=None,
                         help="assemble per-tick distributed timelines "
                              "(controller + rebased worker spans) and "
                              "write Chrome trace-event JSON to DIR/"
                              "trace.json (open in Perfetto)")
    cluster.add_argument("--json", metavar="PATH",
                         help="write the cluster report JSON to PATH")
    _add_controller_flags(cluster)

    worker = sub.add_parser(
        "serve-worker",
        help="run one TCP shard worker for serve-cluster --transport tcp",
    )
    worker.add_argument("--listen", required=True, metavar="HOST:PORT",
                        help="address to listen on (port 0 = ephemeral)")
    worker.add_argument("--paper-scale", action="store_true")
    worker.add_argument("--smoke", action="store_true",
                        help="tiny study configuration for a quick look")
    worker.add_argument("--seed", type=int, default=42)
    worker.add_argument("--threshold", type=float, default=None,
                        help="per-stream monitor acceptance threshold "
                             "(must match the cluster's)")
    worker.add_argument("--max-buffer-length", type=int, default=None,
                        help="sliding-window cap per stream buffer")
    worker.add_argument("--ttl", type=int, default=None,
                        help="evict streams idle for this many ticks")
    worker.add_argument("--max-connections", type=int, default=0, metavar="N",
                        help="exit after N orderly-closed cluster sessions "
                             "(0 = serve forever; a client that dies "
                             "mid-session does not consume the budget, so "
                             "failover reconnects still land)")
    worker.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve this worker's Prometheus metrics on "
                             "http://127.0.0.1:PORT/metrics (0 = ephemeral "
                             "port, printed at startup)")

    replay = sub.add_parser(
        "replay-flight",
        help="re-drive a recorded flight log and verify bitwise-identical "
             "replies",
    )
    replay.add_argument("log", metavar="DIR",
                        help="flight-log directory (frames.bin + "
                             "manifest.json, as written by serve-cluster "
                             "--flight-record)")
    replay.add_argument("--paper-scale", action="store_true")
    replay.add_argument("--smoke", action="store_true",
                        help="tiny study configuration for a quick look")
    replay.add_argument("--seed", type=int, default=42)
    replay.add_argument("--threshold", type=float, default=None,
                        help="per-stream monitor acceptance threshold "
                             "(must match the recorded run's)")
    replay.add_argument("--max-buffer-length", type=int, default=None,
                        help="sliding-window cap per stream buffer "
                             "(must match the recorded run's)")
    replay.add_argument("--ttl", type=int, default=None,
                        help="evict streams idle for this many ticks "
                             "(must match the recorded run's)")
    replay.add_argument("--json", metavar="PATH",
                        help="write the replay report JSON to PATH")

    export = sub.add_parser(
        "export-trace",
        help="reconstruct per-tick timelines from a recorded flight log "
             "and write Chrome trace-event JSON (open in Perfetto)",
    )
    export.add_argument("log", metavar="DIR",
                        help="flight-log directory (frames.bin + "
                             "manifest.json, as written by serve-cluster "
                             "--flight-record)")
    export.add_argument("--out", metavar="PATH", default="trace.json",
                        help="trace-event JSON output path "
                             "(default: trace.json)")

    return parser


def _add_controller_flags(parser) -> None:
    """Control-plane flags shared by simulate-streams and serve-cluster."""
    group = parser.add_argument_group("control plane (QoS + autoscaling)")
    group.add_argument("--latency-budget-ms", type=float, default=None,
                       metavar="MS",
                       help="per-tick latency budget; enables QoS "
                            "admission control (priority-ordered intake, "
                            "deferred overflow frames) and is the budget "
                            "--autoscale decides against")
    group.add_argument("--autoscale", metavar="MIN:MAX", default=None,
                       help="enable latency-driven autoscaling between "
                            "MIN and MAX shards (requires "
                            "--latency-budget-ms; grows on sustained "
                            "budget misses, shrinks on sustained idle)")
    group.add_argument("--priority-field", default="priority",
                       metavar="NAME",
                       help="StreamFrame attribute holding the QoS "
                            "priority class (smaller = served first; "
                            "default: priority)")
    group.add_argument("--priority-classes", type=int, default=1,
                       metavar="N",
                       help="deal N priority classes round-robin over the "
                            "simulated streams (class = stream %% N)")
    group.add_argument("--stats-every", type=int, default=0, metavar="N",
                       help="print per-tick controller telemetry every N "
                            "ticks (latency EWMA, admitted/deferred "
                            "counts, shard count, fan-out overlap, "
                            "in-flight window depth)")
    group.add_argument("--inflight-window", type=int, default=2, metavar="W",
                       help="bounded in-flight tick window for sharded "
                            "serving: the controller fans out tick t+1 "
                            "while tick t's replies are still streaming "
                            "back, up to W ticks deep (default 2; 1 = "
                            "each tick collected before the next is "
                            "submitted)")
    fault = parser.add_argument_group("fault tolerance (worker failover)")
    fault.add_argument("--max-failovers", type=int, default=0, metavar="N",
                       help="recover from up to N worker deaths by "
                            "respawning the shard, restoring the latest "
                            "recovery snapshot, and replaying the tick "
                            "journal (0 = fail fast, the default)")
    fault.add_argument("--journal-depth", type=int, default=None, metavar="K",
                       help="ticks buffered between recovery checkpoints "
                            "(= max replay depth of one recovery; "
                            "default 16, requires --max-failovers)")
    obs = parser.add_argument_group("observability")
    obs.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                     help="serve Prometheus text exposition on "
                          "http://127.0.0.1:PORT/metrics during the run "
                          "(0 = ephemeral port, printed at startup)")
    obs.add_argument("--telemetry-window", type=int, default=4096, metavar="N",
                     help="per-tick telemetry records the controller "
                          "retains (default 4096)")
    obs.add_argument("--slo-p99-ms", type=float, default=None, metavar="MS",
                     help="track a p99 tick-latency SLO with this budget; "
                          "breaches and multi-window error-budget burn "
                          "rates land in the report (and metrics when "
                          "--metrics-port is set)")


def _parse_autoscale(spec: str):
    """Parse ``MIN:MAX`` into an inclusive shard-count range."""
    try:
        low, _, high = spec.partition(":")
        bounds = int(low), int(high)
    except ValueError:
        raise SystemExit(
            f"--autoscale expects MIN:MAX shard counts, got {spec!r}"
        ) from None
    if bounds[0] < 1 or bounds[1] < bounds[0]:
        raise SystemExit(
            f"--autoscale needs 1 <= MIN <= MAX, got {spec!r}"
        )
    return bounds


def _policies_from_args(args):
    """Resolve the control-plane flags into (autoscale, admission, failover)."""
    from repro.serving import AdmissionPolicy, AutoscalePolicy, FailoverPolicy

    budget = None
    if args.latency_budget_ms is not None:
        if args.latency_budget_ms <= 0:
            raise SystemExit("--latency-budget-ms must be > 0")
        budget = args.latency_budget_ms / 1000.0
    autoscale = None
    if args.autoscale is not None:
        if budget is None:
            raise SystemExit("--autoscale requires --latency-budget-ms")
        min_shards, max_shards = _parse_autoscale(args.autoscale)
        autoscale = AutoscalePolicy(
            latency_budget=budget,
            min_shards=min_shards,
            max_shards=max_shards,
        )
    admission = None
    if budget is not None:
        admission = AdmissionPolicy(
            latency_budget=budget, priority_field=args.priority_field
        )
    failover = None
    if args.max_failovers:
        if args.max_failovers < 0:
            raise SystemExit("--max-failovers must be >= 0")
        failover = (
            FailoverPolicy(max_failovers=args.max_failovers)
            if args.journal_depth is None
            else FailoverPolicy(
                max_failovers=args.max_failovers,
                journal_depth=args.journal_depth,
            )
        )
    elif args.journal_depth is not None:
        raise SystemExit("--journal-depth requires --max-failovers")
    return autoscale, admission, failover


def _telemetry_printer(args, cluster=None):
    """The --stats-every N callback: one telemetry line every N ticks."""
    if not args.stats_every:
        return None
    every = args.stats_every
    last_overlap = [0.0]

    def on_tick(t):
        if t.tick % every != 0:
            return
        line = (
            f"tick {t.tick}: latency {t.latency_seconds * 1e3:.1f}ms "
            f"(ewma {t.latency_ewma * 1e3:.1f}ms), "
            f"admitted {t.admitted}/{t.submitted}"
        )
        if t.frame_budget is not None or t.backlog or t.dropped:
            line += (
                f", deferred {t.deferred} (backlog {t.backlog}, "
                f"dropped {t.dropped})"
            )
        line += f", shards {t.n_shards}"
        if t.rebalanced_to is not None:
            line += f" (rebalanced to {t.rebalanced_to})"
        if cluster is not None:
            stats = cluster.fanout_stats()
            overlap = stats["overlap_seconds"]
            line += (
                f", fan-out overlap +{(overlap - last_overlap[0]) * 1e3:.1f}ms"
            )
            last_overlap[0] = overlap
            inflight = stats.get("inflight")
            if inflight is not None and inflight["window"] > 1:
                line += (
                    f", inflight {t.inflight_depth}/{inflight['window']}"
                    f" (peak {inflight['max_depth']})"
                )
        print(line)

    return on_tick


def _prefix_identical(controlled: dict, uncontrolled: dict) -> bool:
    """Compare a controlled run against an uncontrolled replay.

    With admission enabled the controlled run may end with frames still
    deferred, so each stream's outcome sequence must equal a *prefix* of
    the uncontrolled one; without backlog the sequences (and the check)
    collapse to full equality.
    """
    for stream_id, outcomes in controlled.items():
        reference = uncontrolled.get(stream_id, [])
        if outcomes != reference[: len(outcomes)]:
            return False
    return True


def _config_from_args(args):
    from repro.evaluation import StudyConfig

    if getattr(args, "paper_scale", False) and getattr(args, "smoke", False):
        raise SystemExit("--paper-scale and --smoke are mutually exclusive")
    if getattr(args, "paper_scale", False):
        config = StudyConfig.paper_scale()
    elif getattr(args, "smoke", False):
        config = StudyConfig.smoke_scale()
    else:
        config = StudyConfig()
    if args.seed != config.seed:
        from dataclasses import replace

        config = replace(config, seed=args.seed)
    return config


def _cmd_study(args) -> int:
    from repro.evaluation import (
        evaluate_study,
        prepare_study_data,
        render_fig6,
        render_study_summary,
        save_fig4_csv,
        save_results_json,
        save_table1_csv,
    )

    config = _config_from_args(args)
    start = time.time()
    data = prepare_study_data(config)
    results = evaluate_study(data)
    print(render_study_summary(results))
    print(render_fig6(results.calibration_curves()))
    print(f"runtime: {time.time() - start:.1f}s")

    if args.json:
        path = save_results_json(results, args.json)
        print(f"wrote {path}")
    if args.csv_dir:
        import pathlib

        directory = pathlib.Path(args.csv_dir)
        print(f"wrote {save_table1_csv(results, directory / 'table1.csv')}")
        print(f"wrote {save_fig4_csv(results, directory / 'fig4.csv')}")
    return 0


def _cmd_importance(args) -> int:
    from repro.evaluation import (
        feature_importance_study,
        prepare_study_data,
        render_fig7,
        save_importance_csv,
    )

    config = _config_from_args(args)
    data = prepare_study_data(config)
    rows = feature_importance_study(data)
    print(render_fig7(rows))
    if args.csv:
        print(f"wrote {save_importance_csv(rows, args.csv)}")
    return 0


def _cmd_dataset(args) -> int:
    from repro.datasets import (
        GTSRBLikeGenerator,
        save_dataset_npz,
        subsample_dataset,
    )

    rng = np.random.default_rng(args.seed)
    generator = GTSRBLikeGenerator()
    base = generator.generate_base(args.n_series, rng)
    dataset = generator.augment_with_situations(
        base, args.settings_per_series, rng
    )
    if args.subsample_length > 0:
        dataset = subsample_dataset(dataset, args.subsample_length, rng)
    path = save_dataset_npz(dataset, args.out)
    print(
        f"wrote {path}: {len(dataset)} series, "
        f"{dataset.n_frames_total} frames, {dataset.n_classes} classes"
    )
    return 0


def _cmd_bounds(args) -> int:
    from repro.stats import (
        clopper_pearson_upper,
        hoeffding_upper,
        jeffreys_upper,
        wilson_upper,
    )

    k, n, confidence = args.failures, args.samples, args.confidence
    print(
        f"Upper bounds on the failure probability for {k} failures in "
        f"{n} samples at one-sided confidence {confidence}:"
    )
    for name, fn in (
        ("clopper-pearson", clopper_pearson_upper),
        ("wilson", wilson_upper),
        ("jeffreys", jeffreys_upper),
        ("hoeffding", hoeffding_upper),
    ):
        print(f"  {name:<16} {fn(k, n, confidence):.6f}")
    print(f"  point estimate   {k / n:.6f}")
    return 0


def _monitor_factory_from_args(args):
    """The per-stream monitor factory implied by ``--threshold`` (or None)."""
    if args.threshold is None:
        return None
    from repro.core.monitor import UncertaintyMonitor

    threshold = args.threshold
    factory = lambda: UncertaintyMonitor(threshold=threshold)  # noqa: E731
    factory()  # fail fast on a bad threshold, before the prep
    return factory


def _engine_factory_from_args(args, data, monitor_factory):
    """One engine factory shared by serve-cluster, serve-worker, and the
    simulate-streams cluster path -- identical flags build identical
    engines, which is what the TCP equivalence guarantee rests on."""
    from repro.serving import StreamingEngine

    def engine_factory():
        return StreamingEngine(
            ddm=data.ddm,
            stateless_qim=data.stateless_qim,
            timeseries_qim=data.ta_qim,
            layout=data.layout,
            max_buffer_length=args.max_buffer_length,
            monitor_factory=monitor_factory,
            idle_ttl=args.ttl,
        )

    return engine_factory


def _metrics_server_from_args(args):
    """Start the opt-in metrics endpoint: ``(registry, server)``.

    ``(None, None)`` without ``--metrics-port``; the caller must close
    the server (its listener thread is a daemon, but an orderly close
    keeps reruns off a lingering port).
    """
    if getattr(args, "metrics_port", None) is None:
        return None, None
    from repro.serving.observability import MetricsRegistry, MetricsServer

    registry = MetricsRegistry()
    server = MetricsServer(registry, port=args.metrics_port)
    print(f"serving metrics at {server.url}", flush=True)
    return registry, server


def _slo_from_args(args):
    """Resolve --slo-p99-ms into an SLOTracker (None when unset)."""
    if getattr(args, "slo_p99_ms", None) is None:
        return None
    from repro.serving.observability import SLO, SLOTracker

    return SLOTracker([SLO("p99_latency", args.slo_p99_ms / 1e3)])


def _print_slo_summary(slo) -> None:
    for name, state in slo.as_dict()["objectives"].items():
        alerts = state["alerts"]
        line = (
            f"slo {name}: {state['breaches']} breach(es) of "
            f"{state['budget_seconds'] * 1e3:.1f}ms budget, burn rate "
            f"short {state['burn_short']:.2f} / long {state['burn_long']:.2f}"
        )
        if sum(alerts.values()):
            line += (
                f", alerts fast={alerts['fast']} slow={alerts['slow']}"
            )
        print(line)


def _transport_from_args(args):
    """Resolve serve-cluster's --transport/--workers into a transport spec."""
    if getattr(args, "transport", "pipe") != "tcp":
        return args.transport
    from repro.serving import TcpTransport

    if not args.workers:
        raise SystemExit(
            "--transport tcp requires --workers HOST:PORT[,HOST:PORT...]"
        )
    transport = TcpTransport(
        args.workers.split(","), connect_timeout=args.connect_timeout
    )
    if len(transport.addresses) < args.shards:
        raise SystemExit(
            f"--shards {args.shards} needs at least that many --workers "
            f"addresses, got {len(transport.addresses)}"
        )
    return transport


def _cmd_simulate_streams(args) -> int:
    from repro.core.timeseries_wrapper import TimeseriesAwareUncertaintyWrapper
    from repro.evaluation import prepare_study_data
    from repro.serving import (
        ServingController,
        ShardedEngine,
        StreamingEngine,
        build_stream_workload,
        replay_engine,
        replay_naive,
    )

    config = _config_from_args(args)
    monitor_factory = _monitor_factory_from_args(args)
    autoscale, admission, failover = _policies_from_args(args)

    print("preparing study pipeline (DDM + calibrated wrappers)...")
    data = prepare_study_data(config)

    rng = np.random.default_rng(args.seed + 1)
    workload = build_stream_workload(
        data.feature_model,
        args.streams,
        args.ticks,
        rng,
        priority_classes=args.priority_classes,
    )

    engine_factory = _engine_factory_from_args(args, data, monitor_factory)
    # Failover needs shard workers to respawn, so it implies the cluster
    # engine even at --shards 1.
    sharded = args.shards > 1 or autoscale is not None or failover is not None
    if sharded:
        initial_shards = args.shards
        if autoscale is not None:
            initial_shards = min(
                max(initial_shards, autoscale.min_shards), autoscale.max_shards
            )
        engine = ShardedEngine(
            engine_factory, initial_shards, transport=args.transport,
            inflight_window=args.inflight_window,
        )
    else:
        engine = engine_factory()

    # The controller owns the tick loop AND the engine lifecycle: a
    # mid-run exception tears the shard workers down instead of leaking
    # them (the context manager closes the engine on every exit path;
    # a failing controller constructor must not leak them either).
    metrics, metrics_server = _metrics_server_from_args(args)
    slo = _slo_from_args(args)
    try:
        controller = ServingController(
            engine,
            autoscale=autoscale,
            admission=admission,
            failover=failover,
            snapshot_every=args.snapshot_every,
            snapshot_dir=args.snapshot_dir,
            snapshot_mode=args.snapshot_mode,
            snapshot_deltas=args.snapshot_deltas,
            snapshot_retain=args.snapshot_retain,
            owns_engine=sharded,
            on_tick=_telemetry_printer(
                args, cluster=engine if sharded else None
            ),
            telemetry_window=args.telemetry_window,
            metrics=metrics,
            slo=slo,
        )
    except Exception:
        if sharded:
            engine.close()
        if metrics_server is not None:
            metrics_server.close()
        raise
    try:
        with controller:
            start = time.perf_counter()
            per_stream = controller.run(workload.ticks)
            engine_seconds = time.perf_counter() - start
            statistics = (
                engine.statistics() if sharded else engine.registry.statistics
            )
            final_shards = controller.n_shards
    finally:
        if metrics_server is not None:
            metrics_server.close()
    engine_fps = workload.n_frames / engine_seconds
    for stem in controller.snapshots_written:
        print(f"wrote snapshot {stem}.json/.npz")
    if controller.snapshots_written:
        print(f"snapshot manifest {args.snapshot_dir}/manifest.json")

    engine_outcomes = {
        stream_id: [result.outcome for result in results]
        for stream_id, results in per_stream.items()
    }
    monitored = accepted = 0
    for results in per_stream.values():
        for result in results:
            if result.verdict is not None:
                monitored += 1
                accepted += result.verdict.accepted

    report = {
        "streams": workload.n_streams,
        "ticks": workload.n_ticks,
        "frames": workload.n_frames,
        "shards": args.shards,
        "transport": args.transport if sharded else "single",
        "engine_seconds": engine_seconds,
        "engine_frames_per_sec": engine_fps,
        "series_started": statistics.series_started,
        "streams_evicted": statistics.evicted,
    }
    if slo is not None:
        report["slo"] = slo.as_dict()
        _print_slo_summary(slo)
    report.update(_controller_report(controller, autoscale, admission, final_shards))
    if sharded and autoscale is not None:
        shards_label = f"{initial_shards}->{final_shards} shards"
    else:
        shards_label = (
            f"{args.shards} shard{'s' if args.shards != 1 else ''}"
        )
    print(
        f"engine ({shards_label}): "
        f"{workload.n_frames} frames over {workload.n_ticks} ticks x "
        f"{workload.n_streams} streams in {engine_seconds:.2f}s "
        f"({engine_fps:,.0f} frames/s)"
    )
    _print_controller_summary(controller, autoscale, admission, final_shards)
    if monitored:
        report["acceptance_rate"] = accepted / monitored
        print(f"monitor: accepted {accepted}/{monitored} frames "
              f"({accepted / monitored:.1%}) at threshold {args.threshold}")

    if args.compare_naive:
        # The speedup figure compares UNMONITORED engine vs naive loop
        # (the naive wrapper loop has no monitors either).  Without a
        # threshold/policies the single-process run above already
        # qualifies; otherwise time a fresh unmonitored single-process
        # replay.  The identity check always judges the MAIN run's
        # outcomes (sharded/monitored/admission-controlled included), so
        # a cluster or controller divergence cannot hide behind the
        # timing replay; with admission the controlled run may end with
        # a deferred backlog, so the check is prefix-wise per stream.
        controlled = admission is not None or autoscale is not None
        if monitor_factory is None and not sharded and not controlled:
            compare_seconds = engine_seconds
        else:
            fresh = StreamingEngine(
                ddm=data.ddm,
                stateless_qim=data.stateless_qim,
                timeseries_qim=data.ta_qim,
                layout=data.layout,
                max_buffer_length=args.max_buffer_length,
            )
            start = time.perf_counter()
            fresh_outcomes = replay_engine(fresh, workload)
            compare_seconds = time.perf_counter() - start
            matches = (
                _prefix_identical(engine_outcomes, fresh_outcomes)
                if admission is not None
                else fresh_outcomes == engine_outcomes
            )
            if not matches:
                print(
                    "error: outputs of the main run diverge from the "
                    "unmonitored single-process replay",
                    file=sys.stderr,
                )
                return 1

        def make_wrapper():
            return TimeseriesAwareUncertaintyWrapper(
                ddm=data.ddm,
                stateless_qim=data.stateless_qim,
                timeseries_qim=data.ta_qim,
                layout=data.layout,
                max_buffer_length=args.max_buffer_length,
            )

        start = time.perf_counter()
        naive_outcomes = replay_naive(make_wrapper, workload)
        naive_seconds = time.perf_counter() - start
        naive_fps = workload.n_frames / naive_seconds
        identical = (
            _prefix_identical(engine_outcomes, naive_outcomes)
            if admission is not None
            else naive_outcomes == engine_outcomes
        )
        report.update(
            naive_seconds=naive_seconds,
            naive_frames_per_sec=naive_fps,
            # The speedup baseline: an unmonitored engine run (equals
            # engine_seconds when no --threshold was given).
            engine_unmonitored_seconds=compare_seconds,
            speedup=naive_seconds / compare_seconds,
            outputs_identical=identical,
        )
        print(
            f"naive per-stream loop: {naive_seconds:.2f}s "
            f"({naive_fps:,.0f} frames/s); speedup "
            f"{naive_seconds / compare_seconds:.1f}x (both unmonitored); "
            f"outputs identical: {identical}"
        )

    if args.json:
        import json
        import pathlib

        path = pathlib.Path(args.json)
        path.write_text(json.dumps(report, indent=2))
        print(f"wrote {path}")
    if args.compare_naive and not report["outputs_identical"]:
        print(
            "error: engine outputs diverge from the per-stream wrapper replay",
            file=sys.stderr,
        )
        return 1
    return 0


def _controller_report(controller, autoscale, admission, final_shards) -> dict:
    """Control-plane fields of a CLI report (empty without policies)."""
    failover = controller.failover
    if autoscale is None and admission is None and failover is None:
        return {}
    stats = controller.stats
    report = {"controller": stats.as_dict()}
    if autoscale is not None:
        report["final_shards"] = final_shards
        report["rebalances"] = stats.rebalances
    if admission is not None:
        report["frames_deferred"] = stats.frames_deferred
        report["admission_overflow"] = stats.admission_overflow
        report["deferred_backlog"] = controller.backlog
    if failover is not None:
        report["failovers"] = stats.failovers
        report["shards_respawned"] = stats.shards_respawned
        report["replayed_ticks"] = stats.replayed_ticks
        report["recovery_seconds"] = stats.recovery_seconds
    return report


def _print_controller_summary(controller, autoscale, admission, final_shards):
    stats = controller.stats
    if autoscale is not None:
        print(
            f"autoscale: {stats.rebalances} rebalance(s), "
            f"final shard count {final_shards}"
        )
    if admission is not None:
        print(
            f"admission: {stats.frames_admitted}/{stats.frames_submitted} "
            f"frames admitted, {stats.frames_deferred} deferred "
            f"({controller.backlog} still queued), "
            f"{stats.admission_overflow} dropped (AdmissionOverflow)"
        )
    if controller.failover is not None:
        line = (
            f"failover: {stats.failovers} recover(ies), "
            f"{stats.shards_respawned} worker(s) respawned, "
            f"{stats.replayed_ticks} tick(s) replayed"
        )
        if stats.shard_recoveries:
            line += f" ({stats.shard_recoveries} shard-local)"
        if stats.failovers:
            line += f" in {stats.recovery_seconds * 1e3:.1f}ms"
        print(line)


def _cmd_serve_cluster(args) -> int:
    from repro.evaluation import prepare_study_data
    from repro.serving import (
        ServingController,
        ShardedEngine,
        build_stream_workload,
        load_snapshot,
        replay_engine,
    )

    config = _config_from_args(args)
    monitor_factory = _monitor_factory_from_args(args)
    transport = _transport_from_args(args)
    autoscale, admission, failover = _policies_from_args(args)

    restored = None
    if args.restore:  # fail fast on a bad snapshot too
        restored = load_snapshot(args.restore)

    print("preparing study pipeline (DDM + calibrated wrappers)...")
    data = prepare_study_data(config)
    rng = np.random.default_rng(args.seed + 1)
    workload = build_stream_workload(
        data.feature_model,
        args.streams,
        args.ticks,
        rng,
        priority_classes=args.priority_classes,
    )

    engine_factory = _engine_factory_from_args(args, data, monitor_factory)

    metrics, metrics_server = _metrics_server_from_args(args)
    recorder = None
    if args.flight_record:
        from repro.serving.observability import (
            FlightRecorder,
            FlightRecordingTransport,
        )

        recorder = FlightRecorder(args.flight_record)
        transport = FlightRecordingTransport(transport, recorder)
        print(f"flight-recording wire frames to {recorder.directory}")
    tracer = None
    exporter = None
    if args.trace_export:
        from repro.serving.observability import TickTracer, TraceExporter

        tracer = TickTracer(window=args.telemetry_window)
        exporter = TraceExporter(args.trace_export)
        print(f"exporting distributed traces to {args.trace_export}")
    slo = _slo_from_args(args)

    initial_shards = args.shards
    if autoscale is not None:
        # Start inside the policy's range (simulate-streams does the
        # same): the policy only grows on misses and shrinks above the
        # minimum, so an out-of-range start would never be corrected.
        initial_shards = min(
            max(initial_shards, autoscale.min_shards), autoscale.max_shards
        )
    try:
        print(f"starting {initial_shards} {args.transport} shard worker(s)...")
        cluster = ShardedEngine(
            engine_factory, initial_shards, transport=transport,
            inflight_window=args.inflight_window,
        )
        # The controller owns both the tick loop and the cluster
        # lifecycle: any exception from here on (restore included) reaps
        # the workers -- a failing controller constructor included.
        printer = _telemetry_printer(args, cluster=cluster)
        if exporter is not None:
            def on_tick(record, _printer=printer):
                # on_tick fires after end_tick, so tracer.last is this
                # tick's trace and cluster.last_rpc its worker side.
                exporter.observe(tracer.last, cluster)
                if _printer is not None:
                    _printer(record)
        else:
            on_tick = printer
        try:
            controller = ServingController(
                cluster,
                autoscale=autoscale,
                admission=admission,
                failover=failover,
                snapshot_every=args.snapshot_every,
                snapshot_dir=args.snapshot_dir,
                snapshot_mode=args.snapshot_mode,
                snapshot_deltas=args.snapshot_deltas,
                snapshot_retain=args.snapshot_retain,
                owns_engine=True,
                on_tick=on_tick,
                telemetry_window=args.telemetry_window,
                metrics=metrics,
                tracer=tracer,
                slo=slo,
            )
        except Exception:
            cluster.close()
            raise
        with controller:
            if restored is not None:
                controller.restore(restored)
                print(
                    f"restored {restored.n_streams} streams at tick "
                    f"{restored.tick} from {args.restore}"
                )

            start = time.perf_counter()
            per_stream = controller.run(workload.ticks)
            cluster_seconds = time.perf_counter() - start
            cluster_fps = workload.n_frames / cluster_seconds
            statistics = cluster.statistics()
            fanout = cluster.fanout_stats()
            final_shards = controller.n_shards
    finally:
        # Closed AFTER the cluster (the controller context above) so the
        # workers' goodbye traffic cannot race a closed journal; closed
        # on failure too, so a partial log still gets its manifest.
        if recorder is not None:
            recorder.close()
        if exporter is not None:
            trace_path = exporter.close()
        if metrics_server is not None:
            metrics_server.close()
    if recorder is not None:
        print(
            f"wrote flight log ({recorder.records} records) to "
            f"{recorder.directory}"
        )
    if exporter is not None:
        print(
            f"wrote distributed trace ({len(exporter.timelines)} ticks) to "
            f"{trace_path}"
        )

    cluster_outcomes = {
        stream_id: [result.outcome for result in results]
        for stream_id, results in per_stream.items()
    }
    report = {
        "streams": workload.n_streams,
        "ticks": workload.n_ticks,
        "frames": workload.n_frames,
        "shards": initial_shards,
        "transport": args.transport,
        "cluster_seconds": cluster_seconds,
        "cluster_frames_per_sec": cluster_fps,
        "fanout_encode_seconds": fanout["encode_seconds"],
        "fanout_overlap_seconds": fanout["overlap_seconds"],
        "series_started": statistics.series_started,
        "streams_evicted": statistics.evicted,
        "snapshots_written": list(controller.snapshots_written),
    }
    if "pool" in fanout:
        report["codec_pool"] = fanout["pool"]
    if exporter is not None:
        report["trace_file"] = str(trace_path)
        report["trace_ticks"] = len(exporter.timelines)
        report["worker_phase_seconds"] = {
            str(shard): phases
            for shard, phases in fanout.get("worker_phase_seconds", {}).items()
        }
    if slo is not None:
        report["slo"] = slo.as_dict()
        _print_slo_summary(slo)
    report.update(_controller_report(controller, autoscale, admission, final_shards))
    shards_label = (
        f"{initial_shards}->{final_shards}"
        if autoscale is not None
        else f"{initial_shards}"
    )
    print(
        f"cluster ({shards_label} {args.transport} shards): "
        f"{workload.n_frames} frames over "
        f"{workload.n_ticks} ticks x {workload.n_streams} streams in "
        f"{cluster_seconds:.2f}s ({cluster_fps:,.0f} frames/s; fan-out "
        f"encode {fanout['encode_seconds']:.3f}s, "
        f"{fanout['overlap_seconds']:.3f}s overlapped with worker compute)"
    )
    _print_controller_summary(controller, autoscale, admission, final_shards)
    for stem in controller.snapshots_written:
        print(f"wrote snapshot {stem}.json/.npz")
    if controller.snapshots_written:
        print(f"snapshot manifest {args.snapshot_dir}/manifest.json")

    if args.compare_single:
        single = engine_factory()
        if restored is not None:
            single.restore(restored)
        start = time.perf_counter()
        single_outcomes = replay_engine(single, workload)
        single_seconds = time.perf_counter() - start
        # With admission the controlled run may end with a deferred
        # backlog, so each stream's outcomes must be a prefix of the
        # uncontrolled single-process run; without it this is full
        # bitwise equality, exactly as before.
        identical = (
            _prefix_identical(cluster_outcomes, single_outcomes)
            if admission is not None
            else single_outcomes == cluster_outcomes
        )
        report.update(
            single_seconds=single_seconds,
            single_frames_per_sec=workload.n_frames / single_seconds,
            cluster_speedup=single_seconds / cluster_seconds,
            outputs_identical=identical,
        )
        print(
            f"single-process engine: {single_seconds:.2f}s "
            f"({workload.n_frames / single_seconds:,.0f} frames/s); cluster "
            f"speedup {single_seconds / cluster_seconds:.2f}x; "
            f"outputs identical: {identical}"
        )

    if args.json:
        import json
        import pathlib

        path = pathlib.Path(args.json)
        path.write_text(json.dumps(report, indent=2))
        print(f"wrote {path}")
    if args.compare_single and not report["outputs_identical"]:
        print(
            "error: cluster outputs diverge from the single-process engine",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve_worker(args) -> int:
    from repro.evaluation import prepare_study_data
    from repro.serving import serve_worker
    from repro.serving.transport import parse_address

    config = _config_from_args(args)
    monitor_factory = _monitor_factory_from_args(args)
    host, port = parse_address(args.listen)

    print("preparing study pipeline (DDM + calibrated wrappers)...")
    data = prepare_study_data(config)
    engine_factory = _engine_factory_from_args(args, data, monitor_factory)

    def announce(bound_port: int) -> None:
        # Flushed before the first accept so launcher scripts can wait
        # for this line instead of sleeping.
        print(f"worker listening on {host}:{bound_port}", flush=True)

    metrics, metrics_server = _metrics_server_from_args(args)
    try:
        served = serve_worker(
            engine_factory,
            host,
            port,
            max_connections=args.max_connections,
            ready_callback=announce,
            metrics=metrics,
        )
    finally:
        if metrics_server is not None:
            metrics_server.close()
    print(f"served {served} cluster connection(s)")
    return 0


def _cmd_replay_flight(args) -> int:
    from repro.evaluation import prepare_study_data
    from repro.serving.observability import (
        probe_engine_shape,
        read_flight_log,
        replay_flight,
    )

    # Validate the log before the (slow) study preparation.
    manifest, _ = read_flight_log(args.log)
    print(
        f"flight log {args.log}: {manifest['records']} records, "
        f"{manifest['n_shards']} shard(s), transport "
        f"{manifest['transport']}"
    )

    config = _config_from_args(args)
    monitor_factory = _monitor_factory_from_args(args)
    print("preparing study pipeline (DDM + calibrated wrappers)...")
    data = prepare_study_data(config)
    engine_factory = _engine_factory_from_args(args, data, monitor_factory)

    recorded_shape = manifest.get("engine_shape")
    if recorded_shape is not None:
        shape = probe_engine_shape(engine_factory)
        if shape != recorded_shape:
            # The hello replies would catch this too -- as opaque byte
            # mismatches; diffing the config fingerprint names the flag.
            print(
                "error: engine configuration does not match the recorded "
                "run:",
                file=sys.stderr,
            )
            for key in sorted(set(recorded_shape) | set(shape)):
                if recorded_shape.get(key) != shape.get(key):
                    print(
                        f"  {key}: recorded {recorded_shape.get(key)!r}, "
                        f"configured {shape.get(key)!r}",
                        file=sys.stderr,
                    )
            return 1

    report = replay_flight(args.log, engine_factory)
    print(report.summary())
    for mismatch in report.mismatches[:5]:
        print(
            f"  seq {mismatch['seq']} shard {mismatch['shard']} "
            f"{mismatch['command']}: first differing byte at offset "
            f"{mismatch['first_difference']}",
            file=sys.stderr,
        )
    if args.json:
        import json
        import pathlib

        path = pathlib.Path(args.json)
        path.write_text(json.dumps(report.as_dict(), indent=2))
        print(f"wrote {path}")
    return 0 if report.ok else 1


def _cmd_export_trace(args) -> int:
    from repro.serving.observability import (
        read_flight_log,
        timeline_from_flight,
        validate_trace_events,
        write_trace_events,
    )

    manifest, _ = read_flight_log(args.log)
    print(
        f"flight log {args.log}: {manifest['records']} records, "
        f"{manifest['n_shards']} shard(s), transport "
        f"{manifest['transport']}"
    )
    timelines = timeline_from_flight(args.log)
    if not timelines:
        print("error: no step traffic in the flight log", file=sys.stderr)
        return 1
    path = write_trace_events(args.out, timelines)
    import json

    events = validate_trace_events(json.loads(path.read_text()))
    print(
        f"wrote {events} span(s) over {len(timelines)} tick(s) to {path} "
        f"(open in https://ui.perfetto.dev)"
    )
    return 0


_COMMANDS = {
    "study": _cmd_study,
    "importance": _cmd_importance,
    "dataset": _cmd_dataset,
    "bounds": _cmd_bounds,
    "simulate-streams": _cmd_simulate_streams,
    "serve-cluster": _cmd_serve_cluster,
    "serve-worker": _cmd_serve_worker,
    "replay-flight": _cmd_replay_flight,
    "export-trace": _cmd_export_trace,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as error:  # surface library errors as CLI messages
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
