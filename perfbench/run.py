"""Serving benchmark: one workload, timed, checked, printed.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-16k --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics plus the tracing overhead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
lines before it are a readable table and a JSON report with every number
measured and the host's provenance; the report and the spans of a traced
run are also written to ``perfbench/out/``.  The exit code is 0 only when
the oracle passed and no frame failed.

Set-up (study preparation, serving-stack construction, warm-up) runs
``SETUP_REPEATS`` times and ``setup_s`` is their median; the last set-up
serves the timed window.  Load generation is timed apart
(``driver.gen_s``) and excluded from every end-to-end metric.  The cyclic
GC stays on, as in production.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

#: One BLAS thread per serving process: the workloads are sized for two
#: cores, and idle OpenBLAS helper threads spin on the core the snapshot
#: writer or a pipe worker needs.  Set before numpy is first imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3

#: End-to-end metrics (untraced run), with units.
END_TO_END = {
    "setup_s": "s",
    "throughput_fps": "frames/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_kframe": "ms",
    "rss_mb": "MB",
}

#: Per-layer metrics (traced run), with units.  ``*_ms_per_tick`` are self
#: times over the traced ticks, except the whole-call times
#: ``engine.step``, ``controller.snapshot_capture`` and
#: ``controller.checkpoint``, and ``cluster.fanout_cpu``, which is the
#: cluster's own CPU counter over every tick of the window.
PER_LAYER = {
    "engine.step_ms_per_tick": "ms",
    "engine.self_ms_per_tick": "ms",
    "engine.validate_ms_per_tick": "ms",
    "core.gather_ms_per_tick": "ms",
    "core.monitor_ms_per_tick": "ms",
    "models.ddm_ms_per_tick": "ms",
    "core.sqim_ms_per_tick": "ms",
    "fusion.fuse_ms_per_tick": "ms",
    "core.taqf_ms_per_tick": "ms",
    "core.taqim_ms_per_tick": "ms",
    "engine.math_share": "ratio",
    "registry.acquire_ms_per_tick": "ms",
    "registry.evict_ms_per_tick": "ms",
    "registry.created": "count",
    "registry.evicted": "count",
    "controller.self_ms_per_tick": "ms",
    "controller.admitted": "count",
    "controller.deferred": "count",
    "controller.overflow": "count",
    "controller.backlog_max": "frames",
    "controller.snapshot_capture_ms_per_tick": "ms",
    "controller.checkpoint_ms_per_tick": "ms",
    "durability.snapshots_written": "count",
    "durability.snapshots_dropped": "count",
    "durability.write_ms_p50": "ms",
    "durability.store_bytes": "bytes",
    "runtime.gc_gen2_count": "count",
    "runtime.gc_pause_ms_total": "ms",
    "runtime.gc_pause_max_ms": "ms",
    "cluster.validate_ms_per_tick": "ms",
    "cluster.fanout_cpu_ms_per_tick": "ms",
    "cluster.await_ms_per_tick": "ms",
    "cluster.merge_ms_per_tick": "ms",
    "cluster.inflight_max": "ticks",
    "cluster.pool_hit_ratio": "ratio",
    "cluster.bytes_copied_per_frame": "bytes",
    "worker.decode_ms_per_tick": "ms",
    "worker.step_ms_per_tick": "ms",
    "worker.encode_ms_per_tick": "ms",
    "setup.prepare_s": "s",
    "setup.serve_s": "s",
    "setup.warmup_s": "s",
    "driver.gen_s": "s",
    "driver.lag_p99_ms": "ms",
    "driver.cold_tick_ms": "ms",
    "failed_frac": "ratio",
    "deadline_miss_frac": "ratio",
    "trace.overhead_p50_ms": "ms",
    "trace.overhead_cpu_ms_per_kframe": "ms",
}

#: Self times that together make up ``engine.step_ms_per_tick``.
ENGINE_STAGES = (
    "engine.self_ms_per_tick",
    "engine.validate_ms_per_tick",
    "models.ddm_ms_per_tick",
    "core.sqim_ms_per_tick",
    "registry.acquire_ms_per_tick",
    "core.gather_ms_per_tick",
    "fusion.fuse_ms_per_tick",
    "core.taqf_ms_per_tick",
    "core.taqim_ms_per_tick",
    "core.monitor_ms_per_tick",
    "registry.evict_ms_per_tick",
)

#: Span names of the paper's math (``engine.math_share``).
MATH_SPANS = (
    "models.ddm",
    "core.sqim",
    "fusion.fuse",
    "core.taqf",
    "core.taqim",
)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ticks beyond it:
    ``(value, percentile)``; the maximum when there are fewer ticks."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def histogram_median(before: dict, after: dict) -> float:
    """Median of the observations added between two cumulative bucket
    snapshots, interpolated inside its bucket (0.0 when none)."""
    bounds = sorted((float(k), after[k] - before.get(k, 0)) for k in after)
    total = bounds[-1][1] if bounds else 0
    if total <= 0:
        return 0.0
    lower, below = 0.0, 0
    for bound, cumulative in bounds:
        if cumulative >= total / 2:
            if bound == float("inf"):
                return lower
            inside = cumulative - below
            return lower + (bound - lower) * (total / 2 - below) / inside
        lower, below = bound, cumulative
    return lower


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran
    near this moment, to tell host drift apart from program changes."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def provenance() -> dict:
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cores": usable,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha1": digest.hexdigest(),
        "gc_enabled": gc.isenabled(),
    }


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(workload, setups: list[dict], rss_mb: float) -> dict:
    tally = workload.tallies[False]
    return {
        "setup_s": statistics.median(
            s["prepare_s"] + s["serve_s"] + s["warmup_s"] for s in setups
        ),
        "throughput_fps": tally.frames / tally.busy,
        "latency_p50_ms": 1e3 * statistics.median(tally.latency),
        "latency_tail_ms": 1e3 * tail(tally.latency)[0],
        "cpu_ms_per_kframe": 1e6 * tally.cpu / tally.frames,
        "rss_mb": rss_mb,
    }


def per_layer(
    workload, recorder, gc_watch, setups, before, after, gen_seconds
) -> dict:
    traced, plain = workload.tallies[True], workload.tallies[False]
    ticks = max(1, traced.ticks)
    total, own = recorder.totals()
    delta = {k: after[k] - before[k] for k in _flat(before) if k in after}

    def ms(name: str, table=own) -> float:
        return 1e3 * table.get(name, 0.0) / ticks

    step = ms("engine.step", total)
    metrics = {
        "engine.step_ms_per_tick": step,
        "engine.self_ms_per_tick": ms("engine.step"),
        "engine.validate_ms_per_tick": ms("engine.validate"),
        "core.gather_ms_per_tick": ms("core.gather"),
        "core.monitor_ms_per_tick": ms("core.monitor"),
        "models.ddm_ms_per_tick": ms("models.ddm"),
        "core.sqim_ms_per_tick": ms("core.sqim"),
        "fusion.fuse_ms_per_tick": ms("fusion.fuse"),
        "core.taqf_ms_per_tick": ms("core.taqf"),
        "core.taqim_ms_per_tick": ms("core.taqim"),
        "engine.math_share": (
            sum(ms(name) for name in MATH_SPANS) / step if step else 0.0
        ),
        "registry.acquire_ms_per_tick": ms("registry.acquire"),
        "registry.evict_ms_per_tick": ms("registry.evict"),
        "registry.created": delta.get("registry.created", 0),
        "registry.evicted": delta.get("registry.evicted", 0),
        "controller.self_ms_per_tick": ms("controller.tick") + ms("controller.run"),
        "controller.admitted": delta["admitted"],
        "controller.deferred": delta["deferred"],
        "controller.overflow": delta["overflow"],
        "controller.backlog_max": workload.backlog_max(),
        "controller.snapshot_capture_ms_per_tick": ms(
            "controller.snapshot_capture", total
        ),
        "controller.checkpoint_ms_per_tick": ms("controller.checkpoint", total),
        "durability.snapshots_written": delta["written"],
        "durability.snapshots_dropped": delta["dropped"],
        "durability.write_ms_p50": 1e3 * histogram_median(
            before.get("write_buckets", {}), after.get("write_buckets", {})
        ),
        "durability.store_bytes": getattr(workload, "store_bytes", 0),
        "runtime.gc_gen2_count": gc_watch.gen2,
        "runtime.gc_pause_ms_total": 1e3 * gc_watch.pause_total,
        "runtime.gc_pause_max_ms": 1e3 * gc_watch.pause_max,
        "cluster.validate_ms_per_tick": ms("cluster.validate"),
        "cluster.fanout_cpu_ms_per_tick": (
            1e3 * delta.get("fanout_cpu_s", 0.0) / max(1, traced.ticks + plain.ticks)
        ),
        "cluster.await_ms_per_tick": 1e3 * workload.phase("await_window") / ticks,
        "cluster.merge_ms_per_tick": 1e3 * workload.phase("merge_ready") / ticks,
        "cluster.inflight_max": after.get("inflight_max", 0),
        "cluster.pool_hit_ratio": (
            delta["pool_hits"] / (delta["pool_hits"] + delta["pool_misses"])
            if delta.get("pool_hits", 0) + delta.get("pool_misses", 0)
            else 0.0
        ),
        "cluster.bytes_copied_per_frame": (
            delta.get("pool_bytes", 0) / max(1, traced.frames + plain.frames)
        ),
        "worker.decode_ms_per_tick": 1e3 * after.get("worker.decode", 0.0) / ticks,
        "worker.step_ms_per_tick": 1e3 * after.get("worker.step", 0.0) / ticks,
        "worker.encode_ms_per_tick": 1e3 * after.get("worker.encode", 0.0) / ticks,
        "setup.prepare_s": statistics.median(s["prepare_s"] for s in setups),
        "setup.serve_s": statistics.median(s["serve_s"] for s in setups),
        "setup.warmup_s": statistics.median(s["warmup_s"] for s in setups),
        "driver.gen_s": gen_seconds,
        "driver.lag_p99_ms": (
            1e3 * percentile(workload.lag, 99) if workload.lag else 0.0
        ),
        "driver.cold_tick_ms": 1e3 * statistics.median(
            s["cold_tick_s"] for s in setups
        ),
        "trace.overhead_p50_ms": 1e3 * (
            statistics.median(traced.latency) - statistics.median(plain.latency)
        ),
        "trace.overhead_cpu_ms_per_kframe": 1e6 * (
            traced.cpu / max(1, traced.frames) - plain.cpu / max(1, plain.frames)
        ),
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import tracer
    from loadgen import SeriesPool
    from workloads import STUDY, WORKLOADS, worker_peak_mb

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    kind = WORKLOADS[args.workload]
    probe_start = host_probe_ms()
    recorder = tracer.SpanRecorder() if args.trace else None

    pool = SeriesPool(STUDY, np.random.default_rng([args.seed, 0]))
    setups = []
    for repeat in range(SETUP_REPEATS):
        workload = kind(pool, args.seed, recorder)
        setups.append(workload.setup())
        if repeat < SETUP_REPEATS - 1:
            workload.close()

    try:
        before = workload.counters()
        patches = tracer.install_patches(recorder) if recorder else []
        gc_watch = tracer.GcWatch(recorder) if recorder else nullcontext()
        try:
            with gc_watch:
                workload.window(args.seconds)
        finally:
            tracer.remove_patches(patches)
        after = workload.counters()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rss_mb += worker_peak_mb(workload.workers)
    finally:
        workload.close()

    mismatched = workload.mismatches()
    tallies = workload.tallies.values()
    attempted = sum(t.offered for t in tallies)
    failed = (
        workload.failed_frames + after["overflow"] - before["overflow"] + mismatched
    )
    on_time = sum(t.on_time for t in tallies)
    extras = {
        "failed_frac": failed / attempted,
        "deadline_miss_frac": (
            1.0 - on_time / attempted if workload.loop == "open" else 0.0
        ),
    }
    gen_seconds = pool.gen_seconds + workload.load.gen_seconds

    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics = per_layer(
            workload, recorder, gc_watch, setups, before, after, gen_seconds
        )
        metrics.update(extras)
        units = PER_LAYER
        recorder.dump(
            OUT / f"spans-{args.workload}-seed{args.seed}.json",
            workload=args.workload,
            seed=args.seed,
        )
    else:
        metrics = end_to_end(workload, setups, rss_mb)
        units = END_TO_END
    plain = workload.tallies[False]
    report = {
        "workload": args.workload,
        "loop": workload.loop,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ticks": {"untraced": plain.ticks, "traced": workload.tallies[True].ticks},
        "latency_tail_percentile": tail(plain.latency)[1],
        "tick_latency_ms": [round(1e3 * x, 3) for x in plain.latency],
        "served_frames": sum(t.frames for t in tallies),
        "oracle": {
            "streams": len(workload.load.sample),
            "frames": sum(len(r) for r in workload.served.values()),
            "mismatched": mismatched,
        },
        "setups": setups,
        "extras": extras,
        "counters_before": _flat(before),
        "counters_after": _flat(after),
        "provenance": {
            **provenance(),
            "host_probe_ms": {"start": probe_start, "end": host_probe_ms()},
        },
        "metrics": metrics,
    }
    if args.trace:
        report["engine_stage_sum_ms_per_tick"] = sum(metrics[m] for m in ENGINE_STAGES)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1))

    shown = {**extras, **metrics}
    table = {**units, "failed_frac": "ratio", "deadline_miss_frac": "ratio"}
    for metric, unit in table.items():
        print(f"{metric:42s} {shown[metric]:14.6g} {unit}")
    print(json.dumps({k: v for k, v in report.items() if k != "tick_latency_ms"}))
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _flat(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if isinstance(v, (int, float))}


if __name__ == "__main__":
    sys.exit(main())
