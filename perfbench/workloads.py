"""The three serving workloads: set-up, warm-up and timed window.

Every workload drives the public serving API -- a
:class:`ServingController` over a :class:`StreamingEngine` or a
:class:`ShardedEngine` -- with frames from :mod:`loadgen`, keeps the
served results of the oracle sample only, and tallies what the timed
window measured.  A traced run alternates untraced and traced blocks of
ticks, so one process yields both the per-layer spans and the tracing
overhead.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.monitor import UncertaintyMonitor
from repro.evaluation import StudyConfig, prepare_study_data
from repro.serving import (
    AdmissionPolicy,
    FailoverPolicy,
    ServingController,
    ShardedEngine,
    StreamingEngine,
)
from repro.serving.observability import MetricsRegistry, TickTracer

import oracle
from loadgen import ChurnLoad, FleetLoad
from tracer import ENGINE_SPANS, TimedProxy, model_proxies

#: The study behind every workload: the CLI's ``--smoke`` scale, so one
#: set-up (DDM training + QIM calibration) takes about a second.
STUDY = StudyConfig.smoke_scale()
#: Per-stream monitor: threshold, hysteresis re-entry and a risk budget
#: small enough that long-lived streams exhaust it inside the window.
MONITOR = functools.partial(
    UncertaintyMonitor, threshold=0.3, reentry_threshold=0.2, risk_budget=2.0
)
#: Sliding-window cap of every stream buffer: the length of the
#: calibration sub-series the taQIM was fitted on.
BUFFER = 10


class Tally:
    """What one mode (untraced or traced) of a timed window measured."""

    def __init__(self) -> None:
        self.latency: list[float] = []  # seconds per tick
        self.ticks = 0
        self.frames = 0  # frames served
        self.busy = 0.0  # serving seconds (closed) / wall seconds (open)
        self.cpu = 0.0  # CPU seconds of all serving processes
        self.offered = 0  # frames handed to the controller
        self.on_time = 0  # frames served within one period (open loop)


class Workload:
    """Set-up, warm-up, timed window and oracle of one workload."""

    name = ""
    loop = ""
    n_streams = 0
    sample_every = 64
    warmup_ticks = 0
    #: Ticks per traced/untraced block in a traced run.
    block = 4

    def __init__(self, pool, seed: int, recorder=None) -> None:
        self.pool = pool
        self.seed = seed
        self.recorder = recorder
        self.load = self.make_load()
        self.served: dict[int, list] = {}
        self.failed_frames = 0
        self.tallies = {False: Tally(), True: Tally()}
        self.workers: list[int] = []
        #: How late the open-loop generator sent each tick (seconds).
        self.lag: list[float] = []

    # -- set-up ------------------------------------------------------
    def make_load(self):
        return FleetLoad(self.pool, self.n_streams, self.seed, self.sample_every)

    def setup(self) -> dict:
        """Prepare the study, build the serving stack, warm it up."""
        start = time.perf_counter()
        self.study = prepare_study_data(STUDY)
        prepared = time.perf_counter()
        self.serve(self.study)
        self.workers = [p.pid for p in multiprocessing.active_children()]
        served = time.perf_counter()
        cold, warm = self.warm()
        return {
            "prepare_s": prepared - start,
            "serve_s": served - prepared,
            "warmup_s": warm,
            "cold_tick_s": cold,
        }

    def engine_kwargs(self, study) -> dict:
        models = (
            model_proxies(study, self.recorder)
            if self.recorder is not None
            else {
                "ddm": study.ddm,
                "stateless_qim": study.stateless_qim,
                "timeseries_qim": study.ta_qim,
                "layout": study.layout,
            }
        )
        return {**models, "max_buffer_length": BUFFER, "monitor_factory": MONITOR}

    def controlled(self, engine):
        """The engine as the controller sees it (timed when tracing)."""
        if self.recorder is None:
            return engine
        return TimedProxy(engine, self.recorder, ENGINE_SPANS)

    def warm(self) -> tuple[float, float]:
        """Untimed warm-up ticks: (cold first tick, total serving) seconds."""
        times = []
        for _ in range(self.warmup_ticks):
            frames = self.load.next_tick()
            start = time.perf_counter()
            self.keep(self.controller.tick(frames))
            times.append(time.perf_counter() - start)
        return times[0], sum(times)

    # -- timed window ------------------------------------------------
    def traced(self, tick_index: int) -> bool:
        return self.recorder is not None and (tick_index // self.block) % 2 == 1

    def keep(self, results) -> None:
        """Keep the oracle sample's results, drop the rest."""
        every = self.sample_every
        for result in results:
            if result.stream_id % every == 0:
                self.served.setdefault(result.stream_id, []).append(result)

    def controller_tick(self, frames):
        if self.recorder is None:
            return self.controller.tick(frames)
        return self.recorder.call("controller.tick", self.controller.tick, frames)

    def window(self, seconds: float) -> None:
        """Closed loop, one caller: each tick is sent when the last returns."""
        end = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < end:
            traced = self.traced(index)
            if self.recorder is not None:
                self.recorder.active = traced
                self.recorder.tick = index
            frames = self.load.next_tick()
            cpu, start = time.process_time(), time.perf_counter()
            try:
                results = self.controller_tick(frames)
            except Exception as error:  # a raising tick fails its frames
                print(f"tick {index} failed: {error!r}", flush=True)
                self.failed_frames += len(frames)
                results = []
            done = time.perf_counter()
            tally = self.tallies[traced]
            tally.cpu += time.process_time() - cpu
            tally.latency.append(done - start)
            tally.busy += done - start
            tally.ticks += 1
            tally.offered += len(frames)
            tally.frames += len(results)
            self.keep(results)
            index += 1
        if self.recorder is not None:
            self.recorder.active = False

    # -- results -----------------------------------------------------
    def mismatches(self) -> int:
        return oracle.mismatches(
            self.study, self.load.sample, self.served, MONITOR, BUFFER
        )

    def counters(self) -> dict:
        """Counters the program exposes, read before and after the window."""
        stats = self.controller.stats
        return {
            "admitted": stats.frames_admitted,
            "deferred": stats.frames_deferred,
            "overflow": stats.admission_overflow,
            "written": stats.snapshots_written,
            "dropped": stats.snapshots_dropped,
        }

    def backlog_max(self) -> int:
        ticks = sum(t.ticks for t in self.tallies.values())
        recent = list(self.controller.telemetry)[-ticks:] if ticks else []
        return max((t.backlog for t in recent), default=0)

    def phase(self, name: str) -> float:
        """Seconds the controller's tick tracer saw in a cluster phase."""
        return 0.0

    def close(self) -> None:
        self.controller.close()


class Fleet(Workload):
    """16384 monitored streams, one frame each per tick, no churn."""

    name = "fleet-16k"
    loop = "closed"
    n_streams = 16384
    sample_every = 256
    warmup_ticks = BUFFER

    def serve(self, study) -> None:
        self.engine = StreamingEngine(**self.engine_kwargs(study))
        self.controller = ServingController(self.controlled(self.engine))

    def counters(self) -> dict:
        stats = self.engine.registry.statistics
        return {
            **super().counters(),
            "registry.created": stats.created,
            "registry.evicted": stats.evicted,
        }


class ClusterPipe2(Workload):
    """4096 monitored streams over 2 pipe workers, pipelined, failover on."""

    name = "cluster-pipe2"
    loop = "closed"
    n_streams = 4096
    #: Ticks handed to one ``run`` call: the failover journal depth, so a
    #: chunk ends exactly where the controller drains for its checkpoint.
    chunk = FailoverPolicy().journal_depth
    warmup_ticks = chunk
    block = chunk

    def serve(self, study) -> None:
        def factory():
            return StreamingEngine(
                ddm=study.ddm,
                stateless_qim=study.stateless_qim,
                timeseries_qim=study.ta_qim,
                layout=study.layout,
                max_buffer_length=BUFFER,
                monitor_factory=MONITOR,
            )

        self.engine = ShardedEngine(
            factory, n_shards=2, transport="pipe", inflight_window=2
        )
        try:
            self.controller = ServingController(
                self.controlled(self.engine), failover=FailoverPolicy()
            )
        except Exception:
            self.engine.close()
            raise
        self.tick_tracer = TickTracer() if self.recorder is not None else None
        self.phase_seconds = {"await_window": 0.0, "merge_ready": 0.0}

    def run_chunk(self, traced: bool, index: int) -> tuple[int, int, float, float]:
        """One ``run`` call over a chunk: (offered, served, wall, CPU)."""
        chunk = [self.load.next_tick() for _ in range(self.chunk)]
        if self.recorder is not None:
            self.recorder.active = traced
            self.recorder.tick = index
            tracer = self.tick_tracer if traced else None
            self.controller.tracer = tracer
            self.engine.tracer = tracer
        workers = worker_cpu(self.workers)
        cpu, start = time.process_time(), time.perf_counter()
        try:
            if self.recorder is None:
                per_stream = self.controller.run(chunk)
            else:
                per_stream = self.recorder.call(
                    "controller.run", self.controller.run, chunk
                )
        except Exception as error:  # a raising chunk fails its frames
            print(f"chunk at tick {index} failed: {error!r}", flush=True)
            self.failed_frames += sum(len(frames) for frames in chunk)
            per_stream = {}
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu + worker_cpu(self.workers) - workers
        served = sum(len(results) for results in per_stream.values())
        for stream_id in range(0, self.n_streams, self.sample_every):
            self.served.setdefault(stream_id, []).extend(per_stream.get(stream_id, ()))
        if traced and self.tick_tracer is not None:
            for trace in self.tick_tracer.traces:
                for name in self.phase_seconds:
                    self.phase_seconds[name] += trace.seconds(name)
            self.tick_tracer.traces.clear()
        return sum(len(frames) for frames in chunk), served, wall, cpu

    def warm(self) -> tuple[float, float]:
        _, _, wall, _ = self.run_chunk(False, -1)
        return self.controller.telemetry[0].latency_seconds, wall

    def window(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < end:
            traced = self.traced(index)
            offered, served, wall, cpu = self.run_chunk(traced, index)
            tally = self.tallies[traced]
            tally.offered += offered
            tally.frames += served
            tally.busy += wall
            tally.cpu += cpu
            tally.ticks += self.chunk
            if served:
                recent = list(self.controller.telemetry)[-self.chunk:]
                tally.latency.extend(t.latency_seconds for t in recent)
            index += self.chunk
        if self.recorder is not None:
            self.recorder.active = False

    def phase(self, name: str) -> float:
        return self.phase_seconds[name]

    def counters(self) -> dict:
        stats = self.engine.statistics()
        fanout = self.engine.fanout_stats()
        pool = fanout.get("pool", {})
        phases = fanout.get("worker_phase_seconds", {}).values()
        return {
            **super().counters(),
            "registry.created": stats.created,
            "registry.evicted": stats.evicted,
            "fanout_cpu_s": fanout["encode_seconds"],
            "inflight_max": fanout["inflight"]["max_depth"],
            "pool_hits": pool.get("hits", 0),
            "pool_misses": pool.get("misses", 0),
            "pool_bytes": pool.get("bytes_copied", 0),
            **{
                f"worker.{name}": sum(p[name] for p in phases)
                for name in ("decode", "step", "encode")
            },
        }

    def close(self) -> None:
        try:
            self.controller.close()
        finally:
            self.engine.close()


class CameraChurn(Workload):
    """Open loop at 12 ticks/s over churning camera objects, all policies on."""

    name = "camera-churn"
    loop = "open"
    rate = 12.0
    #: Visible objects: mean, swing and cycle length (ticks).
    mean, amplitude, period = 900, 200, 60
    priority_classes = 3
    frame_cap = 1024
    idle_ttl = 8
    warmup_ticks = 12
    block = 5

    def make_load(self):
        return ChurnLoad(
            self.pool,
            self.mean,
            self.amplitude,
            self.period,
            self.priority_classes,
            self.seed,
            self.sample_every,
        )

    def serve(self, study) -> None:
        out = Path(__file__).resolve().parent / "out"
        out.mkdir(exist_ok=True)
        self.snapshot_dir = tempfile.mkdtemp(prefix="snapshots-", dir=out)
        self.metrics = MetricsRegistry()
        self.engine = StreamingEngine(
            **self.engine_kwargs(study), idle_ttl=self.idle_ttl
        )
        self.controller = ServingController(
            self.controlled(self.engine),
            admission=AdmissionPolicy(max_frames_per_tick=self.frame_cap),
            snapshot_every=10,
            snapshot_dir=self.snapshot_dir,
            snapshot_mode="bg",
            snapshot_deltas=8,
            metrics=self.metrics,
        )

    def window(self, seconds: float) -> None:
        """Open loop: tick k is due at ``start + k / rate`` whatever happened
        before; latency runs from the due time to the results, minus any
        generator time spent after the due time."""
        period = 1.0 / self.rate
        n_ticks = max(1, round(seconds * self.rate))
        start = time.perf_counter() + period
        previous = start - period  # busy time is measured slot to result
        for index in range(n_ticks):
            traced = self.traced(index)
            if self.recorder is not None:
                self.recorder.active = traced
                self.recorder.tick = index
            due = start + index * period
            cpu = time.process_time()
            gen_cpu = self.load.gen_cpu_seconds
            began = time.perf_counter()
            frames = self.load.next_tick()
            generated = time.perf_counter()
            if generated < due:
                time.sleep(due - generated)
            sent = time.perf_counter()
            before = self.controller.stats.frames_resumed
            try:
                results = self.controller_tick(frames)
            except Exception as error:  # a raising tick fails its frames
                print(f"tick {index} failed: {error!r}", flush=True)
                self.failed_frames += len(frames)
                results = []
            done = time.perf_counter()
            late_gen = max(0.0, generated - max(began, due))
            latency = done - due - late_gen
            tally = self.tallies[traced]
            tally.cpu += (
                time.process_time() - cpu - (self.load.gen_cpu_seconds - gen_cpu)
            )
            tally.latency.append(latency)
            tally.busy += done - previous
            previous = done
            tally.ticks += 1
            tally.offered += len(frames)
            tally.frames += len(results)
            resumed = self.controller.stats.frames_resumed - before
            if latency <= period:
                tally.on_time += len(results) - resumed
            self.lag.append(max(0.0, sent - due))
            self.keep(results)
        if self.recorder is not None:
            self.recorder.active = False

    def counters(self) -> dict:
        registry = self.engine.registry.statistics
        family = self.metrics.snapshot().get("repro_snapshot_write_seconds")
        series = family["series"] if family else []
        return {
            **super().counters(),
            "registry.created": registry.created,
            "registry.evicted": registry.evicted,
            "write_buckets": series[0]["buckets"] if series else {},
        }

    def close(self) -> None:
        try:
            self.controller.close()
        finally:
            files = Path(self.snapshot_dir).rglob("*")
            self.store_bytes = sum(f.stat().st_size for f in files if f.is_file())
            shutil.rmtree(self.snapshot_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Fleet, ClusterPipe2, CameraChurn)}


def worker_cpu(pids) -> float:
    """User + system CPU seconds of live worker processes (Linux /proc)."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / os.sysconf("SC_CLK_TCK")


def worker_peak_mb(pids) -> float:
    """Sum of the live workers' peak resident sets (VmHWM), in MB."""
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
    return total
