"""QoS admission control: bounded tick latency without starving priority 0.

The control plane's claim: when a tick's batch exceeds the latency
budget, :class:`~repro.serving.controller.AdmissionPolicy` keeps tick
latency within budget by deferring overflow frames -- and because intake
is priority-then-arrival ordered, the highest-priority class never waits.
This benchmark drives the same interleaved GTSRB workload through three
controlled runs:

* an *unbounded baseline* (policy-free controller) -- measures what every
  tick costs when everything is admitted, and whose per-frame cost sets
  the budget below;
* an *admission-controlled* run with a frame budget of half the streams
  and a latency budget derived from the baseline's median per-frame cost
  (with headroom for per-tick fixed costs and timer noise) -- gates that
  p95 tick latency stays within the budget, that priority-0 streams see
  **zero** deferrals while lower classes absorb all of them, and that the
  admitted outcomes are a bitwise-identical prefix of the baseline's
  per-stream outcome sequences;
* a *bounded-queue overflow* run (tiny per-stream queues) -- gates that
  the loud ``admission_overflow`` statistic actually fires when backlog
  exceeds the bound;
* an *observability overhead* run -- the same policy-free workload with
  a metrics registry + tracer attached vs. without; gates that the
  instrumented median tick stays within ``OBSERVABILITY_OVERHEAD_MAX``
  of the uninstrumented one (the plain run has no tracer and counts
  into a private registry, so this bounds what opting in costs) and that
  attaching observability changes **zero** outcomes.

Everything lands in ``BENCH_controller.json`` /
``BENCH_controller_observability.json`` with the exact policy
configuration next to the usual transport/shards/host-core context, so
QoS numbers stay comparable across PRs and machines.
"""

import numpy as np
import pytest

from repro.serving import (
    AdmissionPolicy,
    MetricsRegistry,
    ServingController,
    StreamingEngine,
    build_stream_workload,
)
from repro.serving.observability import parse_prometheus

N_STREAMS = 256
N_TICKS = 30
PRIORITY_CLASSES = 4
FRAME_BUDGET = N_STREAMS // 2
#: Headroom over the expected admitted-tick cost (budget_frames x median
#: per-frame cost) granted to per-tick fixed costs and scheduler noise.
BUDGET_HEADROOM = 1.5
#: Instrumented-over-plain median tick latency bound.  Publication is a
#: few dict lookups and counter increments per tick plus two wall-clock
#: reads per phase span; 1.5x leaves room for timer noise on a busy
#: runner while still catching an accidentally hot publication path.
OBSERVABILITY_OVERHEAD_MAX = 1.5


@pytest.fixture(scope="module")
def workload(study_data):
    rng = np.random.default_rng(20260)
    return build_stream_workload(
        study_data.feature_model,
        N_STREAMS,
        N_TICKS,
        rng,
        priority_classes=PRIORITY_CLASSES,
    )


def _make_engine(study_data):
    return StreamingEngine(
        ddm=study_data.ddm,
        stateless_qim=study_data.stateless_qim,
        timeseries_qim=study_data.ta_qim,
        layout=study_data.layout,
    )


def _prefix_of(controlled: dict, baseline: dict) -> bool:
    return all(
        outcomes == baseline[stream_id][: len(outcomes)]
        for stream_id, outcomes in controlled.items()
    )


def test_admission_keeps_p95_within_budget(
    study_data, workload, write_bench_json, usable_cores
):
    # Both runs measure tick latency on the process CPU clock, not the
    # wall clock: the p95 gate compares work done per tick, and on an
    # oversubscribed CI runner a single scheduler preemption inside one
    # tick's step_batch would blow a wall-clock p95 through any budget
    # derived from the (equally noisy) baseline.  CPU time is what the
    # frame budget actually bounds; the wall-clock QoS behavior is
    # covered by the deterministic scripted-clock controller tests.
    import time

    # Unbounded baseline: every frame admitted every tick.
    baseline_controller = ServingController(
        _make_engine(study_data), clock=time.process_time
    )
    baseline_results = baseline_controller.run(workload.ticks)
    baseline_latencies = [
        t.latency_seconds for t in baseline_controller.telemetry
    ]
    per_frame_median = float(np.median(baseline_latencies)) / N_STREAMS
    latency_budget = BUDGET_HEADROOM * per_frame_median * FRAME_BUDGET

    # Admission-controlled run.  The static frame budget makes the
    # admission schedule deterministic (the dynamic latency-driven bound
    # would couple it to timer noise: one cold-cache tick inflating the
    # per-frame EWMA could momentarily starve priority 0 and flake the
    # zero-deferral gate); the derived latency budget is what the p95
    # gate below is judged against.
    policy = AdmissionPolicy(
        max_frames_per_tick=FRAME_BUDGET,
        max_deferred_per_stream=N_TICKS + 1,  # no drops in this run
    )
    controller = ServingController(
        _make_engine(study_data), admission=policy, clock=time.process_time
    )
    admitted_results = controller.run(workload.ticks)
    latencies = [t.latency_seconds for t in controller.telemetry]

    p95_baseline = float(np.percentile(baseline_latencies, 95))
    p95_admitted = float(np.percentile(latencies, 95))
    stats = controller.stats

    write_bench_json(
        "controller",
        {
            "streams": N_STREAMS,
            "ticks": N_TICKS,
            "priority_classes": PRIORITY_CLASSES,
            "latency_clock": "process_time",
            "policy": {
                "latency_budget_seconds": latency_budget,
                "max_frames_per_tick": FRAME_BUDGET,
                "max_deferred_per_stream": policy.max_deferred_per_stream,
                "priority_field": policy.priority_field,
            },
            "baseline_p50_tick_seconds": float(np.median(baseline_latencies)),
            "baseline_p95_tick_seconds": p95_baseline,
            "admitted_p95_tick_seconds": p95_admitted,
            "frames_submitted": stats.frames_submitted,
            "frames_admitted": stats.frames_admitted,
            "frames_deferred": stats.frames_deferred,
            "admission_overflow": stats.admission_overflow,
            "deferred_by_priority": {
                str(k): v for k, v in stats.deferred_by_priority.items()
            },
            "deferred_backlog": controller.backlog,
        },
        transport="single",
        shards=1,
    )

    # The baseline really was unbounded: it steps twice the frames per
    # tick that the budget allows, so the budget is binding.
    assert stats.frames_deferred > 0, "admission never deferred a frame"
    assert stats.admission_overflow == 0

    # Gate 1: p95 tick latency within the latency budget.
    assert p95_admitted <= latency_budget, (
        f"admitted p95 tick latency {p95_admitted * 1e3:.2f}ms exceeds the "
        f"budget {latency_budget * 1e3:.2f}ms"
    )

    # Gate 2: the highest-priority class is never deferred; every
    # deferral lands on classes 1+ (priority-then-arrival intake).
    assert stats.deferred_by_priority.get(0, 0) == 0, (
        "priority-0 streams must see zero deferrals, got "
        f"{stats.deferred_by_priority}"
    )
    assert sum(stats.deferred_by_priority.values()) == stats.frames_deferred

    # Gate 3: scheduling changed, results did not -- every admitted
    # outcome sequence is a bitwise prefix of the unbounded baseline's.
    assert _prefix_of(admitted_results, baseline_results), (
        "admitted outcomes diverge from the unbounded baseline"
    )
    # Priority-0 streams were fully served, not just 'not deferred'.
    for stream_id, results in baseline_results.items():
        if stream_id % PRIORITY_CLASSES == 0:
            assert admitted_results[stream_id] == results


def test_observability_overhead_is_bounded(
    study_data, workload, write_bench_json
):
    # Plain policy-free run: no tracer, counts into a private registry.
    plain = ServingController(_make_engine(study_data))
    plain_results = plain.run(workload.ticks)
    disabled = [t.latency_seconds for t in plain.telemetry]

    # Same run with a registry attached (which also auto-attaches a
    # wall-clock tracer, so phase spans are measured too -- the full
    # opt-in cost, not just counter publication).
    registry = MetricsRegistry()
    observed_controller = ServingController(
        _make_engine(study_data), metrics=registry
    )
    observed_results = observed_controller.run(workload.ticks)
    observed = [t.latency_seconds for t in observed_controller.telemetry]

    median_disabled = float(np.median(disabled))
    median_observed = float(np.median(observed))
    overhead = median_observed / median_disabled

    # The artifact carries the live registry snapshot: the same counter
    # families a production scrape of this run would have shown.
    write_bench_json(
        "controller_observability",
        {
            "streams": N_STREAMS,
            "ticks": N_TICKS,
            "median_disabled_tick_seconds": median_disabled,
            "median_observed_tick_seconds": median_observed,
            "overhead_ratio": overhead,
            "overhead_max": OBSERVABILITY_OVERHEAD_MAX,
        },
        transport="single",
        shards=1,
        metrics_snapshot=registry.snapshot(),
    )

    # Gate 1: observability never changes outcomes, only measures them.
    assert observed_results == plain_results, (
        "attaching metrics/tracing changed the served results"
    )
    # Gate 2: the scrape of the instrumented run parses strictly and
    # agrees with the controller's own counters.
    families = parse_prometheus(registry.render_prometheus())
    ticks_scraped = families["repro_controller_ticks_total"]["samples"][
        ("repro_controller_ticks_total", ())
    ]
    assert ticks_scraped == observed_controller.stats.ticks == N_TICKS
    # Gate 3: the instrumented median tick stays within the bound.
    assert median_observed <= OBSERVABILITY_OVERHEAD_MAX * median_disabled, (
        f"observability overhead {overhead:.2f}x exceeds the "
        f"{OBSERVABILITY_OVERHEAD_MAX}x bound "
        f"({median_observed * 1e3:.3f}ms vs {median_disabled * 1e3:.3f}ms)"
    )


def test_bounded_queue_overflow_is_loud(study_data, workload):
    policy = AdmissionPolicy(
        max_frames_per_tick=N_STREAMS // 4,
        max_deferred_per_stream=2,
    )
    controller = ServingController(_make_engine(study_data), admission=policy)
    controller.run(workload.ticks)
    stats = controller.stats
    assert stats.admission_overflow > 0, (
        "a 2-deep queue under 4x oversubmission must overflow"
    )
    assert stats.dropped_by_priority.get(0, 0) == 0, (
        "overflow drops must never hit the highest priority class"
    )
    per_stream_backlog = max(
        len(q) for q in controller._queues.values()
    )
    assert per_stream_backlog <= 2, "queue bound was not enforced"
