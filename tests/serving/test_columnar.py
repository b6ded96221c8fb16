"""The columnar tick path: one core, one assembler, one validation.

A tick travels as columns.  ``StreamingEngine.step_columns`` is the core
every serving path runs -- the single engine's ``step_batch`` and every
cluster worker -- and ``results_from_columns`` is the one assembler that
builds the result objects, at the single engine and at a cluster's
parent.  Proven here:

* the columnar core, ``step_batch`` and in-proc / pipe clusters at 1, 2
  and 4 shards all equal the paper's single-stream wrapper plus one
  monitor per stream, bit for bit, over a schedule with monitored and
  unmonitored streams side by side (a snapshot of an unmonitored run
  restored into engines that have a monitor factory), a scope model,
  ``new_series`` mid-run, frameless shards and empty ticks, and TTL
  eviction with re-creation;
* the vectorised validation pass and the per-frame loop agree on every
  generated frame list: the same ``X``/``Q`` bytes or the same
  ``ValidationError`` message;
* a worker handed malformed step columns directly -- as a TCP peer could
  send them, past the parent's checks -- rejects them atomically with
  ``ValidationError``, over a direct servicer and over a pipe alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import UncertaintyMonitor
from repro.core.scope import BoundaryCheck, ScopeComplianceModel
from repro.exceptions import ValidationError
from repro.serving import ShardedEngine, StreamFrame, StreamStepResult
from repro.serving.engine import (
    _check_rows,
    results_from_columns,
    validate_tick_frames,
)
from repro.serving.transport import WorkerServicer
from test_durability import assert_snapshots_identical
from test_engine import build_wrapper
from test_failover import make_factory

N_STREAMS = 12
N_TICKS = 14
#: Ticks run before the snapshot, on engines without a monitor factory.
RESTORE_TICK = 4
TTL = 2
BUFFER = 4


def scope_model():
    return ScopeComplianceModel(checks=[BoundaryCheck("lat", low=-60.0, high=60.0)])


def monitor():
    return UncertaintyMonitor(threshold=0.35, reentry_threshold=0.25, risk_budget=3.0)


def active(sid, tick):
    """Whether stream ``sid`` sends a frame at ``tick``."""
    if tick == 11:
        return False  # an empty tick: every shard is frameless
    if tick == 9:
        return sid == 0  # one frame: most shards are frameless
    if sid >= 8:
        return tick >= RESTORE_TICK + sid - 8  # monitored newcomers
    if sid == 3:
        return tick <= 5 or tick >= 10  # evicted at tick 8, re-created
    if sid == 4:
        return tick not in (6, 7)  # idle for TTL ticks: survives
    if sid == 5:
        return tick % 2 == 0
    return True


@pytest.fixture(scope="module")
def schedule(series_maker):
    """One frame list per tick; each stream consumes its series in order."""
    rng = np.random.default_rng(1601)
    series = series_maker(rng, n_series=N_STREAMS, length=N_TICKS)
    used = [0] * N_STREAMS
    ticks = []
    for tick in range(N_TICKS):
        frames = []
        for sid in range(N_STREAMS):
            if not active(sid, tick):
                continue
            X, q, _ = series[sid]
            k = used[sid]
            used[sid] += 1
            lat = 75.0 if (sid == 1 and tick >= 7) else 5.0 * sid
            frames.append(
                StreamFrame(
                    f"s{sid}" if sid % 3 else sid,
                    X[k],
                    q[k],
                    new_series=(sid, tick) in {(2, 6), (9, 10)},
                    scope_factors={"lat": lat},
                )
            )
        ticks.append(frames)
    return ticks


def oracle(synthetic_stack, schedule):
    """The paper's wrapper plus one monitor per stream, replayed per tick.

    A stream absent for more than ``TTL + 1`` ticks was evicted, so its
    next frame starts a fresh wrapper (and monitor); streams created
    before the restore have no monitor until then.
    """
    wrappers, monitors, last = {}, {}, {}
    expected = []
    for tick, frames in enumerate(schedule):
        results = []
        for frame in frames:
            sid = frame.stream_id
            if sid not in wrappers or tick - last[sid] > TTL + 1:
                wrappers[sid] = build_wrapper(
                    synthetic_stack,
                    scope_model=scope_model(),
                    max_buffer_length=BUFFER,
                )
                monitors[sid] = monitor() if tick >= RESTORE_TICK else None
            last[sid] = tick
            outcome = wrappers[sid].step(
                frame.model_input,
                frame.stateless_quality_values,
                new_series=frame.new_series,
                scope_factors=frame.scope_factors,
            )
            verdict = monitors[sid]
            if verdict is not None:
                verdict = verdict.judge(outcome.fused_uncertainty)
            results.append(StreamStepResult(sid, outcome, verdict))
        expected.append(results)
    return expected


def factories(synthetic_stack):
    """(unmonitored, monitored) engine factories of one configuration."""
    common = dict(scope_model=scope_model(), max_buffer_length=BUFFER, idle_ttl=TTL)
    return (
        make_factory(synthetic_stack, **common),
        make_factory(synthetic_stack, monitor_factory=monitor, **common),
    )


def step_by_columns(engine, frames):
    """One tick through ``step_columns`` and the assembler, no frames."""
    ids = [frame.stream_id for frame in frames]
    columns = engine.step_columns(
        ids,
        np.array([f.model_input for f in frames]) if frames else np.empty((0, 0)),
        np.array([f.stateless_quality_values for f in frames])
        if frames
        else np.empty((0, len(engine.layout.stateless_names))),
        [frame.new_series for frame in frames],
        [frame.scope_factors for frame in frames],
    )
    return results_from_columns(ids, columns)


def run_single(synthetic_stack, schedule, step):
    plain, monitored = factories(synthetic_stack)
    engine = plain()
    served = [step(engine, frames) for frames in schedule[:RESTORE_TICK]]
    resumed = monitored()
    resumed.restore(engine.snapshot())
    served += [step(resumed, frames) for frames in schedule[RESTORE_TICK:]]
    return served, resumed


class TestDifferential:
    def test_columns_and_step_batch_match_the_oracle(
        self, synthetic_stack, schedule
    ):
        expected = oracle(synthetic_stack, schedule)
        by_columns, engine = run_single(synthetic_stack, schedule, step_by_columns)
        by_frames, reference = run_single(
            synthetic_stack, schedule, lambda e, frames: e.step_batch(frames)
        )
        assert by_columns == expected  # frozen dataclasses: exact floats
        assert by_frames == expected
        assert_snapshots_identical(engine.snapshot(), reference.snapshot())
        # The schedule reaches what it claims to.
        verdicts = [r.verdict for tick in expected for r in tick]
        assert None in verdicts and any(v is not None for v in verdicts)
        assert engine.registry.statistics.evicted >= 1
        assert any(r.outcome.scope_incompliance == 1.0 for r in expected[8])
        assert schedule[11] == [] and len(schedule[9]) == 1

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("transport", ["inproc", "pipe"])
    def test_cluster_matches_the_oracle(
        self, synthetic_stack, schedule, transport, n_shards
    ):
        expected = oracle(synthetic_stack, schedule)
        plain, monitored = factories(synthetic_stack)
        with ShardedEngine(plain, n_shards, transport=transport) as cluster:
            served = [cluster.step_batch(f) for f in schedule[:RESTORE_TICK]]
            snapshot = cluster.snapshot()
        with ShardedEngine(monitored, n_shards, transport=transport) as cluster:
            cluster.restore(snapshot)
            served += [cluster.step_batch(f) for f in schedule[RESTORE_TICK:]]
            statistics = cluster.statistics()
        assert served == expected
        assert statistics.evicted >= 1


# ---------------------------------------------------------------------------
# Vectorised validation pass vs the per-frame loop
# ---------------------------------------------------------------------------

N_STATELESS = 2
FORMS = ["flat", "row", "column", "list", "scalar"]
FAULTS = ["duplicate", "non-finite", "no scope", "q width", "x width", "x form"]


def shaped(values, form):
    """``values`` as a ``(w,)`` array, a ``(1, w)`` row, a ``(w, 1)``
    column, a plain list, or (first value only) a Python scalar."""
    if form == "scalar":
        return values[0]
    if form == "list":
        return list(values)
    array = np.asarray(values, dtype=float)
    return {"flat": array, "row": array[None, :], "column": array[:, None]}[form]


@st.composite
def frame_lists(draw):
    """A tick in one row layout (``Q`` rows of the right width or, now
    and then, all of one wrong width), with zero to two faults injected:
    a duplicate id, a NaN/inf, a missing scope, one ``Q`` row of another
    width, or one frame of another width or row layout."""
    n = draw(st.integers(2, 6))
    width = draw(st.integers(1, 3))
    form = draw(st.sampled_from(FORMS))
    q_width = draw(st.sampled_from([N_STATELESS, N_STATELESS, 1, 3]))
    q_form = draw(st.sampled_from(["flat", "row", "list"]))
    values = st.floats(-4.0, 4.0)
    rows = [
        {
            "id": f"s{i}",
            "x": draw(st.lists(values, min_size=width, max_size=width)),
            "x_form": form,
            "q": draw(st.lists(values, min_size=q_width, max_size=q_width)),
            "scope": {"lat": 1.0},
        }
        for i in range(n)
    ]
    for _ in range(draw(st.integers(0, 2))):
        victim = draw(st.integers(0, n - 1))
        row = rows[victim]
        fault = draw(st.sampled_from(FAULTS))
        if fault == "duplicate":
            row["id"] = rows[(victim + draw(st.integers(1, n - 1))) % n]["id"]
        elif fault == "non-finite":
            target = row["q"] if draw(st.booleans()) else row["x"]
            target[-1] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        elif fault == "no scope":
            row["scope"] = None
        elif fault == "q width":
            row["q"] = draw(st.lists(values, min_size=0, max_size=3))
        elif fault == "x width":
            row["x"] = draw(st.lists(values, min_size=1, max_size=4))
        else:
            row["x_form"] = draw(st.sampled_from(FORMS))
    return [
        StreamFrame(
            row["id"],
            shaped(row["x"], row["x_form"]),
            shaped(row["q"], q_form) if row["q"] else row["q"],
            scope_factors=row["scope"],
        )
        for row in rows
    ]


def verdict(check):
    try:
        X, Q = check()
    except ValidationError as error:
        return ("rejected", str(error))
    return ("accepted", X.shape, X.dtype, X.tobytes(), Q.shape, Q.dtype, Q.tobytes())


class TestValidationPasses:
    @given(frames=frame_lists(), has_scope_model=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_vectorised_pass_agrees_with_the_per_frame_loop(
        self, frames, has_scope_model
    ):
        loop = verdict(
            lambda: _check_rows(
                [f.stream_id for f in frames],
                [f.model_input for f in frames],
                [f.stateless_quality_values for f in frames],
                [f.scope_factors for f in frames],
                N_STATELESS,
                has_scope_model,
            )
        )
        assert (
            verdict(lambda: validate_tick_frames(frames, N_STATELESS, has_scope_model))
            == loop
        )


# ---------------------------------------------------------------------------
# Malformed columns at the worker entry
# ---------------------------------------------------------------------------

def payload(schedule, tick):
    frames = schedule[tick]
    return {
        "ids": [frame.stream_id for frame in frames],
        "X": np.array([frame.model_input for frame in frames]),
        "Q": np.array([frame.stateless_quality_values for frame in frames]),
        "new_series": np.zeros(len(frames), bool),
        "scope": [frame.scope_factors for frame in frames],
    }


def duplicate_ids(p):
    return {**p, "ids": p["ids"][:-1] + p["ids"][:1]}


def nan_input(p):
    X = p["X"].copy()
    X[len(X) // 2, 0] = np.nan
    return {**p, "X": X}


def wide_q(p):
    return {**p, "Q": np.hstack([p["Q"], p["Q"][:, :1]])}


def short_q(p):
    return {**p, "Q": p["Q"][:-1]}


def missing_scope(p):
    return {**p, "scope": p["scope"][:-1] + [None]}


MALFORMED = [duplicate_ids, nan_input, wide_q, short_q, missing_scope]


class TestWorkerEntryRejects:
    @pytest.mark.parametrize("corrupt", MALFORMED, ids=lambda f: f.__name__)
    def test_servicer_rejects_atomically(self, synthetic_stack, schedule, corrupt):
        _, monitored = factories(synthetic_stack)
        engine = monitored()
        servicer = WorkerServicer(engine)
        servicer.handle("step", payload(schedule, 0))
        before = engine.snapshot()
        with pytest.raises(ValidationError):
            servicer.handle("step", corrupt(payload(schedule, 1)))
        assert engine.tick == 1
        assert_snapshots_identical(engine.snapshot(), before)

    def test_servicer_rejects_ragged_q_rows(self, synthetic_stack, schedule):
        _, monitored = factories(synthetic_stack)
        engine = monitored()
        bad = payload(schedule, 0)
        bad["Q"] = [list(row) for row in bad["Q"]]
        bad["Q"][-1] = bad["Q"][-1] + [0.5]
        with pytest.raises(ValidationError, match="stateless quality values"):
            WorkerServicer(engine).handle("step", bad)
        assert engine.tick == 0 and len(engine.registry) == 0

    @pytest.mark.parametrize("corrupt", MALFORMED, ids=lambda f: f.__name__)
    def test_pipe_worker_rejects_atomically(self, synthetic_stack, schedule, corrupt):
        _, monitored = factories(synthetic_stack)
        with ShardedEngine(monitored, 1, transport="pipe") as cluster:
            cluster.step_batch(schedule[0])
            before = cluster.snapshot()
            worker = cluster._workers[0]
            worker.tick_tag = cluster.tick + 1
            with pytest.raises(ValidationError):
                worker.request("step", corrupt(payload(schedule, 1)))
            assert worker.request("stats")["tick"] == 1
            assert_snapshots_identical(cluster.snapshot(), before)
            # The worker stays in protocol and serves the real tick.
            reference = monitored()
            reference.step_batch(schedule[0])
            assert cluster.step_batch(schedule[1]) == reference.step_batch(
                schedule[1]
            )
