"""Non-finite inputs are rejected atomically, on every serving path.

A NaN or inf in a frame's model input or stateless quality values still
comes out of the DDM and the quality trees as an outcome with a
*confident* uncertainty -- garbage served as a dependable answer.  The
single-stream wrapper therefore rejects such a frame, and every engine
rejects the whole tick carrying it, before any state changes.
Hypothesis picks the poisoned frame, field, position and value; the
serving state afterwards must be bitwise what it was before the
rejected step.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.serving import ShardedEngine
from test_durability import assert_snapshots_identical
from test_engine import build_wrapper
from test_failover import make_factory, monitored_kwargs, tick_frames

N_STREAMS = 6
WARM_TICKS = 2

#: (poisoned stream, poisoned field, flat position, poison value).
POISONINGS = st.tuples(
    st.integers(0, N_STREAMS - 1),
    st.sampled_from(["model_input", "stateless_quality_values"]),
    st.integers(0, 63),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)


@pytest.fixture(scope="module")
def workload(series_maker):
    rng = np.random.default_rng(1201)
    series = series_maker(rng, n_series=N_STREAMS, length=WARM_TICKS + 1)
    ids = [f"s{sid}" for sid in range(N_STREAMS)]
    return series, ids


def poison(frame, field, position, value):
    """``frame`` with one element of ``field`` replaced by ``value``."""
    values = np.array(getattr(frame, field), dtype=float)
    values.flat[position % values.size] = value
    return replace(frame, **{field: values})


def poisoned_tick(workload, poisoning):
    series, ids = workload
    victim, field, position, value = poisoning
    frames = tick_frames(series, ids, WARM_TICKS)
    frames[victim] = poison(frames[victim], field, position, value)
    return frames


def assert_engine_rejects_atomically(engine, workload, poisoning):
    series, ids = workload
    for t in range(WARM_TICKS):
        engine.step_batch(tick_frames(series, ids, t))
    before = engine.snapshot()
    with pytest.raises(ValidationError, match="finite"):
        engine.step_batch(poisoned_tick(workload, poisoning))
    assert engine.tick == WARM_TICKS
    assert_snapshots_identical(engine.snapshot(), before)


class TestNonFiniteInput:
    @given(poisoning=POISONINGS)
    @settings(max_examples=25, deadline=None)
    def test_wrapper_rejects_before_any_mutation(
        self, synthetic_stack, workload, poisoning
    ):
        series, ids = workload
        victim = poisoning[0]
        wrapper = build_wrapper(synthetic_stack, max_buffer_length=4)
        for t in range(WARM_TICKS):
            wrapper.step(series[victim][0][t], series[victim][1][t])

        def state():
            buffer = wrapper.buffer
            return wrapper.timestep, buffer.outcomes, buffer.uncertainties

        before = state()
        frame = poisoned_tick(workload, poisoning)[victim]
        with pytest.raises(ValidationError, match="finite"):
            # new_series too: a rejected frame must not reset the series.
            wrapper.step(
                frame.model_input,
                frame.stateless_quality_values,
                new_series=True,
            )
        assert state() == before

    @given(poisoning=POISONINGS)
    @settings(max_examples=25, deadline=None)
    def test_streaming_engine_rejects_the_whole_tick(
        self, synthetic_stack, workload, poisoning
    ):
        engine = make_factory(synthetic_stack, **monitored_kwargs())()
        assert_engine_rejects_atomically(engine, workload, poisoning)

    @given(poisoning=POISONINGS)
    @settings(max_examples=25, deadline=None)
    def test_sharded_engine_rejects_the_whole_tick(
        self, synthetic_stack, workload, poisoning
    ):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        with ShardedEngine(factory, 2, transport="inproc") as cluster:
            assert_engine_rejects_atomically(cluster, workload, poisoning)
