"""Bitwise oracle: the paper's single-stream wrapper replays the sample.

Each sampled stream's frames, in the order they were served, go through a
fresh :class:`TimeseriesAwareUncertaintyWrapper` plus a fresh
:class:`UncertaintyMonitor`; every outcome and verdict must equal the
served one exactly (dataclass equality, so floats compare bit for bit).
"""

from __future__ import annotations

from repro.core.timeseries_wrapper import TimeseriesAwareUncertaintyWrapper


def mismatches(
    study, sample: dict, served: dict, monitor_factory, max_buffer_length
) -> int:
    """Frames whose served result differs from the replay (0 = pass).

    ``sample`` maps stream id -> offered ``(model_input, quality,
    new_series)`` in order; ``served`` maps stream id -> served
    :class:`StreamStepResult` in order.  Frames still queued when the
    window closed have no result and are not compared; a served result
    without an offered frame is a mismatch.
    """
    bad = 0
    for stream_id, frames in sample.items():
        results = served.get(stream_id, [])
        bad += max(0, len(results) - len(frames))
        wrapper = TimeseriesAwareUncertaintyWrapper(
            ddm=study.ddm,
            stateless_qim=study.stateless_qim,
            timeseries_qim=study.ta_qim,
            layout=study.layout,
            max_buffer_length=max_buffer_length,
        )
        monitor = monitor_factory()
        for (x, q, new_series), result in zip(frames, results):
            outcome = wrapper.step(x, q, new_series=new_series)
            verdict = monitor.judge(outcome.fused_uncertainty)
            if outcome != result.outcome or verdict != result.verdict:
                bad += 1
    return bad
