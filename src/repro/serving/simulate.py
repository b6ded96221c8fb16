"""Simulated serving workloads: interleaved GTSRB situation streams.

Builds the tick-by-tick frame schedule a deployed perception stack would
produce: ``n_streams`` concurrent tracked objects, each replaying
situation-augmented GTSRB-like series frame by frame and starting a fresh
physical object (``new_series=True``) whenever its current series ends.
The schedule is consumed by :meth:`StreamingEngine.step_batch` (one list of
frames per tick) and by the naive per-stream wrapper loop the CLI and the
throughput benchmark compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.timeseries_wrapper import (
    TimeseriesAwareUncertaintyWrapper,
    TimeseriesWrappedOutcome,
)
from repro.datasets.gtsrb import GTSRBLikeGenerator
from repro.exceptions import ValidationError
from repro.models.features import PrototypeFeatureModel
from repro.serving.controller import ServingController
from repro.serving.engine import StreamFrame, StreamingEngine

__all__ = [
    "StreamWorkload",
    "build_stream_workload",
    "replay_engine",
    "replay_naive",
    "replay_results",
]


@dataclass
class StreamWorkload:
    """A precomputed serving workload: frames grouped per tick.

    Attributes
    ----------
    ticks:
        ``ticks[t]`` holds one :class:`StreamFrame` per stream for tick
        ``t``; every stream appears in every tick.
    n_streams:
        Number of concurrent streams.
    """

    ticks: list[list[StreamFrame]]
    n_streams: int

    @property
    def n_ticks(self) -> int:
        return len(self.ticks)

    @property
    def n_frames(self) -> int:
        """Total frames over all ticks and streams."""
        return sum(len(t) for t in self.ticks)


def build_stream_workload(
    feature_model: PrototypeFeatureModel,
    n_streams: int,
    n_ticks: int,
    rng: np.random.Generator,
    generator: GTSRBLikeGenerator | None = None,
    settings_per_series: int = 1,
    priority_classes: int = 1,
) -> StreamWorkload:
    """Build an interleaved replay of situation-augmented GTSRB streams.

    Each stream cycles through freshly generated series (random realistic
    situation settings, as the paper's calibration/test treatment), raising
    ``new_series`` on the first frame of every series -- the signal the
    tracking substrate would emit when a new physical sign enters view.

    Parameters
    ----------
    feature_model:
        The study's embedding model (produces the DDM inputs).
    n_streams / n_ticks:
        Workload shape: every stream contributes one frame per tick.
    rng:
        Randomness source for series generation and embeddings.
    generator:
        Series source; a default :class:`GTSRBLikeGenerator` when omitted.
    settings_per_series:
        Situation augmentations per base series.
    priority_classes:
        QoS priority classes dealt round-robin over the streams
        (stream ``s`` gets class ``s % priority_classes``); class 0 is
        the most important.  1 (the default) leaves every frame at the
        engine-default priority, which admission-free runs ignore
        entirely.
    """
    if n_streams < 1:
        raise ValidationError(f"n_streams must be >= 1, got {n_streams}")
    if n_ticks < 1:
        raise ValidationError(f"n_ticks must be >= 1, got {n_ticks}")
    if priority_classes < 1:
        raise ValidationError(
            f"priority_classes must be >= 1, got {priority_classes}"
        )
    generator = generator or GTSRBLikeGenerator()

    # Generate enough augmented series to cover n_streams * n_ticks frames,
    # then deal them out stream by stream.
    frames_needed = n_streams * n_ticks
    mean_frames = sum(generator.frames_per_series) / 2
    n_base = int(np.ceil(frames_needed / (mean_frames * settings_per_series))) + n_streams
    base = generator.generate_base(n_base, rng)
    dataset = generator.augment_with_situations(base, settings_per_series, rng)

    series_pool = iter(dataset.series)
    per_stream: list[list[StreamFrame]] = []
    for stream_id in range(n_streams):
        frames: list[StreamFrame] = []
        while len(frames) < n_ticks:
            try:
                series = next(series_pool)
            except StopIteration:  # pool underestimated; generate more
                extra = generator.augment_with_situations(
                    generator.generate_base(n_streams, rng), settings_per_series, rng
                )
                series_pool = iter(extra.series)
                series = next(series_pool)
            embeddings = feature_model.embed_series(series, rng)
            for t in range(series.n_frames):
                frames.append(
                    StreamFrame(
                        stream_id=stream_id,
                        model_input=embeddings[t],
                        stateless_quality_values=series.sensed[t],
                        new_series=(t == 0),
                        priority=stream_id % priority_classes,
                    )
                )
        per_stream.append(frames[:n_ticks])

    ticks = [
        [per_stream[s][t] for s in range(n_streams)] for t in range(n_ticks)
    ]
    return StreamWorkload(ticks=ticks, n_streams=n_streams)


def replay_engine(
    engine: StreamingEngine, workload: StreamWorkload
) -> dict[object, list[TimeseriesWrappedOutcome]]:
    """Run the workload through ``step_batch``, outcomes grouped per stream.

    Driven by a policy-free :class:`ServingController` -- the single tick
    loop every serving path shares -- which is bitwise-identical to
    calling ``engine.step_batch`` tick by tick.
    """
    return {
        stream_id: [result.outcome for result in results]
        for stream_id, results in replay_results(engine, workload).items()
    }


def replay_results(engine, workload: StreamWorkload) -> dict[object, list]:
    """Run the workload, keeping the *full* results per stream.

    Like :func:`replay_engine` but retains each :class:`StreamStepResult`
    (monitor verdicts included) instead of just the outcome -- the shape
    the cluster equivalence checks compare, and transport-agnostic: a
    :class:`StreamingEngine` or a
    :class:`~repro.serving.cluster.ShardedEngine` on any transport fits.
    The tick loop is the control plane's (policy-free), so every replay
    exercises the same driver the CLI and benchmarks use; the engine is
    left open (the caller owns its lifecycle).
    """
    with ServingController(engine, owns_engine=False) as controller:
        return controller.run(workload.ticks)


def replay_naive(
    wrapper_factory, workload: StreamWorkload
) -> dict[object, list[TimeseriesWrappedOutcome]]:
    """Replay the workload through one wrapper ``step`` call per frame.

    The baseline the streaming engine is measured against: per-stream
    :class:`TimeseriesAwareUncertaintyWrapper` instances stepped
    sequentially in the same interleaved tick order.

    Parameters
    ----------
    wrapper_factory:
        Zero-argument callable building one fresh wrapper per stream.
    workload:
        The same workload fed to :func:`replay_engine`.
    """
    wrappers: dict[object, TimeseriesAwareUncertaintyWrapper] = {}
    outcomes: dict[object, list[TimeseriesWrappedOutcome]] = {}
    for frames in workload.ticks:
        for frame in frames:
            wrapper = wrappers.get(frame.stream_id)
            if wrapper is None:
                wrapper = wrappers[frame.stream_id] = wrapper_factory()
            outcome = wrapper.step(
                frame.model_input,
                frame.stateless_quality_values,
                new_series=frame.new_series,
            )
            outcomes.setdefault(frame.stream_id, []).append(outcome)
    return outcomes
