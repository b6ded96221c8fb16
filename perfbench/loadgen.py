"""Seeded load generation that keeps the serving heap clean.

The inputs live in packed numpy arrays: one pool of situation-augmented
GTSRB-like series, embedded once, plus per-stream cursors (series index
and frame position).  A tick's :class:`StreamFrame` objects are built from
those arrays just before the tick is due and dropped after it, so a run
never holds more than one tick of frame objects; holding a whole run's
frames turns the tail of a long run into one gen-2 GC pause.

Every frame gets fresh jitter on its model input, so no two frames of a
run are equal and a cache cannot profit from artificial sharing.  Only the
oracle sample's frames are copied and kept.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.datasets.gtsrb import N_CLASSES, GTSRBLikeGenerator
from repro.models.features import PrototypeFeatureModel
from repro.serving import StreamFrame

#: Series in the shared pool (~15k frames, a few MB packed).
POOL_SERIES = 512
#: Per-frame jitter of the model input (unit-norm embeddings).
X_JITTER = 1e-3
#: Per-frame jitter of the stateless quality values (clipped to [0, 1]).
Q_JITTER = 1e-4


class SeriesPool:
    """All pool series packed into two matrices plus offsets/lengths.

    Embedded with the study's embedding model (built the way
    ``prepare_study_data`` builds it for ``study``), so the DDM sees the
    input distribution it was trained on.
    """

    def __init__(self, study, rng: np.random.Generator) -> None:
        started = time.perf_counter()
        feature_model = PrototypeFeatureModel(
            N_CLASSES, study.feature_config, seed=study.seed + 1
        )
        generator = GTSRBLikeGenerator()
        base = generator.generate_base(POOL_SERIES, rng)
        dataset = generator.augment_with_situations(base, 1, rng)
        self.X = np.vstack([feature_model.embed_series(s, rng) for s in dataset])
        self.Q = np.vstack([s.sensed for s in dataset])
        self.lengths = np.array([s.n_frames for s in dataset], dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(self.lengths[:-1])))
        self.gen_seconds = time.perf_counter() - started


class FleetLoad:
    """A fixed set of streams ``0..n-1``, one frame each per tick.

    Each stream replays pool series back to back and raises
    ``new_series`` on the first frame of every series.  Series phases are
    drawn uniformly, so series boundaries are spread over all ticks.
    """

    def __init__(
        self, pool: SeriesPool, n_streams: int, seed: int, sample_every: int
    ) -> None:
        self.pool = pool
        self.rng = np.random.default_rng(seed)
        self.sample_every = sample_every
        #: Oracle sample: stream id -> [(model_input, quality, new_series)].
        self.sample: dict[int, list] = {}
        #: Wall and CPU seconds spent generating (``driver.gen_s``).
        self.gen_seconds = 0.0
        self.gen_cpu_seconds = 0.0
        self.tick = 0
        self.ids = np.arange(n_streams, dtype=np.int64)
        self.series = self._draw_series(n_streams)
        self.pos = (self.rng.random(n_streams) * pool.lengths[self.series]).astype(
            np.int64
        )

    def _draw_series(self, n: int) -> np.ndarray:
        return self.rng.integers(0, self.pool.lengths.size, n)

    def _priorities(self) -> list:
        return [0] * self.ids.size

    def _advance(self) -> None:
        """Move every cursor one frame on; finished series restart."""
        self.pos += 1
        done = self.pos >= self.pool.lengths[self.series]
        n_done = int(done.sum())
        self.series[done] = self._draw_series(n_done)
        self.pos[done] = 0

    def next_tick(self) -> list[StreamFrame]:
        """Build this tick's frames from the packed arrays."""
        wall, cpu = time.perf_counter(), time.process_time()
        pool, rng = self.pool, self.rng
        rows = pool.offsets[self.series] + self.pos
        X = pool.X[rows] + rng.normal(0.0, X_JITTER, (rows.size, pool.X.shape[1]))
        Q = pool.Q[rows] + rng.normal(0.0, Q_JITTER, (rows.size, pool.Q.shape[1]))
        np.clip(Q, 0.0, 1.0, out=Q)
        ids = self.ids.tolist()
        new = (self.pos == 0).tolist()
        frames = [
            StreamFrame(sid, x, q, n, priority=p)
            for sid, x, q, n, p in zip(ids, X, Q, new, self._priorities())
        ]
        for k in np.flatnonzero(self.ids % self.sample_every == 0).tolist():
            frame = (X[k].copy(), Q[k].copy(), new[k])
            self.sample.setdefault(ids[k], []).append(frame)
        self._advance()
        self.tick += 1
        self.gen_seconds += time.perf_counter() - wall
        self.gen_cpu_seconds += time.process_time() - cpu
        return frames


class ChurnLoad(FleetLoad):
    """Camera traffic: objects enter and leave view, ids never reused.

    The number of visible objects follows ``mean + amplitude * sin`` over
    ``period`` ticks.  Each object is a fresh integer stream id that shows
    one pool series and then leaves; new objects enter whenever the view
    holds fewer than the target.  Priority class is ``id % classes``.
    """

    def __init__(
        self,
        pool: SeriesPool,
        mean: int,
        amplitude: int,
        period: int,
        classes: int,
        seed: int,
        sample_every: int,
    ) -> None:
        self.mean, self.amplitude, self.period = mean, amplitude, period
        self.classes = classes
        super().__init__(pool, self._target(0), seed, sample_every)
        self.next_id = int(self.ids.size)

    def _target(self, tick: int) -> int:
        phase = 2.0 * math.pi * tick / self.period
        return int(round(self.mean + self.amplitude * math.sin(phase)))

    def _priorities(self) -> list:
        return (self.ids % self.classes).tolist()

    def _advance(self) -> None:
        self.pos += 1
        alive = self.pos < self.pool.lengths[self.series]
        self.ids, self.series, self.pos = (
            self.ids[alive], self.series[alive], self.pos[alive]
        )
        births = max(0, self._target(self.tick + 1) - self.ids.size)
        new_ids = np.arange(self.next_id, self.next_id + births, dtype=np.int64)
        self.next_id += births
        self.ids = np.concatenate((self.ids, new_ids))
        self.series = np.concatenate((self.series, self._draw_series(births)))
        self.pos = np.concatenate((self.pos, np.zeros(births, dtype=np.int64)))
