"""Batched taUW inference over many concurrent object streams.

The paper's :class:`~repro.core.timeseries_wrapper.TimeseriesAwareUncertaintyWrapper`
serves exactly one physical object: one buffer, one fusion pass, one taQIM
lookup per frame.  A deployed perception stack tracks many objects per
camera frame and many clients at once, and serving N objects through N
wrapper ``step`` calls costs N sequential DDM inferences and N tree
lookups.

:class:`StreamingEngine` runs one whole tick -- one frame from each of N
streams -- as a single vectorized pass:

1. one batched ``ddm.predict`` over all N model inputs;
2. one batched stateless-QIM lookup for the momentaneous uncertainties;
3. per-stream ring-buffer appends (O(1) each) via the
   :class:`~repro.serving.registry.StreamRegistry`;
4. one vectorized information-fusion pass over all N buffers
   (:func:`repro.fusion.vectorized.fuse_segments`);
5. one batched taQF assembly + one batched taQIM lookup, combined with
   the per-frame scope-incompliance probability when a scope model is
   configured (the wrapper's full onion-shell estimate, not quality-only);
6. one vectorized simplex monitor pass over all N streams
   (:func:`repro.core.monitor.judge_many`).

A tick travels as columns: :func:`validate_tick_frames` stacks the
frames into ``X``/``Q`` matrices, :meth:`StreamingEngine.step_columns`
(the one columnar core) turns columns into result columns, and
:func:`results_from_columns` (the one assembler) builds the
:class:`StreamStepResult` objects.  ``step_batch`` is the three in a row;
a cluster runs the core on its workers and the rest on its parent.

Because steps 4-5 run the same segmented kernels the single-stream wrapper
uses, a stream served inside a 1000-stream batch produces bitwise-identical
outcomes and uncertainties to the same frames replayed through
``wrapper.step`` -- provided the DDM's ``predict`` is row-independent, as
every model in this codebase is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.combination import combine_uncertainties
from repro.core.monitor import (
    MonitorDecision,
    MonitorVerdict,
    UncertaintyMonitor,
    judge_many,
)
from repro.core.quality_factors import QualityFactorLayout
from repro.core.quality_impact import QualityImpactModel
from repro.core.ragged import RaggedBatch
from repro.core.scope import ScopeComplianceModel
from repro.core.timeseries_wrapper import TimeseriesWrappedOutcome
from repro.exceptions import NotCalibratedError, ValidationError
from repro.fusion.information import InformationFusion, MajorityVote
from repro.fusion.vectorized import fuse_segments
from repro.serving.registry import StreamRegistry
from repro.serving.state import RegistrySnapshot

__all__ = [
    "StreamFrame",
    "StreamStepResult",
    "StreamingEngine",
    "results_from_columns",
    "validate_tick_frames",
]


@dataclass(frozen=True)
class StreamFrame:
    """One frame of one object stream, as submitted to ``step_batch``.

    Attributes
    ----------
    stream_id:
        Caller-chosen identifier of the tracked object stream (hashable).
    model_input:
        One DDM input row for this frame.
    stateless_quality_values:
        The frame's stateless quality-factor values, ordered as
        ``layout.stateless_names``.
    new_series:
        True when the tracking component signals that the stream now shows
        a new physical object (clears the stream's buffer first).
    scope_factors:
        Named scope-factor values for this frame; required (per frame)
        when the engine was built with a scope model, ignored otherwise.
    priority:
        QoS priority class of this frame (smaller = more important).
        The engine itself ignores it -- outcomes never depend on
        priority -- but the control plane's
        :class:`~repro.serving.controller.AdmissionPolicy` admits
        lower-numbered classes first when a tick exceeds its budget.
    """

    stream_id: object
    model_input: object
    stateless_quality_values: object
    new_series: bool = False
    scope_factors: dict | None = None
    priority: int = 0


@dataclass(frozen=True)
class StreamStepResult:
    """Result of one stream's frame within a batched tick.

    Attributes
    ----------
    stream_id:
        The stream the result belongs to.
    outcome:
        The taUW outcome, identical in shape and semantics to what the
        single-stream wrapper's ``step`` returns.
    verdict:
        The stream monitor's accept/fallback decision, or ``None`` when
        the engine runs without monitors.
    """

    stream_id: object
    outcome: TimeseriesWrappedOutcome
    verdict: MonitorVerdict | None = None

    @property
    def accepted(self) -> bool:
        """Monitor decision as a flag (True when unmonitored)."""
        return self.verdict is None or self.verdict.accepted


def validate_tick_frames(
    frames: list[StreamFrame], n_stateless: int, has_scope_model: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-tick input validation, shared by the single-process engine,
    the sharded cluster's parent, and the controller's admission intake.

    Checks everything checkable without the models -- duplicate stream
    ids, one-row model inputs of one width, stateless-quality width,
    finite values, scope-factor presence -- and raises
    :class:`ValidationError` before any state changes anywhere.  Sharing
    one implementation keeps the cluster's whole-tick atomic reject
    byte-identical (messages included) to the single engine's.

    Non-finite inputs (NaN or inf in ``model_input`` or the stateless
    quality values) reject the whole tick: a DDM and a quality tree fed
    garbage still produce an outcome and a *confident* uncertainty, so
    serving them would be a dependability violation.

    A clean tick of all-``(d,)`` or all-``(1, d)`` rows passes on one
    vectorised pass; a fault, or any other row layout, runs the per-frame
    loop, which names the first offending frame.

    Returns the stacked ``(X, Q)`` matrices: one model-input row and one
    stateless-quality row per frame, in input order.
    """
    return _stack_checked(
        [frame.stream_id for frame in frames],
        [frame.model_input for frame in frames],
        [frame.stateless_quality_values for frame in frames],
        [frame.scope_factors for frame in frames],
        n_stateless,
        has_scope_model,
    )


def _stack_checked(ids, model_inputs, quality, scopes, n_stateless, has_scope_model):
    """The vectorised pass, then the per-frame loop only if it declined."""
    if not ids:
        return np.empty((0, 0)), np.empty((0, n_stateless))
    columns = (ids, model_inputs, quality, scopes, n_stateless, has_scope_model)
    try:
        stacked = _stack_clean(*columns)
    except (TypeError, ValueError):  # unhashable ids, ragged or odd rows
        stacked = None
    return _check_rows(*columns) if stacked is None else stacked


def _stack_clean(ids, model_inputs, quality, scopes, n_stateless, has_scope_model):
    """The vectorised pass: ``(X, Q)``, or ``None`` to let the loop decide."""
    n = len(ids)
    if len(set(ids)) != n:
        return None
    if has_scope_model and any(scope is None for scope in scopes):
        return None
    X = np.asarray(model_inputs, dtype=float)
    if X.ndim == 3 and X.shape[1] == 1:  # all (1, d) rows
        X = X.reshape(n, X.shape[2])
    Q = np.asarray(quality, dtype=float)
    if X.ndim != 2 or Q.ndim != 2 or Q.shape[1] != n_stateless:
        return None
    if not (np.isfinite(X).all() and np.isfinite(Q).all()):
        return None
    return X, Q


def _check_rows(ids, model_inputs, quality, scopes, n_stateless, has_scope_model):
    """The per-frame loop: names the first offending frame, or stacks."""
    seen: set = set()
    rows, quality_rows = [], []
    for stream_id, model_input, values, scope in zip(
        ids, model_inputs, quality, scopes
    ):
        if stream_id in seen:
            raise ValidationError(
                f"duplicate stream {stream_id!r} within one tick; "
                "submit at most one frame per stream per step_batch call"
            )
        seen.add(stream_id)
        row = np.atleast_2d(np.asarray(model_input, dtype=float))
        if row.shape[0] != 1:
            raise ValidationError(
                f"stream {stream_id!r}: model_input must be one row, "
                f"got shape {row.shape}"
            )
        q = np.asarray(values, dtype=float).ravel()
        if q.size != n_stateless:
            raise ValidationError(
                f"stream {stream_id!r}: expected {n_stateless} "
                f"stateless quality values, got {q.size}"
            )
        if has_scope_model and scope is None:
            raise ValidationError(
                f"stream {stream_id!r}: this engine has a scope "
                "model; scope_factors are required"
            )
        rows.append(row[0])
        quality_rows.append(q)
    try:
        X = np.asarray(rows)
    except ValueError:
        raise ValidationError(
            "model_input rows of one tick must all have the same width"
        ) from None
    Q = np.asarray(quality_rows)
    if not (np.isfinite(X).all() and np.isfinite(Q).all()):
        bad = ~(np.isfinite(X).all(axis=1) & np.isfinite(Q).all(axis=1))
        raise ValidationError(
            f"stream {ids[int(np.flatnonzero(bad)[0])]!r}: model_input and "
            "stateless quality values must be finite (NaN/inf rejects the "
            "whole tick)"
        )
    return X, Q


class StreamingEngine:
    """Batched taUW serving over a registry of concurrent object streams.

    Parameters
    ----------
    ddm:
        Black-box model with a row-independent batch ``predict``.
    stateless_qim / timeseries_qim:
        Calibrated quality impact models, as for the single-stream wrapper.
    layout:
        Feature layout shared with training.
    information_fusion:
        Fusion rule; the paper's majority vote (vectorized) when omitted.
    scope_model:
        Optional scope-compliance model; when set, every frame must carry
        ``scope_factors`` and the served uncertainty is the *combined*
        estimate ``1 - (1 - u_quality)(1 - u_scope)``, matching the
        single-stream wrapper.
    max_buffer_length:
        Sliding-window cap per stream buffer.
    monitor_factory:
        Builds one :class:`UncertaintyMonitor` per new stream (``None``
        serves without monitoring).
    idle_ttl:
        Evict streams after this many ticks without frames.
    """

    def __init__(
        self,
        ddm,
        stateless_qim: QualityImpactModel,
        timeseries_qim: QualityImpactModel,
        layout: QualityFactorLayout,
        information_fusion: InformationFusion | None = None,
        scope_model: ScopeComplianceModel | None = None,
        max_buffer_length: int | None = None,
        monitor_factory: Callable[[], UncertaintyMonitor] | None = None,
        idle_ttl: int | None = None,
    ) -> None:
        if not hasattr(ddm, "predict"):
            raise ValidationError("ddm must expose a predict() method")
        if not stateless_qim.is_calibrated:
            raise NotCalibratedError("stateless_qim must be calibrated")
        if not timeseries_qim.is_calibrated:
            raise NotCalibratedError("timeseries_qim must be calibrated")
        self.ddm = ddm
        self.stateless_qim = stateless_qim
        self.timeseries_qim = timeseries_qim
        self.layout = layout
        self.information_fusion = information_fusion or MajorityVote()
        self.scope_model = scope_model
        self.registry = StreamRegistry(
            max_buffer_length=max_buffer_length,
            monitor_factory=monitor_factory,
            idle_ttl=idle_ttl,
        )
        #: ``(n_stateless, has_scope_model)``: what tick validation checks.
        self._shape = (len(layout.stateless_names), scope_model is not None)
        self._tick = 0
        #: Results of submitted-but-uncollected ticks, oldest first.
        self._ready: deque[list[StreamStepResult]] = deque()

    @property
    def tick(self) -> int:
        """Number of completed ``step_batch`` calls."""
        return self._tick

    @property
    def n_streams(self) -> int:
        """Number of currently tracked streams."""
        return len(self.registry)

    # ------------------------------------------------------------------
    def step_batch(self, frames: Sequence[StreamFrame]) -> list[StreamStepResult]:
        """Process one tick: one frame from each of the given streams.

        Returns one :class:`StreamStepResult` per input frame, in input
        order.  Advances the engine tick and sweeps idle streams
        afterwards; an empty batch still counts as a tick (time passes
        without frames).  A *rejected* batch (validation error) advances
        nothing: no frames were recorded, so existing streams neither age
        toward eviction nor lose state.  If a downstream component fails
        *after* the frames were recorded (e.g. a misbehaving taQIM), the
        tick still advances -- the error message says so -- because the
        frames are committed and must not be resubmitted.
        """
        frames = list(frames)
        X, Q = validate_tick_frames(frames, *self._shape)
        ids = [frame.stream_id for frame in frames]
        new_series = [frame.new_series for frame in frames]
        scopes = [frame.scope_factors for frame in frames]
        return results_from_columns(
            ids, self._step_columns(ids, X, Q, new_series, scopes)
        )

    def step_columns(
        self, ids: Sequence, X, Q, new_series=None, scope: list | None = None
    ) -> dict:
        """One tick as columns in, its results as columns out.

        Per frame: a stream id, an ``X`` and a ``Q`` row, a ``new_series``
        flag (False when omitted), a ``scope`` dict.  The checks and
        messages of :func:`validate_tick_frames` run first (a worker
        trusts no peer), so a malformed tick rejects atomically.  Returns
        int64 ``fused``/``isolated``/``timestep`` and float64
        ``fused_u``/``isolated_u``/``scope_u`` columns, plus the ``v_*``
        verdict columns when any stream is monitored: a worker's step
        reply, as it is.
        """
        ids = list(ids)
        n = len(ids)
        flags = np.asarray(n * [False] if new_series is None else new_series, bool)
        scopes = [None] * n if scope is None else list(scope)
        try:
            aligned = len(X) == len(Q) == len(flags) == len(scopes) == n
        except TypeError:  # a scalar where a column belongs
            aligned = False
        if not aligned:
            raise ValidationError(f"step columns do not all hold {n} rows")
        X, Q = _stack_checked(ids, X, Q, scopes, *self._shape)
        return self._step_columns(ids, X, Q, flags.tolist(), scopes)

    def submit_batch(self, frames: Sequence[StreamFrame]) -> int:
        """Step one tick now; hold its results for :meth:`collect_batch`.

        The split-phase surface the control plane drives every engine
        through (see :meth:`~repro.serving.cluster.ShardedEngine.submit_batch`).
        One process has nothing to overlap, so the tick runs here --
        errors raise here, exactly as from :meth:`step_batch` -- and
        collect hands the results back in submission order.  Returns the
        submitted tick's number.
        """
        self._ready.append(self.step_batch(frames))
        return self._tick

    def collect_batch(self) -> list[StreamStepResult]:
        """The results of the oldest submitted tick."""
        if not self._ready:
            raise ValidationError("collect_batch() with no tick in flight")
        return self._ready.popleft()

    def abort_window(self) -> int:
        """Drop every uncollected tick's results; returns how many.  The
        ticks themselves stay stepped -- a single engine has no replies
        to settle."""
        aborted = len(self._ready)
        self._ready.clear()
        return aborted

    def _finish_tick(self) -> None:
        # Sweep with the current tick, then advance: a stream seen at
        # tick t survives idle_ttl frameless ticks and is evicted at
        # the end of tick t + idle_ttl + 1.
        self.registry.evict_idle(self._tick)
        self._tick += 1

    def step_stream(
        self,
        stream_id: object,
        model_input,
        stateless_quality_values,
        new_series: bool = False,
        scope_factors: dict | None = None,
    ) -> StreamStepResult:
        """Convenience: one single-stream tick through the batched path."""
        return self.step_batch(
            [
                StreamFrame(
                    stream_id,
                    model_input,
                    stateless_quality_values,
                    new_series,
                    scope_factors,
                )
            ]
        )[0]

    # ------------------------------------------------------------------
    # Snapshot / restore (serving restarts, shard migration)
    # ------------------------------------------------------------------
    def snapshot(self) -> RegistrySnapshot:
        """Capture all per-stream state plus the tick counter."""
        return RegistrySnapshot.capture(self.registry, tick=self._tick)

    def snapshot_delta(self, since_tick: int):
        """Capture only streams touched since ``since_tick``.

        Returns a :class:`~repro.serving.state.DeltaSnapshot` carrying
        the dirty streams' full state plus the live membership/order, so
        :func:`~repro.serving.state.compose_snapshot` over a base at
        ``since_tick`` reproduces :meth:`snapshot` exactly.
        """
        from repro.serving.state import DeltaSnapshot

        return DeltaSnapshot.capture(
            self.registry, tick=self._tick, since_tick=since_tick
        )

    def restore(self, snapshot: RegistrySnapshot) -> None:
        """Replace the engine's streams and tick with a snapshot's.

        After restoring, ``step_batch`` continues bitwise-identically to
        an engine that never stopped: buffers, absolute step counters,
        monitor budgets/hysteresis, and the TTL clocks all resume exactly
        where the snapshot froze them.
        """
        snapshot.restore_into(self.registry)
        self._tick = snapshot.tick

    # ------------------------------------------------------------------
    def _step_columns(self, ids: list, X, Q, new_series: list, scopes: list) -> dict:
        """The columnar core over validated columns: prepare (fallible,
        nothing changes), commit (raise-free), evaluate."""
        if not ids:
            self._finish_tick()
            i, f = np.empty(0, np.int64), np.empty(0)
            return dict(
                fused=i, fused_u=f, isolated=i, isolated_u=f, timestep=i, scope_u=f
            )
        prepared = self._prepare(ids, X, Q, scopes)  # raises -> nothing committed
        self._commit(prepared, new_series)  # raise-free
        try:
            return self._evaluate(prepared, Q)
        finally:
            self._finish_tick()

    def _prepare(self, ids: list, X, Q, scopes: list):
        """Everything fallible before state changes: the DDM pass, the
        stateless-QIM pass, scope compliance and (atomic) state
        acquisition."""
        n = len(ids)
        predictions = np.asarray(self.ddm.predict(X)).ravel()
        if predictions.size != n:
            raise ValidationError(
                f"ddm.predict returned {predictions.size} labels for "
                f"{n} inputs"
            )
        if not np.issubdtype(predictions.dtype, np.integer):
            if not np.all(np.isfinite(predictions)):
                raise ValidationError("ddm.predict returned non-finite labels")
        labels = predictions.astype(np.int64)
        u_isolated = np.asarray(
            self.stateless_qim.estimate_uncertainty(Q), dtype=float
        ).ravel()
        if u_isolated.size != n:
            raise ValidationError(
                f"stateless_qim returned {u_isolated.size} estimates for "
                f"{n} frames"
            )
        if not np.all((u_isolated >= 0.0) & (u_isolated <= 1.0)):  # NaN-rejecting
            raise ValidationError("stateless uncertainties must lie in [0, 1]")

        # Scope compliance runs before any state changes too (factor
        # presence was already validated): a raising scope model rejects
        # the whole tick, exactly like the single-stream wrapper rejects
        # the step before mutating its buffer.
        if self.scope_model is not None:
            incompliance = self.scope_model.incompliance_probability
            u_scope = np.fromiter(map(incompliance, scopes), float, n)
        else:
            u_scope = np.zeros(n, dtype=float)

        # Acquire all stream states atomically (the monitor factory may
        # raise for a new stream): all input validation has now run, so a
        # rejected tick never leaves half-applied frames or phantom
        # registry entries.
        states = self.registry.get_or_create_many(ids, self._tick)
        return states, labels, u_isolated, u_scope

    def _commit(self, prepared, new_series: list) -> None:
        """Record every frame into its stream; raise-free by construction
        (all inputs were validated in ``_prepare``)."""
        states, labels, u_isolated, _ = prepared
        started = 0
        for state, fresh, label, u in zip(
            states, new_series, labels.tolist(), u_isolated.tolist()
        ):
            if fresh and state.step_count > 0:
                state.begin_series()
                started += 1
            state.buffer.append(label, u)
            state.step_count += 1
        self.registry.statistics.series_started += started

    def _evaluate(self, prepared, Q) -> dict:
        """The batched fusion/taQF/taQIM/monitor pass over committed
        frames, as result columns.  A failure here (broken fusion rule or
        taQIM) happens after the tick was recorded; errors say so."""
        states, labels, u_isolated, u_scope = prepared
        n = len(states)
        batch = RaggedBatch.from_buffers([s.buffer for s in states])
        fused, vote = fuse_segments(self.information_fusion, batch)
        features = self.layout.assemble_batch(Q, batch, fused, vote)
        u_quality = np.asarray(
            self.timeseries_qim.estimate_uncertainty(features), dtype=float
        ).ravel()
        if u_quality.size != n:
            raise ValidationError(
                f"timeseries_qim returned {u_quality.size} estimates for "
                f"{n} frames (tick already recorded)"
            )
        if not np.all((u_quality >= 0.0) & (u_quality <= 1.0)):  # NaN-rejecting
            raise ValidationError(
                "timeseries_qim produced uncertainties outside [0, 1] "
                "(tick already recorded)"
            )
        u_fused = combine_uncertainties(u_quality, u_scope)
        columns = {
            "fused": np.asarray(fused, dtype=np.int64),
            "fused_u": u_fused,
            "isolated": labels,
            "isolated_u": u_isolated,
            "timestep": np.fromiter((s.step_count - 1 for s in states), np.int64, n),
            "scope_u": u_scope,
        }

        # Monitors are judged in one vectorized pass (all-or-nothing, so a
        # failure above leaves no half-judged monitors); their verdicts
        # join the result as columns, zero where a stream is unmonitored.
        monitors = [s.monitor for s in states]
        mask = np.fromiter((m is not None for m in monitors), bool, n)
        if mask.any():
            at = np.flatnonzero(mask)
            accepted, threshold, hysteresis = judge_many(
                [monitors[i] for i in at.tolist()], u_fused[at]
            )
            columns["v_mask"] = mask
            judged = (accepted, u_fused[at], threshold, hysteresis)
            for name, values in zip(_VERDICT_COLUMNS, judged):
                columns[name] = np.zeros(n, values.dtype)
                columns[name][at] = values
        return columns


_VERDICT_COLUMNS = ("v_accepted", "v_u", "v_threshold", "v_hysteresis")
_DECISIONS = (MonitorDecision.FALLBACK, MonitorDecision.ACCEPT)


def results_from_columns(ids: Sequence, columns: dict) -> list[StreamStepResult]:
    """The one result assembler: :meth:`StreamingEngine.step_columns`
    output (or a worker's decoded step reply) to one result object per
    id, from one ``tolist`` per column and positional ``map`` calls."""
    outcomes = map(
        TimeseriesWrappedOutcome,
        columns["fused"].tolist(),
        columns["fused_u"].tolist(),
        columns["isolated"].tolist(),
        columns["isolated_u"].tolist(),
        columns["timestep"].tolist(),
        columns["scope_u"].tolist(),
    )
    if "v_mask" not in columns:
        return list(map(StreamStepResult, ids, outcomes))
    verdicts = map(
        MonitorVerdict,
        map(_DECISIONS.__getitem__, columns["v_accepted"].tolist()),
        columns["v_u"].tolist(),
        columns["v_threshold"].tolist(),
        columns["v_hysteresis"].tolist(),
    )
    mask = columns["v_mask"]
    if not mask.all():
        verdicts = [v if m else None for v, m in zip(verdicts, mask.tolist())]
    return list(map(StreamStepResult, ids, outcomes, verdicts))
