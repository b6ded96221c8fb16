"""The timeseries-aware uncertainty wrapper (taUW) -- the paper's contribution.

Architecture (paper Fig. 2): at every timestep the classical stateless
wrapper components run first -- the DDM produces a momentaneous outcome
:math:`o_i`, the stateless quality impact model a momentaneous uncertainty
:math:`u_i`.  Both are appended to the timeseries buffer.  The information-
fusion component then fuses all buffered outcomes into
:math:`o_i^{(if)}`, the timeseries-aware quality model derives the taQFs
from the buffer, and the timeseries-aware quality impact model (taQIM) maps
stateless QFs + taQFs to the dependable uncertainty of the *fused* outcome.

Two entry points are provided:

* :class:`TimeseriesAwareUncertaintyWrapper` -- the online, stateful runtime
  API (``step`` per frame, reset on series onset, optionally driven by the
  tracking substrate);
* :func:`trace_series` -- the vectorised offline path used for training,
  calibration, and the study's evaluation, producing a
  :class:`SeriesTrace` per series.  Both paths share the same factor
  computations, so offline tables and online behaviour agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.buffer import TimeseriesBuffer
from repro.core.combination import combine_uncertainties
from repro.core.quality_factors import QualityFactorLayout
from repro.core.quality_impact import QualityImpactModel
from repro.core.ragged import RaggedBatch
from repro.core.scope import ScopeComplianceModel
from repro.exceptions import NotCalibratedError, ValidationError
from repro.fusion.information import InformationFusion, MajorityVote
from repro.fusion.vectorized import fuse_segments

__all__ = [
    "TimeseriesWrappedOutcome",
    "TimeseriesAwareUncertaintyWrapper",
    "SeriesTrace",
    "trace_series",
    "stack_traces",
]

#: Cap on flattened prefix elements per trace chunk (~8 MB of float64);
#: keeps trace_series at O(n) memory for arbitrarily long series.
_PREFIX_CHUNK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class TimeseriesWrappedOutcome:
    """Result of one taUW timestep.

    Attributes
    ----------
    fused_outcome:
        The information-fused prediction :math:`o_i^{(if)}`.
    fused_uncertainty:
        The taQIM's dependable uncertainty for the fused outcome.
    isolated_outcome:
        The momentaneous DDM prediction :math:`o_i`.
    isolated_uncertainty:
        The stateless wrapper's momentaneous estimate :math:`u_i`.
    timestep:
        Zero-based absolute index within the current series.  Counts every
        processed frame since the series onset, so it keeps growing when a
        ``max_buffer_length`` sliding window caps the buffer.
    scope_incompliance:
        Scope component folded into ``fused_uncertainty`` (0 without a
        scope model).
    """

    fused_outcome: int
    fused_uncertainty: float
    isolated_outcome: int
    isolated_uncertainty: float
    timestep: int
    scope_incompliance: float = 0.0

    @property
    def fused_certainty(self) -> float:
        """Convenience: ``1 - fused_uncertainty``."""
        return 1.0 - self.fused_uncertainty


class TimeseriesAwareUncertaintyWrapper:
    """Online taUW: feed frames one at a time, read fused outcomes back.

    Parameters
    ----------
    ddm:
        Black-box model with ``predict(batch) -> labels``.
    stateless_qim:
        Calibrated quality impact model producing the momentaneous
        :math:`u_i` from the stateless quality factors.
    timeseries_qim:
        Calibrated taQIM over ``layout.feature_names``.
    layout:
        Column layout shared by training and inference (stateless names +
        selected taQFs).
    information_fusion:
        Fusion rule for the buffered outcomes (paper: majority vote).
    scope_model:
        Optional scope-compliance model evaluated per step.
    max_buffer_length:
        Optional sliding-window cap on the buffer.
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
        self.buffer = TimeseriesBuffer(max_length=max_buffer_length)
        self._step_count = 0

    def reset(self) -> None:
        """Clear the buffer (a new physical object is being observed)."""
        self.buffer.reset()
        self._step_count = 0

    @property
    def timestep(self) -> int:
        """Zero-based index of the *next* frame within the current series.

        Tracks the absolute number of frames processed since the series
        onset, independent of the sliding-window cap on the buffer.
        """
        return self._step_count

    def step(
        self,
        model_input,
        stateless_quality_values,
        new_series: bool = False,
        scope_factors: dict[str, float] | None = None,
    ) -> TimeseriesWrappedOutcome:
        """Process one frame and return the fused, uncertainty-tagged outcome.

        Parameters
        ----------
        model_input:
            One DDM input row.
        stateless_quality_values:
            The stateless quality-factor values of this frame, ordered as
            ``layout.stateless_names``.
        new_series:
            True when the tracking component signals a new physical object
            (clears the buffer before processing).
        scope_factors:
            Named scope-factor values when a scope model is configured.
        """
        model_input = np.atleast_2d(np.asarray(model_input, dtype=float))
        stateless = np.asarray(stateless_quality_values, dtype=float).ravel()
        if stateless.size != len(self.layout.stateless_names):
            raise ValidationError(
                f"expected {len(self.layout.stateless_names)} stateless quality "
                f"values, got {stateless.size}"
            )
        if not (np.isfinite(model_input).all() and np.isfinite(stateless).all()):
            # The DDM and the quality tree would still answer -- with a
            # confident uncertainty for garbage -- so reject up front.
            raise ValidationError(
                "model_input and stateless quality values must be finite"
            )

        isolated_outcome = int(np.asarray(self.ddm.predict(model_input))[0])
        isolated_u = float(
            self.stateless_qim.estimate_uncertainty(stateless[None, :])[0]
        )
        if not 0.0 <= isolated_u <= 1.0:  # NaN-rejecting, before any mutation
            raise ValidationError(
                f"stateless uncertainty must lie in [0, 1], got {isolated_u!r}"
            )
        u_scope = 0.0
        if self.scope_model is not None:
            if scope_factors is None:
                raise ValidationError(
                    "this wrapper has a scope model; scope_factors are required"
                )
            u_scope = self.scope_model.incompliance_probability(scope_factors)

        # Reset only after everything fallible ran: a rejected frame must
        # not wipe the current series (mirrors the engine, which validates
        # a whole tick before touching any stream state).
        if new_series:
            self.reset()
        self.buffer.append(isolated_outcome, isolated_u)
        self._step_count += 1

        # Single-segment batch through the same segmented kernels the
        # streaming engine uses, so one stream served alone and the same
        # stream inside a large batch agree bitwise.
        segment = RaggedBatch.from_buffers([self.buffer])
        fused, vote = fuse_segments(self.information_fusion, segment)
        fused_outcome = int(fused[0])
        features = self.layout.assemble_batch(stateless[None, :], segment, fused, vote)
        u_quality = float(
            self.timeseries_qim.estimate_uncertainty(features)[0]
        )

        return TimeseriesWrappedOutcome(
            fused_outcome=fused_outcome,
            fused_uncertainty=combine_uncertainties(u_quality, u_scope),
            isolated_outcome=isolated_outcome,
            isolated_uncertainty=isolated_u,
            timestep=self._step_count - 1,
            scope_incompliance=u_scope,
        )


# ---------------------------------------------------------------------------
# Offline trace path (training / calibration / evaluation)
# ---------------------------------------------------------------------------

@dataclass
class SeriesTrace:
    """Everything the study needs to know about one processed series.

    Attributes
    ----------
    truth:
        Ground-truth class of the series' physical sign.
    outcomes:
        Momentaneous DDM outcomes per step.
    uncertainties:
        Momentaneous stateless-wrapper estimates :math:`u_i` per step.
    fused_outcomes:
        Information-fused outcome per step.
    features:
        taQIM feature rows per step, shape ``(n_steps, layout.n_features)``.
    """

    truth: int
    outcomes: np.ndarray
    uncertainties: np.ndarray
    fused_outcomes: np.ndarray
    features: np.ndarray

    @property
    def n_steps(self) -> int:
        return int(self.outcomes.size)

    def isolated_wrong(self) -> np.ndarray:
        """Binary: momentaneous outcome differs from the truth."""
        return (self.outcomes != self.truth).astype(np.int64)

    def fused_wrong(self) -> np.ndarray:
        """Binary: fused outcome differs from the truth."""
        return (self.fused_outcomes != self.truth).astype(np.int64)


def trace_series(
    outcomes,
    uncertainties,
    stateless_features,
    truth: int,
    layout: QualityFactorLayout,
    information_fusion: InformationFusion | None = None,
) -> SeriesTrace:
    """Replay one series offline, producing the taQIM feature table rows.

    This mirrors :meth:`TimeseriesAwareUncertaintyWrapper.step` exactly but
    takes pre-computed momentaneous outcomes and uncertainties (so the DDM
    and stateless QIM run vectorised over whole datasets beforehand).

    Parameters
    ----------
    outcomes:
        Momentaneous DDM outcomes of the series, oldest first.
    uncertainties:
        Momentaneous stateless estimates :math:`u_i`, aligned with
        ``outcomes``.
    stateless_features:
        Stateless quality-factor rows, shape ``(n_steps, n_stateless)``.
    truth:
        Ground-truth class of the series.
    layout:
        Feature layout (defines which taQFs are appended).
    information_fusion:
        Fusion rule; paper's majority vote when omitted.
    """
    outcomes = np.asarray(outcomes, dtype=np.int64).ravel()
    uncertainties = np.asarray(uncertainties, dtype=float).ravel()
    stateless_features = np.asarray(stateless_features, dtype=float)
    if outcomes.size == 0:
        raise ValidationError("cannot trace an empty series")
    if uncertainties.shape != outcomes.shape:
        raise ValidationError("uncertainties must align with outcomes")
    if not np.all((uncertainties >= 0.0) & (uncertainties <= 1.0)):  # NaN-rejecting
        raise ValidationError("uncertainties must lie in [0, 1]")
    if stateless_features.shape != (outcomes.size, len(layout.stateless_names)):
        raise ValidationError(
            "stateless_features must have shape "
            f"({outcomes.size}, {len(layout.stateless_names)}), "
            f"got {stateless_features.shape}"
        )

    # Every step of the replay evaluates fusion and taQFs on one prefix of
    # the series, so the prefixes go through the segmented kernels as ragged
    # batches -- the array-native fast path the online wrapper and the
    # streaming engine share.  Flattening all prefixes at once costs
    # O(n^2) memory, so long series are processed in row chunks (bitwise
    # equivalent: the kernels reduce each segment independently).
    fusion = information_fusion or MajorityVote()
    n = outcomes.size
    fused = np.empty(n, dtype=np.int64)
    features = np.empty((n, layout.n_features), dtype=float)
    chunk_rows = max(1, _PREFIX_CHUNK_ELEMENTS // n)
    for start in range(0, n, chunk_rows):
        stop = min(start + chunk_rows, n)
        batch = RaggedBatch.prefixes(outcomes, uncertainties, start, stop)
        chunk_fused, vote = fuse_segments(fusion, batch)
        fused[start:stop] = chunk_fused
        features[start:stop] = layout.assemble_batch(
            stateless_features[start:stop], batch, chunk_fused, vote
        )

    return SeriesTrace(
        truth=int(truth),
        outcomes=outcomes,
        uncertainties=uncertainties,
        fused_outcomes=fused,
        features=features,
    )


def stack_traces(traces: list[SeriesTrace]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate trace features and fused-failure labels for taQIM fitting.

    Returns
    -------
    tuple
        ``(X, fused_wrong)`` ready for
        :meth:`repro.core.quality_impact.QualityImpactModel.fit` /
        ``calibrate``.
    """
    if not traces:
        raise ValidationError("need at least one trace")
    X = np.vstack([t.features for t in traces])
    y = np.concatenate([t.fused_wrong() for t in traces])
    return X, y
