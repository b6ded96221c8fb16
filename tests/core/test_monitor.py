"""Tests for the simplex-style uncertainty monitor."""

import pytest

from repro.core.monitor import (
    MonitorDecision,
    MonitorVerdict,
    UncertaintyMonitor,
)
from repro.exceptions import ValidationError


class TestBasicThreshold:
    def test_accepts_below_threshold(self):
        monitor = UncertaintyMonitor(threshold=0.05)
        verdict = monitor.judge(0.01)
        assert verdict.decision is MonitorDecision.ACCEPT
        assert verdict.accepted

    def test_accepts_at_threshold(self):
        monitor = UncertaintyMonitor(threshold=0.05)
        assert monitor.judge(0.05).accepted

    def test_falls_back_above_threshold(self):
        monitor = UncertaintyMonitor(threshold=0.05)
        verdict = monitor.judge(0.2)
        assert verdict.decision is MonitorDecision.FALLBACK
        assert not verdict.accepted

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValidationError):
            UncertaintyMonitor(threshold=0.0)
        with pytest.raises(ValidationError):
            UncertaintyMonitor(threshold=1.0)

    def test_invalid_uncertainty_rejected(self):
        monitor = UncertaintyMonitor(threshold=0.1)
        with pytest.raises(ValidationError):
            monitor.judge(1.2)


class TestHysteresis:
    def test_reentry_threshold_applies_after_fallback(self):
        monitor = UncertaintyMonitor(threshold=0.1, reentry_threshold=0.02)
        assert monitor.judge(0.08).accepted  # fine under base threshold
        assert not monitor.judge(0.5).accepted  # fallback
        # 0.08 would pass the base threshold but not the re-entry one.
        verdict = monitor.judge(0.08)
        assert not verdict.accepted
        assert verdict.in_hysteresis
        assert verdict.threshold == 0.02
        # Dropping below the re-entry threshold re-arms acceptance.
        assert monitor.judge(0.01).accepted
        assert monitor.judge(0.08).accepted  # base threshold again

    def test_no_hysteresis_by_default(self):
        monitor = UncertaintyMonitor(threshold=0.1)
        monitor.judge(0.5)
        assert monitor.judge(0.08).accepted

    def test_invalid_reentry_rejected(self):
        with pytest.raises(ValidationError):
            UncertaintyMonitor(threshold=0.05, reentry_threshold=0.1)
        with pytest.raises(ValidationError):
            UncertaintyMonitor(threshold=0.05, reentry_threshold=0.0)


class TestRiskBudget:
    def test_budget_exhaustion_forces_fallback(self):
        monitor = UncertaintyMonitor(threshold=0.5, risk_budget=0.1)
        assert monitor.judge(0.06).accepted
        # 0.06 + 0.06 would exceed the 0.1 budget.
        assert not monitor.judge(0.06).accepted
        # A cheaper acceptance still fits.
        assert monitor.judge(0.03).accepted

    def test_exact_budget_boundary_accepts(self):
        # Spending the budget to exactly 0 is allowed: exhaustion means
        # strictly exceeding it, not reaching it.
        # Dyadic values so the float sums are exact: 0.0625 + 0.0625 == 0.125.
        monitor = UncertaintyMonitor(threshold=0.5, risk_budget=0.125)
        assert monitor.judge(0.0625).accepted
        assert monitor.judge(0.0625).accepted  # spends the budget to exactly 0
        assert monitor.statistics.accepted_risk == 0.125
        # Any further risk, however small, exceeds the budget.
        assert not monitor.judge(0.0625).accepted

    def test_zero_uncertainty_accepted_on_exhausted_budget(self):
        # A perfectly certain outcome costs no budget and stays acceptable.
        monitor = UncertaintyMonitor(threshold=0.5, risk_budget=0.05)
        assert monitor.judge(0.05).accepted
        assert not monitor.judge(0.05).accepted
        assert monitor.judge(0.0).accepted

    def test_hysteresis_reentry_after_budget_fallback(self):
        # A budget-driven fallback arms hysteresis like a threshold-driven
        # one: acceptance afterwards needs the stricter re-entry level
        # (and remaining budget).
        monitor = UncertaintyMonitor(
            threshold=0.5, reentry_threshold=0.01, risk_budget=0.1
        )
        assert monitor.judge(0.09).accepted
        verdict = monitor.judge(0.09)  # budget would reach 0.18 > 0.1
        assert not verdict.accepted
        assert not verdict.in_hysteresis  # hysteresis armed by this fallback
        # 0.02 passes the base threshold and fits the remaining budget but
        # fails the re-entry threshold.
        blocked = monitor.judge(0.02)
        assert not blocked.accepted
        assert blocked.in_hysteresis
        assert blocked.threshold == 0.01
        # Dropping to the re-entry level (and within budget) re-arms.
        assert monitor.judge(0.005).accepted

    def test_reset_restores_budget(self):
        monitor = UncertaintyMonitor(threshold=0.5, risk_budget=0.1)
        assert monitor.judge(0.08).accepted
        assert not monitor.judge(0.08).accepted  # budget nearly spent
        monitor.reset()
        assert monitor.statistics.accepted_risk == 0.0
        assert monitor.judge(0.08).accepted  # full budget available again
        assert monitor.risk_budget == 0.1  # the configured cap is untouched

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValidationError):
            UncertaintyMonitor(threshold=0.1, risk_budget=0.0)


class TestStatistics:
    def test_counters(self):
        monitor = UncertaintyMonitor(threshold=0.1)
        monitor.judge(0.05)
        monitor.judge(0.5)
        monitor.judge(0.02)
        stats = monitor.statistics
        assert stats.steps == 3
        assert stats.accepted == 2
        assert stats.fallbacks == 1
        assert stats.acceptance_rate == pytest.approx(2 / 3)
        assert stats.accepted_risk == pytest.approx(0.07)
        assert stats.expected_accepted_failures == pytest.approx(0.07)

    def test_empty_statistics(self):
        monitor = UncertaintyMonitor(threshold=0.1)
        assert monitor.statistics.acceptance_rate == 0.0

    def test_reset(self):
        monitor = UncertaintyMonitor(threshold=0.1, reentry_threshold=0.01)
        monitor.judge(0.5)
        monitor.reset()
        assert monitor.statistics.steps == 0
        # Hysteresis state cleared: base threshold applies again.
        assert monitor.judge(0.08).accepted


class TestJudgeMany:
    """judge_many must be indistinguishable from sequential judge calls."""

    @staticmethod
    def _mixed_monitors(n):
        monitors = []
        for i in range(n):
            monitors.append(
                UncertaintyMonitor(
                    threshold=0.2 + 0.05 * (i % 7),
                    reentry_threshold=0.1 + 0.02 * (i % 5),
                    risk_budget=None if i % 3 == 0 else 1.5 + 0.5 * (i % 4),
                )
            )
        return monitors

    def test_matches_sequential_judge_over_random_sequences(self):
        import numpy as np

        from repro.core.monitor import judge_many

        rng = np.random.default_rng(71)
        n = 40
        batched = self._mixed_monitors(n)
        sequential = self._mixed_monitors(n)
        for _ in range(25):  # enough rounds to exercise budgets + hysteresis
            u = rng.uniform(0.0, 1.0, size=n)
            expected = [m.judge(float(x)) for m, x in zip(sequential, u)]
            accepted, threshold, hysteresis = judge_many(batched, u)
            got = [
                MonitorVerdict(
                    MonitorDecision.ACCEPT if a else MonitorDecision.FALLBACK,
                    u_i,
                    t,
                    h,
                )
                for a, u_i, t, h in zip(
                    accepted.tolist(),
                    u.tolist(),
                    threshold.tolist(),
                    hysteresis.tolist(),
                )
            ]
            assert got == expected  # frozen dataclasses: exact equality
        for a, b in zip(batched, sequential):
            assert a.state_dict() == b.state_dict()

    def test_empty_batch(self):
        from repro.core.monitor import judge_many

        accepted, threshold, hysteresis = judge_many([], [])
        assert accepted.shape == threshold.shape == hysteresis.shape == (0,)

    def test_shared_monitor_object_rejected(self):
        from repro.core.monitor import judge_many

        shared = UncertaintyMonitor(threshold=0.5, risk_budget=0.5)
        # Vectorized decisions all read the pre-call budget, so a shared
        # monitor would hand out ACCEPTs its budget no longer covers --
        # refuse loudly instead.
        with pytest.raises(ValidationError, match="distinct"):
            judge_many([shared, shared], [0.4, 0.4])
        assert shared.statistics.steps == 0

    def test_validation_is_all_or_nothing(self):
        import numpy as np

        from repro.core.monitor import judge_many

        monitors = self._mixed_monitors(3)
        with pytest.raises(ValidationError):
            judge_many(monitors, [0.1, 1.5, 0.2])  # one bad value
        with pytest.raises(ValidationError):
            judge_many(monitors, [0.1, np.nan, 0.2])
        with pytest.raises(ValidationError):
            judge_many(monitors, [0.1, 0.2])  # length mismatch
        for monitor in monitors:  # nothing was judged
            assert monitor.statistics.steps == 0
