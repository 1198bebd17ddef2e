"""Tests for the seeded fault plan and the retry policy."""

import pytest

from repro.faults import FaultPlan, FaultWindow, RetryPolicy


class TestFaultPlanGeneration:
    def test_same_seed_same_plan(self):
        assert FaultPlan.generate(42) == FaultPlan.generate(42)

    def test_different_seeds_differ(self):
        assert FaultPlan.generate(1) != FaultPlan.generate(2)

    def test_no_consecutive_rejection_ordinals(self):
        """Dropping ordinal n when n-1 rejected guarantees every
        transient fault recovers on its immediate synchronous retry."""
        for seed in range(20):
            rejects = FaultPlan.generate(seed).reject_submissions
            assert not any(ordinal - 1 in rejects for ordinal in rejects)

    def test_windows_sorted_and_bounded(self):
        plan = FaultPlan.generate(7, horizon=900.0)
        starts = [w.start for w in plan.windows]
        assert starts == sorted(starts)
        for window in plan.windows:
            assert window.kind in ("fee_spike", "block_stall", "receipt_delay")
            assert 0.0 <= window.start < window.end
            assert window.magnitude > 0

    def test_generated_counts_match_arguments(self):
        plan = FaultPlan.generate(3, spikes=1, stalls=2, delays=3, churn_rounds=4, flaps=2)
        kinds = [w.kind for w in plan.windows]
        assert kinds.count("fee_spike") == 1
        assert kinds.count("block_stall") == 2
        assert kinds.count("receipt_delay") == 3
        assert plan.churn_rounds == 4
        assert len(plan.radio_flaps) == 2

    def test_radio_flaps_disjoint_and_ordered(self):
        for seed in range(10):
            flaps = FaultPlan.generate(seed, flaps=3).radio_flaps
            for (start, end), (next_start, _) in zip(flaps, flaps[1:]):
                assert start < end <= next_start

    def test_empty_plan_injects_nothing(self):
        plan = FaultPlan.empty(seed=9)
        assert plan.reject_submissions == frozenset()
        assert plan.windows == ()
        assert plan.churn_rounds == 0
        assert plan.radio_flaps == ()


class TestFaultWindow:
    def test_covers_is_half_open(self):
        window = FaultWindow("fee_spike", 10.0, 20.0, 3.0)
        assert not window.covers(9.999)
        assert window.covers(10.0)
        assert window.covers(19.999)
        assert not window.covers(20.0)

    def test_window_at_picks_the_matching_kind(self):
        plan = FaultPlan(
            seed=0,
            windows=(
                FaultWindow("fee_spike", 0.0, 10.0, 3.0),
                FaultWindow("block_stall", 5.0, 15.0, 8.0),
            ),
        )
        assert plan.window_at("fee_spike", 5.0).kind == "fee_spike"
        assert plan.window_at("block_stall", 5.0).kind == "block_stall"
        assert plan.window_at("receipt_delay", 5.0) is None
        assert plan.window_at("fee_spike", 12.0) is None


class TestRetryPolicy:
    def test_delay_backs_off_exponentially(self):
        policy = RetryPolicy(timeout=10.0, backoff=2.0, max_resubmits=3)
        assert policy.delay(0) == 10.0
        assert policy.delay(1) == 20.0
        assert policy.delay(2) == 40.0
        assert policy.delay(3) == 80.0
        # Beyond the resubmission budget the delay plateaus.
        assert policy.delay(7) == 80.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"backoff": 0.5},
            {"max_resubmits": -1},
            {"fee_bump": 1.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)
