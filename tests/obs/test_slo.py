"""SLO engine unit tests: rule evaluators, state machine, default rules."""

import pytest

from repro.obs.recorder import Recorder
from repro.obs.slo import (
    STATE_CODES,
    Alert,
    SloEngine,
    SloRule,
    default_rules,
)
from repro.simnet import SimClock


def make_recorder():
    clock = SimClock()
    return Recorder(clock=clock), clock


def rule(**overrides):
    base = dict(
        name="r", description="test rule", kind="gauge_above",
        source="g", threshold=5.0,
    )
    base.update(overrides)
    return SloRule(**base)


class TestAlertStateMachine:
    def test_zero_for_duration_fires_on_the_breaching_tick(self):
        alert = Alert(rule())
        edges = alert.update(True, 10.0, 7.0)
        assert [(e.previous, e.state) for e in edges] == [
            ("inactive", "pending"), ("pending", "firing"),
        ]
        assert alert.state == "firing"
        assert alert.times_fired == 1

    def test_for_duration_holds_the_alert_pending(self):
        alert = Alert(rule(for_duration=30.0))
        alert.update(True, 0.0, 7.0)
        assert alert.state == "pending"
        alert.update(True, 10.0, 7.0)
        assert alert.state == "pending"  # 10s < 30s
        alert.update(True, 31.0, 7.0)
        assert alert.state == "firing"
        assert alert.times_fired == 1

    def test_blip_returns_pending_to_inactive_without_firing(self):
        alert = Alert(rule(for_duration=30.0))
        alert.update(True, 0.0, 7.0)
        edges = alert.update(False, 5.0, 1.0)
        assert [(e.previous, e.state) for e in edges] == [("pending", "inactive")]
        assert alert.times_fired == 0

    def test_firing_resolves_and_resolved_is_sticky(self):
        alert = Alert(rule())
        alert.update(True, 0.0, 7.0)
        alert.update(False, 10.0, 1.0)
        assert alert.state == "resolved"
        alert.update(False, 20.0, 1.0)
        assert alert.state == "resolved"  # no further edges while clear

    def test_resolved_can_breach_and_fire_again(self):
        alert = Alert(rule())
        alert.update(True, 0.0, 7.0)
        alert.update(False, 10.0, 1.0)
        alert.update(True, 20.0, 9.0)
        assert alert.state == "firing"
        assert alert.times_fired == 2

    def test_transitions_carry_time_and_value(self):
        alert = Alert(rule())
        (edge, _) = alert.update(True, 3.5, 8.25)
        assert edge.alert == "r"
        assert edge.sim_time == 3.5
        assert edge.value == 8.25

    def test_state_codes_cover_every_state(self):
        assert set(STATE_CODES) == {"inactive", "pending", "firing", "resolved"}


class TestCounterBurn:
    def make_engine(self, **overrides):
        recorder, clock = make_recorder()
        r = rule(kind="counter_burn", source="errors_total", threshold=3.0, **overrides)
        return SloEngine(recorder, [r]), recorder, clock

    def test_growth_within_both_windows_breaches(self):
        engine, recorder, clock = self.make_engine()
        clock.advance_to(clock.now + 10.0)
        for _ in range(3):
            recorder.counter("errors_total")
        edges = engine.evaluate(clock.now, {})
        assert [e.state for e in edges] == ["pending", "firing"]

    def test_growth_below_threshold_stays_quiet(self):
        engine, recorder, clock = self.make_engine()
        clock.advance_to(clock.now + 10.0)
        recorder.counter("errors_total", 2)
        assert engine.evaluate(clock.now, {}) == []

    def test_stale_breach_does_not_refire_after_traffic_stops(self):
        engine, recorder, clock = self.make_engine(
            short_window=60.0, long_window=300.0
        )
        recorder.counter("errors_total", 5)
        clock.advance_to(clock.now + 10.0)
        engine.evaluate(clock.now, {})
        assert engine.alerts["r"].state == "firing"
        # No further growth: once the short window slides past the burst
        # the alert resolves even though the long window still covers it.
        clock.advance_to(clock.now + 120.0)
        engine.evaluate(clock.now, {})
        assert engine.alerts["r"].state == "resolved"

    def test_counter_seeded_at_construction_ignores_prior_total(self):
        recorder, clock = make_recorder()
        recorder.counter("errors_total", 50)  # before the engine exists
        engine = SloEngine(
            recorder, [rule(kind="counter_burn", source="errors_total", threshold=3.0)]
        )
        clock.advance_to(clock.now + 10.0)
        assert engine.evaluate(clock.now, {}) == []

    def test_counter_summed_across_label_sets(self):
        engine, recorder, clock = self.make_engine()
        clock.advance_to(clock.now + 5.0)
        recorder.counter("errors_total", 2, chain="goerli")
        recorder.counter("errors_total", 1, chain="algorand-testnet")
        engine.evaluate(clock.now, {})
        assert engine.alerts["r"].state == "firing"


class TestGaugeRules:
    def test_gauge_above(self):
        recorder, clock = make_recorder()
        engine = SloEngine(recorder, [rule(kind="gauge_above", threshold=16.0)])
        assert engine.evaluate(0.0, {"g": 15.9}) == []
        engine.evaluate(1.0, {"g": 16.0})
        assert engine.alerts["r"].state == "firing"

    def test_gauge_below(self):
        recorder, clock = make_recorder()
        engine = SloEngine(recorder, [rule(kind="gauge_below", threshold=2.0)])
        assert engine.evaluate(0.0, {"g": 2.0}) == []
        engine.evaluate(1.0, {"g": 1.0})
        assert engine.alerts["r"].state == "firing"

    def test_missing_gauge_is_not_a_breach(self):
        recorder, clock = make_recorder()
        engine = SloEngine(recorder, [rule(kind="gauge_above", threshold=1.0)])
        assert engine.evaluate(0.0, {}) == []
        assert engine.alerts["r"].state == "inactive"


class TestJumpRatio:
    def make_engine(self):
        recorder, clock = make_recorder()
        r = rule(kind="jump_ratio", source="base_fee", threshold=2.0, short_window=60.0)
        return SloEngine(recorder, [r]), clock

    def test_doubling_vs_recent_minimum_breaches(self):
        engine, clock = self.make_engine()
        engine.evaluate(0.0, {"base_fee": 100.0})
        engine.evaluate(10.0, {"base_fee": 120.0})
        engine.evaluate(20.0, {"base_fee": 250.0})
        assert engine.alerts["r"].state == "firing"
        assert engine.alerts["r"].last_value == 2.5

    def test_slow_drift_outruns_the_window(self):
        engine, clock = self.make_engine()
        # +20% every 70s: each sample evicts the last, ratio stays ~1.2.
        value = 100.0
        for step in range(8):
            engine.evaluate(step * 70.0, {"base_fee": value})
            value *= 1.2
        assert engine.alerts["r"].state == "inactive"

    def test_zero_floor_never_divides(self):
        engine, clock = self.make_engine()
        engine.evaluate(0.0, {"base_fee": 0.0})
        edges = engine.evaluate(1.0, {"base_fee": 500.0})
        assert edges == []  # ratio pinned to 1.0 on a zero floor


class TestLatencyP99:
    def make_engine(self, min_samples=5):
        recorder, clock = make_recorder()
        r = rule(
            kind="latency_p99", source="confirm", threshold=30.0,
            short_window=120.0, min_samples=min_samples,
        )
        return SloEngine(recorder, [r])

    def test_below_min_samples_never_breaches(self):
        engine = self.make_engine(min_samples=5)
        for index in range(4):
            engine.observe("confirm", float(index), 100.0)
        assert engine.evaluate(10.0, {}) == []

    def test_p99_over_recent_samples_breaches(self):
        engine = self.make_engine(min_samples=5)
        for index in range(5):
            engine.observe("confirm", float(index), 35.0)
        engine.evaluate(10.0, {})
        assert engine.alerts["r"].state == "firing"

    def test_old_samples_slide_out_of_the_window(self):
        engine = self.make_engine(min_samples=5)
        for index in range(5):
            engine.observe("confirm", float(index), 35.0)
        # 200s later the slow burst is gone; fresh fast samples rule.
        for index in range(5):
            engine.observe("confirm", 200.0 + index, 1.0)
        engine.evaluate(210.0, {})
        assert engine.alerts["r"].state == "inactive"


class TestFinishRules:
    def test_finish_ratio_breaches_below_objective(self):
        recorder, clock = make_recorder()
        r = rule(kind="finish_ratio", source="journeys", threshold=1.0)
        engine = SloEngine(recorder, [r])
        engine.finish(100.0, tracked=10, resolved=9)
        assert engine.alerts["r"].state == "firing"
        assert engine.alerts["r"].last_value == 0.9

    def test_finish_ratio_met_stays_inactive(self):
        recorder, clock = make_recorder()
        r = rule(kind="finish_ratio", source="journeys", threshold=1.0)
        engine = SloEngine(recorder, [r])
        engine.finish(100.0, tracked=10, resolved=10)
        assert engine.alerts["r"].state == "inactive"

    def test_finish_budget_fee_per_proof(self):
        recorder, clock = make_recorder()
        r = rule(kind="finish_budget", source="fee_per_proof", threshold=500.0)
        engine = SloEngine(recorder, [r])
        engine.finish(100.0, fee_per_proof=501.0)
        assert engine.alerts["r"].state == "firing"

    def test_finish_rules_skip_online_evaluation(self):
        recorder, clock = make_recorder()
        r = rule(kind="finish_ratio", source="journeys", threshold=1.0)
        engine = SloEngine(recorder, [r])
        assert engine.evaluate(1.0, {}) == []

    def test_unknown_kind_raises(self):
        recorder, clock = make_recorder()
        engine = SloEngine(recorder, [rule(kind="nonsense")])
        with pytest.raises(ValueError, match="nonsense"):
            engine.evaluate(0.0, {})


class TestReporting:
    def test_firing_and_fired_views(self):
        recorder, clock = make_recorder()
        engine = SloEngine(recorder, [rule(kind="gauge_above", threshold=1.0)])
        engine.evaluate(0.0, {"g": 2.0})
        assert [a.rule.name for a in engine.firing()] == ["r"]
        engine.evaluate(1.0, {"g": 0.0})
        assert engine.firing() == []
        assert [a.rule.name for a in engine.fired()] == ["r"]

    def test_summary_is_serializable_state(self):
        recorder, clock = make_recorder()
        engine = SloEngine(recorder, [rule(kind="gauge_above", threshold=1.0)])
        engine.evaluate(2.0, {"g": 2.0})
        summary = engine.summary()
        assert summary["r"]["state"] == "firing"
        assert summary["r"]["times_fired"] == 1
        assert summary["r"]["last_change"] == 2.0
        assert summary["r"]["description"] == "test rule"


class TestDefaultRules:
    class Profile:
        name = "goerli"
        family = "evm"
        block_time = 12.0
        confirmation_depth = 2

    class AlgoProfile:
        name = "algorand-testnet"
        family = "avm"
        block_time = 4.4
        confirmation_depth = 1

    def test_every_fault_class_has_a_detector(self):
        rules = default_rules(self.Profile())
        detectors = {r.fault_kind for r in rules if r.fault_kind}
        assert detectors == {
            "tx_rejection", "radio_flap", "block_stall", "dht_churn", "fee_spike",
        }

    def test_fee_spike_rule_is_evm_only(self):
        evm = {r.name for r in default_rules(self.Profile())}
        avm = {r.name for r in default_rules(self.AlgoProfile())}
        assert "fee-spike" in evm
        assert "fee-spike" not in avm

    def test_block_stall_threshold_tracks_block_time(self):
        (stall,) = [r for r in default_rules(self.AlgoProfile()) if r.name == "block-stall"]
        assert stall.threshold == 4.4 + 4.0

    def test_latency_budget_defaults_to_depth_times_block_time(self):
        (p99,) = [r for r in default_rules(self.Profile()) if r.name == "confirm-latency-p99"]
        assert p99.threshold == 2 * 12.0 + 30.0
        (custom,) = [
            r for r in default_rules(self.Profile(), latency_budget=9.0)
            if r.name == "confirm-latency-p99"
        ]
        assert custom.threshold == 9.0

    def test_fee_budget_adds_finish_budget_rule(self):
        names = {r.name for r in default_rules(self.Profile())}
        assert "fee-per-proof" not in names
        budgeted = {r.name for r in default_rules(self.Profile(), fee_budget=100.0)}
        assert "fee-per-proof" in budgeted
