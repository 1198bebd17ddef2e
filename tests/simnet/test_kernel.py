"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.base import ChainError, drive
from repro.obs.context import TraceContext
from repro.obs.recorder import Recorder
from repro.simnet import CongestionProcess, EventQueue, LatencyModel, SimClock


def run_all(queue):
    """Fire events until none remain."""
    drive(queue, lambda: not len(queue))


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        assert clock.advance_to(5.0) == 5.0
        assert clock.now == 5.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock(start=10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(3.0, lambda: order.append("c"))
        queue.schedule(1.0, lambda: order.append("a"))
        queue.schedule(2.0, lambda: order.append("b"))
        run_all(queue)
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(1.0, lambda: order.append(1))
        queue.schedule(1.0, lambda: order.append(2))
        run_all(queue)
        assert order == [1, 2]

    def test_clock_advances_to_event_time(self):
        queue = EventQueue()
        seen = []
        queue.schedule(4.5, lambda: seen.append(queue.clock.now))
        run_all(queue)
        assert seen == [4.5]

    def test_cancelled_events_do_not_fire(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        run_all(queue)
        assert fired == []

    def test_run_until_stops_at_boundary(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append(1))
        queue.schedule(5.0, lambda: fired.append(5))
        count = queue.run_until(2.0)
        assert count == 1
        assert fired == [1]
        assert queue.clock.now == 2.0
        assert len(queue) == 1

    def test_events_can_schedule_events(self):
        queue = EventQueue()
        fired = []

        def chain():
            fired.append(queue.clock.now)
            if len(fired) < 3:
                queue.schedule(1.0, chain)

        queue.schedule(1.0, chain)
        run_all(queue)
        assert fired == [1.0, 2.0, 3.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        queue = EventQueue(SimClock(start=10.0))
        with pytest.raises(ValueError):
            queue.schedule_at(9.0, lambda: None)

    def test_runaway_loop_guard(self):
        queue = EventQueue()

        def forever():
            queue.schedule(0.001, forever)

        queue.schedule(0.001, forever)
        with pytest.raises(ChainError, match="within 100 steps"):
            drive(queue, lambda: not len(queue), max_steps=100)


class TestEventQueueCancellation:
    def test_cancel_one_of_simultaneous_events(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append("a"))
        doomed = queue.schedule(1.0, lambda: fired.append("b"))
        queue.schedule(1.0, lambda: fired.append("c"))
        doomed.cancel()
        run_all(queue)
        assert fired == ["a", "c"]

    def test_cancelled_events_do_not_count(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1

    def test_cancel_from_inside_an_event(self):
        """An event may cancel a later one the moment it fires."""
        queue = EventQueue()
        fired = []
        later = queue.schedule(2.0, lambda: fired.append("later"))
        queue.schedule(1.0, later.cancel)
        run_all(queue)
        assert fired == []

    def test_cancel_after_firing_is_harmless(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        run_all(queue)
        event.cancel()  # no error, no effect
        assert len(queue) == 0


class TestEventQueueIdleTime:
    def test_run_until_advances_clock_with_no_events(self):
        """Idle simulated time passes even when nothing is scheduled."""
        queue = EventQueue()
        assert queue.run_until(30.0) == 0
        assert queue.clock.now == 30.0

    def test_run_until_advances_past_last_event(self):
        queue = EventQueue()
        times = []
        queue.schedule(1.0, lambda: times.append(queue.clock.now))
        queue.run_until(10.0)
        assert times == [1.0]
        assert queue.clock.now == 10.0

    def test_run_until_skips_cancelled_head(self):
        queue = EventQueue()
        head = queue.schedule(1.0, lambda: None)
        head.cancel()
        assert queue.run_until(5.0) == 0
        assert queue.clock.now == 5.0


class TestEventQueueDeterminism:
    def test_same_timestamp_fires_in_schedule_order_across_runs(self):
        """Two identically-built queues replay the exact same order."""

        def run_once():
            queue = EventQueue()
            order = []
            for name in ("a", "b", "c", "d"):
                queue.schedule(1.0, lambda name=name: order.append(name))
            # Events scheduled from inside events keep the global order.
            queue.schedule(1.0, lambda: queue.schedule(0.0, lambda: order.append("nested")))
            run_all(queue)
            return order

        assert run_once() == run_once()
        assert run_once() == ["a", "b", "c", "d", "nested"]

    def test_zero_delay_event_fires_after_current_timestamp_batch(self):
        queue = EventQueue()
        order = []
        queue.schedule(1.0, lambda: (order.append("first"), queue.schedule(0.0, lambda: order.append("zero"))))
        queue.schedule(1.0, lambda: order.append("second"))
        run_all(queue)
        assert order == ["first", "second", "zero"]


class TestPendingLabels:
    def test_labels_in_firing_order(self):
        queue = EventQueue()
        queue.schedule(3.0, lambda: None, label="late")
        queue.schedule(1.0, lambda: None, label="early")
        queue.schedule(2.0, lambda: None)
        assert queue.pending_labels() == ["early", "<unlabelled>", "late"]

    def test_cancelled_events_omitted(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None, label="keep")
        doomed = queue.schedule(2.0, lambda: None, label="drop")
        doomed.cancel()
        assert queue.pending_labels() == ["keep"]


class TestSlotSettlement:
    """``schedule_slot`` fires exactly like the loop of ``schedule`` calls.

    The chain settles each block's receipts through one slot; this pins
    that a slot's pairs fire at the same times, in the same global
    order and under the same trace contexts as scheduling them one by
    one would, interleaved with unrelated events.
    """

    @staticmethod
    def run(use_slot, faulted, traced):
        queue = EventQueue(recorder=Recorder() if traced else None)
        recorder = queue.recorder
        if faulted:
            # Delays only the early part of the settlement wave, so the
            # hook reorders slot entries relative to each other.
            queue.fault_delay = lambda label, at: 0.75 if label == "confirm" and at < 3.0 else 0.0
        fired = []

        def note(tag):
            return lambda: fired.append((queue.clock.now, tag, recorder.current_context()))

        def settle(wave, delays):
            pairs = [(delay, note(f"{wave}-{index}")) for index, delay in enumerate(delays)]
            if use_slot:
                queue.schedule_slot(pairs, label="confirm")
            else:
                for delay, callback in pairs:
                    queue.schedule(delay, callback, label="confirm")

        def second_wave():
            with recorder.activate(TraceContext("t-second", 2)):
                settle("second", [0.0, 1.0, 0.25, 1.0])

        queue.schedule(1.0, note("early"))
        queue.schedule(2.5, note("tie-before"))  # same time, scheduled first
        with recorder.activate(TraceContext("t-first", 1)):
            settle("first", [2.5, 1.0, 4.0, 2.5, 0.5, 0.0])
        queue.schedule(2.5, note("tie-after"))  # same time, scheduled last
        queue.schedule(1.5, second_wave)
        queue.schedule(3.0, note("late"))
        pending = (len(queue), queue.pending_labels())
        run_all(queue)
        return pending, fired, len(queue)

    @pytest.mark.parametrize("faulted", [False, True], ids=["plain", "fault-delay"])
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_slot_matches_individual_schedules(self, faulted, traced):
        slot = self.run(True, faulted, traced)
        loop = self.run(False, faulted, traced)
        assert slot == loop
        _pending, fired, live = slot
        assert live == 0
        assert len(fired) == 14
        if traced:
            contexts = {tag.split("-")[0]: context for _time, tag, context in fired}
            assert contexts["first"] == TraceContext("t-first", 1)
            assert contexts["second"] == TraceContext("t-second", 2)

    def test_empty_slot_schedules_nothing(self):
        queue = EventQueue()
        assert queue.schedule_slot([], label="confirm") is None
        assert len(queue) == 0


class TestLatencyModel:
    def test_zero_sigma_is_deterministic(self):
        model = LatencyModel(base=2.0, sigma=0.0)
        assert all(model.sample().total == 2.0 for _ in range(10))

    def test_samples_are_non_negative(self):
        model = LatencyModel(base=1.0, sigma=0.8, seed=7)
        assert all(model.sample().total >= 0.0 for _ in range(500))

    def test_seeded_reproducibility(self):
        a = [LatencyModel(1.0, 0.5, seed=3).sample().total for _ in range(1)]
        b = [LatencyModel(1.0, 0.5, seed=3).sample().total for _ in range(1)]
        assert a == b

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(base=-1.0, sigma=0.1)
        with pytest.raises(ValueError):
            LatencyModel(base=1.0, sigma=-0.1)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=0.0, max_value=2.0))
    def test_property_sample_total_nonnegative(self, base, sigma):
        model = LatencyModel(base=base, sigma=sigma, seed=1)
        assert model.sample().total >= 0.0


class TestCongestionProcess:
    def test_level_stays_in_unit_interval(self):
        process = CongestionProcess(mean=0.5, volatility=0.4, seed=11)
        for _ in range(1000):
            level = process.step()
            assert 0.0 <= level <= 1.0

    def test_calm_network_rarely_delays(self):
        process = CongestionProcess(mean=0.3, volatility=0.01, seed=5)
        extras = [process.extra_inclusion_blocks() for _ in range(200)]
        assert sum(extras) == 0

    def test_congested_network_delays(self):
        process = CongestionProcess(mean=0.97, volatility=0.0, seed=5)
        extras = [process.extra_inclusion_blocks() for _ in range(200)]
        assert sum(extras) > 50

    def test_mean_reversion(self):
        process = CongestionProcess(mean=0.5, volatility=0.0, seed=0)
        process._level = 1.0
        for _ in range(100):
            process.step()
        assert abs(process.level - 0.5) < 0.01

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CongestionProcess(mean=1.5, volatility=0.1)
        with pytest.raises(ValueError):
            CongestionProcess(mean=0.5, volatility=-0.1)
        with pytest.raises(ValueError):
            CongestionProcess(mean=0.5, volatility=0.1, reversion=0.0)


class TestLiveCountInvariant:
    """`len(queue)` is a maintained counter; the heap scan is the oracle."""

    @staticmethod
    def scan(queue):
        """The O(n) definition __len__ used to implement directly."""
        return sum(1 for event in queue._heap if not event.cancelled)

    def test_counter_matches_scan_through_a_workout(self):
        queue = EventQueue()
        events = [queue.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert len(queue) == self.scan(queue) == 10
        events[3].cancel()
        events[7].cancel()
        assert len(queue) == self.scan(queue) == 8
        queue.run_until(4.0)  # fires 1,2,3 and skips the cancelled 4
        assert len(queue) == self.scan(queue) == 5
        for event in events:
            event.cancel()  # double-cancels and cancel-after-fire included
        assert len(queue) == self.scan(queue) == 0

    def test_double_cancel_does_not_underflow(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == self.scan(queue) == 0

    def test_cancel_after_fire_does_not_underflow(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        queue.step()
        event.cancel()
        assert len(queue) == self.scan(queue) == 1

    @given(st.lists(st.tuples(st.floats(0.0, 50.0), st.booleans()), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_counter_matches_scan_random(self, plan):
        queue = EventQueue()
        scheduled = []
        for delay, do_cancel in plan:
            scheduled.append((queue.schedule(delay, lambda: None), do_cancel))
        for event, do_cancel in scheduled:
            if do_cancel:
                event.cancel()
        assert len(queue) == self.scan(queue)
        queue.run_until(25.0)
        assert len(queue) == self.scan(queue)
        run_all(queue)
        assert len(queue) == self.scan(queue) == 0
