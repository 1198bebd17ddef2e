"""Unit tests for the sim-time telemetry recorder."""

import pytest

from repro.obs.recorder import (
    DEFAULT_BUCKETS,
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    track_for,
)
from repro.simnet import SimClock


class TestCounters:
    def test_accumulates(self):
        recorder = Recorder()
        recorder.counter("requests_total")
        recorder.counter("requests_total", value=2.0)
        assert recorder.counter_value("requests_total") == 3.0

    def test_labels_distinguish_series(self):
        recorder = Recorder()
        recorder.counter("tx_total", chain="goerli")
        recorder.counter("tx_total", chain="mumbai")
        recorder.counter("tx_total", chain="goerli")
        assert recorder.counter_value("tx_total", chain="goerli") == 2.0
        assert recorder.counter_value("tx_total", chain="mumbai") == 1.0

    def test_label_order_is_irrelevant(self):
        recorder = Recorder()
        recorder.counter("m", a="1", b="2")
        assert recorder.counter_value("m", b="2", a="1") == 1.0


class TestGauges:
    def test_series_samples_carry_sim_time(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        recorder.gauge("depth", 3)
        clock.advance_to(clock.now + 10.0)
        recorder.gauge("depth", 5)
        assert recorder.gauge_series("depth") == [(0.0, 3), (10.0, 5)]

    def test_snapshot_keeps_last_value(self):
        recorder = Recorder()
        recorder.gauge("depth", 3, chain="goerli")
        recorder.gauge("depth", 1, chain="goerli")
        assert recorder.snapshot()["gauges"]['depth{chain="goerli"}'] == 1


class TestGaugeDownsampling:
    """Bounded gauge series: stride doubling past MAX_GAUGE_SAMPLES."""

    def test_series_is_halved_at_the_cap_and_drops_counted(self, monkeypatch):
        monkeypatch.setattr("repro.obs.recorder.MAX_GAUGE_SAMPLES", 8)
        clock = SimClock()
        recorder = Recorder(clock=clock)
        for value in range(8):
            recorder.gauge("depth", value)
            clock.advance_to(clock.now + 1.0)
        series = recorder.gauge_series("depth")
        # The 8th append hits the cap: every other sample is shed.
        assert series == [(0.0, 0), (2.0, 2), (4.0, 4), (6.0, 6)]
        assert recorder.counter_value("gauge_samples_dropped_total", gauge="depth") == 4.0

    def test_stride_skips_samples_but_keeps_last_value_exact(self, monkeypatch):
        monkeypatch.setattr("repro.obs.recorder.MAX_GAUGE_SAMPLES", 8)
        clock = SimClock()
        recorder = Recorder(clock=clock)
        for value in range(11):  # 8 trigger the halving, 3 more under stride 2
            recorder.gauge("depth", value)
            clock.advance_to(clock.now + 1.0)
        series = recorder.gauge_series("depth")
        assert len(series) <= 8
        # Post-cap, odd ticks are dropped and even ticks retained.
        assert series[-1] == (9.0, 9)
        # The snapshot's last-seen value is never downsampled away.
        assert recorder.snapshot()["gauges"]["depth"] == 10
        # 4 shed at the halving + 2 skipped by the stride (values 8, 10).
        assert recorder.counter_value("gauge_samples_dropped_total", gauge="depth") == 6.0

    def test_series_stays_bounded_under_sustained_load(self, monkeypatch):
        monkeypatch.setattr("repro.obs.recorder.MAX_GAUGE_SAMPLES", 8)
        clock = SimClock()
        recorder = Recorder(clock=clock)
        for value in range(200):
            recorder.gauge("depth", value)
            clock.advance_to(clock.now + 1.0)
        series = recorder.gauge_series("depth")
        assert len(series) <= 8
        times = [t for t, _ in series]
        assert times == sorted(times)  # shape survives: still chronological
        dropped = recorder.counter_value("gauge_samples_dropped_total", gauge="depth")
        assert dropped == 200 - len(series)

    def test_gauges_downsample_independently(self, monkeypatch):
        monkeypatch.setattr("repro.obs.recorder.MAX_GAUGE_SAMPLES", 8)
        recorder = Recorder()
        for value in range(20):
            recorder.gauge("hot", value)
        recorder.gauge("cold", 1)
        assert len(recorder.gauge_series("cold")) == 1
        assert recorder.counter_value("gauge_samples_dropped_total", gauge="cold") == 0.0


class TestSpanCap:
    def test_spans_past_the_cap_are_dropped_but_usable(self, monkeypatch):
        monkeypatch.setattr("repro.obs.recorder.MAX_SPANS", 2)
        clock = SimClock()
        recorder = Recorder(clock=clock)
        kept = [recorder.span("kept") for _ in range(2)]
        dropped = recorder.span("dropped")
        clock.advance_to(clock.now + 1.0)
        dropped.end(status="ok")  # call sites never branch on the cap
        assert dropped.duration == 1.0
        assert recorder.spans == kept
        assert recorder.spans_dropped == 1
        assert recorder.counter_value("obs_spans_dropped_total") == 1.0
        assert recorder.snapshot()["spans"] == {"total": 2, "open": 2, "dropped": 1, "sampled_out": 0}

    def test_no_drops_reported_below_the_cap(self):
        recorder = Recorder()
        recorder.span("a").end()
        assert recorder.spans_dropped == 0
        assert recorder.snapshot()["spans"]["dropped"] == 0


class TestHistograms:
    def test_bucket_counts_sum_and_count(self):
        recorder = Recorder()
        for value in (0.5, 5.0, 50.0):
            recorder.observe("latency", value, buckets=(1.0, 10.0, 100.0))
        snapshot = recorder.snapshot()["histograms"]["latency"]
        assert snapshot["count"] == 3
        assert snapshot["sum"] == 55.5
        # cumulative, Prometheus `le` semantics
        assert snapshot["buckets"] == {"1": 1, "10": 2, "100": 3, "+Inf": 3}

    def test_value_on_bucket_bound_is_included(self):
        recorder = Recorder()
        recorder.observe("latency", 10.0, buckets=(1.0, 10.0))
        snapshot = recorder.snapshot()["histograms"]["latency"]
        assert snapshot["buckets"]["10"] == 1

    def test_default_buckets_cover_fees_and_latencies(self):
        assert DEFAULT_BUCKETS[0] <= 0.01
        assert DEFAULT_BUCKETS[-1] >= 1e13


class TestSpans:
    def test_context_manager_records_sim_interval(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        with recorder.span("work", track="user:abc") as span:
            clock.advance_to(clock.now + 4.0)
        assert span.started_at == 0.0
        assert span.finished_at == 4.0
        assert span.duration == 4.0

    def test_open_span_duration_tracks_now(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        span = recorder.span("inflight")
        clock.advance_to(clock.now + 2.5)
        assert not span.done
        assert span.duration == 2.5

    def test_end_is_idempotent_and_merges_args(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        span = recorder.span("op", key="v")
        clock.advance_to(clock.now + 1.0)
        span.end(status="ok")
        clock.advance_to(clock.now + 1.0)
        span.end(status="late")  # ignored
        assert span.finished_at == 1.0
        assert span.args == {"key": "v", "status": "ok"}

    def test_exception_inside_span_records_error(self):
        recorder = Recorder()
        with pytest.raises(RuntimeError):
            with recorder.span("boom"):
                raise RuntimeError("x")
        assert recorder.spans[0].args["error"] == "RuntimeError"


class TestNullRecorder:
    def test_disabled_and_inert(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.counter("anything")
        NULL_RECORDER.gauge("anything", 1)
        NULL_RECORDER.observe("anything", 1)
        assert NULL_RECORDER.snapshot() == {}
        assert NULL_RECORDER.render_compact() == ""

    def test_null_span_supports_both_usage_styles(self):
        with NULL_RECORDER.span("x") as span:
            pass
        span.end(extra="ignored")

    def test_recorder_is_a_null_recorder_subtype(self):
        # Call sites type against NullRecorder; the live one must fit.
        assert isinstance(Recorder(), NullRecorder)


class TestClockBinding:
    def test_first_binding_wins(self):
        recorder = Recorder()
        first, second = SimClock(), SimClock()
        recorder.bind_clock(first)
        recorder.bind_clock(second)
        first.advance_to(first.now + 7.0)
        assert recorder.now() == 7.0

    def test_unbound_recorder_reads_zero(self):
        assert Recorder().now() == 0.0


class TestCompactRendering:
    def test_counters_and_gauges_listed(self):
        recorder = Recorder()
        recorder.counter("a_total", value=2, chain="goerli")
        recorder.gauge("depth", 4)
        text = recorder.render_compact()
        assert 'a_total{chain="goerli"}=2' in text
        assert "depth=4" in text

    def test_limit_elides(self):
        recorder = Recorder()
        for index in range(15):
            recorder.counter(f"metric_{index:02}")
        text = recorder.render_compact(limit=10)
        assert "5 more" in text


def test_track_for_is_stable_and_short():
    assert track_for("0xabcdef0123456789") == "user:0xabcdef01"
    assert track_for("0xabcdef0123456789") == track_for("0xabcdef0123456789")


class TestDropCounterLabels:
    def test_labeled_gauges_keep_labels_on_the_drop_counter(self, monkeypatch):
        # The drop counter must carry the full series labels, not lump
        # every series of one name into a single unlabeled counter.
        monkeypatch.setattr("repro.obs.recorder.MAX_GAUGE_SAMPLES", 8)
        recorder = Recorder()
        for value in range(20):
            recorder.gauge("depth", value, chain="goerli")
        recorder.gauge("depth", 1, chain="mumbai")
        dropped_goerli = recorder.counter_value(
            "gauge_samples_dropped_total", gauge="depth", chain="goerli"
        )
        assert dropped_goerli > 0
        assert (
            recorder.counter_value("gauge_samples_dropped_total", gauge="depth", chain="mumbai")
            == 0.0
        )


class TestHistogramExemplars:
    def test_keep_last_exemplar_per_bucket(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        handle = recorder.histogram_handle("latency", buckets=(1.0, 10.0))
        handle.observe(0.5, "t-aaa")
        clock.advance_to(clock.now + 5.0)
        handle.observe(0.7, "t-bbb")  # same bucket: replaces t-aaa
        handle.observe(50.0, "t-ccc")  # +Inf bucket
        histogram = recorder._histograms[("latency", ())]
        assert histogram.exemplars == {
            0: ("t-bbb", 0.7, 5.0),
            2: ("t-ccc", 50.0, 5.0),
        }

    def test_observations_without_trace_leave_no_exemplar(self):
        recorder = Recorder()
        handle = recorder.histogram_handle("latency", buckets=(1.0,))
        handle.observe(0.5)
        handle.observe(0.6, None)
        handle.observe(0.7, "")  # muted journeys carry the empty trace id
        histogram = recorder._histograms[("latency", ())]
        assert histogram.exemplars is None
        assert histogram.count == 3

    def test_null_handle_accepts_exemplars(self):
        handle = NULL_RECORDER.histogram_handle("latency")
        handle.observe(0.5, "t-aaa")  # must not raise
