"""Exporter tests: Chrome trace-event JSON and Prometheus text format."""

import json
import re

from repro.obs.export import (
    chrome_trace_json,
    to_chrome_trace,
    to_prometheus,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.recorder import Recorder
from repro.simnet import SimClock

#: a Prometheus sample line: name, optional label block, numeric value
SAMPLE_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9][0-9eE.+-]*$")


def build_recorder() -> Recorder:
    clock = SimClock()
    recorder = Recorder(clock=clock)
    recorder.counter("tx_total", chain="goerli", kind="call")
    recorder.gauge("mempool_depth", 2, chain="goerli")
    clock.advance_to(clock.now + 12.0)
    recorder.gauge("mempool_depth", 0, chain="goerli")
    recorder.observe("fee_paid", 1500.0, buckets=(1e3, 1e6), chain="goerli")
    with recorder.span("deploy:pol", track="user:0xaaaa", cat="op", olc="X"):
        clock.advance_to(clock.now + 30.0)
    recorder.span("attach:pol", track="user:0xbbbb", cat="op")  # left open
    return recorder


class TestChromeTrace:
    def test_round_trips_through_json(self):
        recorder = build_recorder()
        parsed = json.loads(chrome_trace_json(recorder))
        assert isinstance(parsed["traceEvents"], list)

    def test_complete_event_for_closed_span(self):
        trace = to_chrome_trace(build_recorder())
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 1
        (event,) = complete
        assert event["name"] == "deploy:pol"
        assert event["ts"] == 12_000_000  # sim seconds -> microseconds
        assert event["dur"] == 30_000_000
        assert event["args"]["olc"] == "X"

    def test_begin_event_for_open_span(self):
        trace = to_chrome_trace(build_recorder())
        begins = [e for e in trace["traceEvents"] if e["ph"] == "B"]
        assert [e["name"] for e in begins] == ["attach:pol"]

    def test_one_named_track_per_span_source(self):
        trace = to_chrome_trace(build_recorder())
        threads = {
            e["args"]["name"]: e["tid"]
            for e in trace["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert set(threads) == {"user:0xaaaa", "user:0xbbbb"}
        assert len(set(threads.values())) == 2

    def test_gauge_series_exported_as_counter_events(self):
        trace = to_chrome_trace(build_recorder())
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        values = [(e["ts"], e["args"]["value"]) for e in counters]
        assert (0, 2) in values
        assert (12_000_000, 0) in values

    def test_counter_track_label_values_escaped(self):
        recorder = Recorder()
        recorder.gauge("depth", 1, chain='evil"name\nwith{stuff}')
        trace = to_chrome_trace(recorder)
        (counter,) = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert counter["name"] == 'depth{chain="evil\\"name\\nwith{stuff}"}'
        assert "\n" not in counter["name"]

    def test_open_span_event_is_valid_and_carries_trace_args(self):
        trace = to_chrome_trace(build_recorder())
        (begin,) = [e for e in trace["traceEvents"] if e["ph"] == "B"]
        # A well-formed begin event: position, identity, no duration.
        assert begin["ts"] == 42_000_000
        assert begin["pid"] and isinstance(begin["tid"], int)
        assert "dur" not in begin
        assert begin["args"]["trace_id"].startswith("t")
        assert begin["args"]["span_id"] > 0
        assert "parent_id" not in begin["args"]  # a root span

    def test_flow_events_link_child_to_parent_track(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        with recorder.span("deploy:pol", track="user:0xaaaa", cat="op") as parent:
            clock.advance_to(clock.now + 5.0)
            with recorder.span("tx:create", track="user:0xaaaa", cat="tx",
                               parent=parent.context):
                clock.advance_to(clock.now + 10.0)
            clock.advance_to(clock.now + 5.0)
        trace = to_chrome_trace(recorder)
        events = trace["traceEvents"]
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        child = next(e for e in events if e.get("name") == "tx:create")
        # The arrow is keyed by the child's span id and lands at its start.
        assert starts[0]["id"] == finishes[0]["id"] == int(child["args"]["span_id"])
        assert finishes[0]["bp"] == "e"
        assert finishes[0]["ts"] == child["ts"] == 5_000_000
        # Binding point "s" sits inside the parent's interval.
        assert starts[0]["ts"] == 5_000_000

    def test_root_spans_emit_no_flow_events(self):
        trace = to_chrome_trace(build_recorder())
        assert not [e for e in trace["traceEvents"] if e["ph"] in ("s", "f")]

    def test_write_to_disk(self, tmp_path):
        path = tmp_path / "out.trace.json"
        write_chrome_trace(build_recorder(), str(path))
        assert json.loads(path.read_text())["traceEvents"]


class TestPrometheus:
    def test_every_line_is_comment_or_sample(self):
        text = to_prometheus(build_recorder())
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(
                    r"^# (TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)"
                    r"|HELP [a-zA-Z_:][a-zA-Z0-9_:]* \S.*"
                    r"|EOF)$",
                    line,
                ), line
            else:
                assert SAMPLE_RE.match(line), line

    def test_help_precedes_type_and_exposition_ends_with_eof(self):
        text = to_prometheus(build_recorder())
        lines = text.strip().splitlines()
        assert lines[-1] == "# EOF"
        for index, line in enumerate(lines):
            if line.startswith("# TYPE "):
                family = line.split()[2]
                assert lines[index - 1].startswith(f"# HELP {family} "), line

    def test_registered_help_text_used(self):
        recorder = Recorder()
        recorder.counter("chain_tx_rejected_total", chain="goerli")
        text = to_prometheus(recorder)
        assert (
            "# HELP chain_tx_rejected_total "
            "Submissions rejected by the chain or provider." in text
        )

    def test_unregistered_family_gets_fallback_help(self):
        recorder = Recorder()
        recorder.counter("made_up_total")
        assert "# HELP made_up_total Simulation metric made_up_total." in to_prometheus(recorder)

    def test_counter_gauge_and_histogram_families(self):
        text = to_prometheus(build_recorder())
        assert "# TYPE tx_total counter" in text
        assert 'tx_total{chain="goerli",kind="call"} 1' in text
        assert "# TYPE mempool_depth gauge" in text
        assert 'mempool_depth{chain="goerli"} 0' in text  # last value
        assert "# TYPE fee_paid histogram" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = to_prometheus(build_recorder())
        assert 'fee_paid_bucket{chain="goerli",le="1000"} 0' in text
        assert 'fee_paid_bucket{chain="goerli",le="1e+06"} 1' in text
        assert 'fee_paid_bucket{chain="goerli",le="+Inf"} 1' in text
        assert 'fee_paid_sum{chain="goerli"} 1500' in text
        assert 'fee_paid_count{chain="goerli"} 1' in text

    def test_label_values_escaped(self):
        recorder = Recorder()
        recorder.counter("weird_total", label='a"b\\c')
        text = to_prometheus(recorder)
        assert 'weird_total{label="a\\"b\\\\c"} 1' in text

    def test_label_newlines_escaped_keep_lines_parseable(self):
        recorder = Recorder()
        recorder.counter("weird_total", label="two\nlines")
        text = to_prometheus(recorder)
        assert 'weird_total{label="two\\nlines"} 1' in text
        for line in text.strip().splitlines():
            assert line.startswith("#") or SAMPLE_RE.match(line), line

    def test_write_to_disk(self, tmp_path):
        path = tmp_path / "out.prom"
        write_prometheus(build_recorder(), str(path))
        assert path.read_text().endswith("\n")

    def test_histogram_exemplars_render_openmetrics_style(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        handle = recorder.histogram_handle("latency_seconds", buckets=(1.0, 10.0), chain="goerli")
        clock.advance_to(clock.now + 3.5)
        handle.observe(0.5, "t000007")
        handle.observe(2.0)  # no exemplar on this bucket
        text = to_prometheus(recorder)
        assert (
            'latency_seconds_bucket{chain="goerli",le="1"} 1 '
            '# {trace_id="t000007"} 0.5 3.5' in text
        )
        # Buckets without exemplars keep the plain two-token form.
        assert 'latency_seconds_bucket{chain="goerli",le="10"} 2\n' in text

    def test_exemplar_lines_keep_last_token_numeric(self):
        # CI's smoke parser reads the last whitespace token as a float;
        # exemplar suffixes must preserve that.
        clock = SimClock()
        recorder = Recorder(clock=clock)
        handle = recorder.histogram_handle("latency_seconds", buckets=(1.0,))
        handle.observe(0.5, "t000001")
        for line in to_prometheus(recorder).strip().splitlines():
            if line.startswith("#"):
                continue
            float(line.rpartition(" ")[2])


class TestSnapshotJson:
    def test_round_trips(self):
        snapshot = json.loads(json.dumps(build_recorder().snapshot()))
        assert snapshot["counters"]['tx_total{chain="goerli",kind="call"}'] == 1
        assert snapshot["spans"] == {"total": 2, "open": 1, "dropped": 0, "sampled_out": 0}
        assert snapshot["sim_time"] == 42.0
