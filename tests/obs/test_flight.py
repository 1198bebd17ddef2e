"""Flight recorder tests: ring harvest, bundle dump/load/render."""

import json

import pytest

from repro.obs.flight import FlightRecorder, load_bundle, render_bundle
from repro.obs.monitor import InvariantViolation
from repro.obs.recorder import Recorder
from repro.simnet import SimClock


def make_flight(**kwargs):
    clock = SimClock()
    recorder = Recorder(clock=clock)
    return FlightRecorder(recorder, **kwargs), recorder, clock


class TestRing:
    def test_ring_is_bounded(self):
        flight, recorder, clock = make_flight(capacity=8)
        for index in range(20):
            flight.note("tick", index=index)
        assert len(flight.ring) == 8
        assert [entry["index"] for entry in flight.ring] == list(range(12, 20))

    def test_poll_harvests_closed_spans_once(self):
        flight, recorder, clock = make_flight()
        with recorder.span("proof:request", track="user:0", cat="op"):
            clock.advance_to(clock.now + 2.0)
        flight.poll()
        flight.poll()
        spans = [entry for entry in flight.ring if entry["type"] == "span"]
        assert len(spans) == 1
        assert spans[0]["name"] == "proof:request"
        assert spans[0]["dur"] == 2.0

    def test_open_span_harvested_when_it_closes(self):
        flight, recorder, clock = make_flight()
        span = recorder.span("proof:submit", track="user:0", cat="op")
        flight.poll()
        assert not [entry for entry in flight.ring if entry["type"] == "span"]
        clock.advance_to(clock.now + 3.0)
        span.end()
        flight.poll()
        (entry,) = [entry for entry in flight.ring if entry["type"] == "span"]
        assert entry["name"] == "proof:submit"

    def test_poll_records_counter_deltas(self):
        flight, recorder, clock = make_flight()
        recorder.counter("tx_total", 2, chain="goerli")
        flight.poll()
        recorder.counter("tx_total", 3, chain="goerli")
        flight.poll()
        deltas = [entry["deltas"] for entry in flight.ring if entry["type"] == "metrics"]
        assert deltas == [{'tx_total{chain="goerli"}': 2.0}, {'tx_total{chain="goerli"}': 3.0}]

    def test_quiet_poll_adds_nothing(self):
        flight, recorder, clock = make_flight()
        flight.poll()
        assert list(flight.ring) == []


class TestDump:
    def test_bundle_carries_ring_snapshot_and_reason(self):
        flight, recorder, clock = make_flight()
        clock.advance_to(clock.now + 5.0)
        flight.note("alert", alert="fee-spike", state="firing")
        bundle = flight.dump("alert", "fee-spike firing")
        assert bundle["version"] == 1
        assert bundle["reason"] == {
            "kind": "alert", "detail": "fee-spike firing", "sim_time": 5.0,
        }
        assert bundle["ring"][0]["kind"] == "alert"
        assert "counters" in bundle["snapshot"]
        assert flight.bundles == [bundle]

    def test_explicit_trace_ids_deduplicated(self):
        flight, recorder, clock = make_flight()
        bundle = flight.dump("invariant", "x", trace_ids=["t1", "t2", "t1"])
        assert bundle["trace_ids"] == ["t1", "t2"]

    def test_implicated_fallback_uses_recent_ring_spans(self):
        flight, recorder, clock = make_flight()
        for index in range(3):
            with recorder.span("proof:request", track=f"user:{index}", cat="op"):
                clock.advance_to(clock.now + 1.0)
        flight.poll()
        bundle = flight.dump("exception", "boom")
        # Most recent closures first, no explicit suspects given.
        assert len(bundle["trace_ids"]) == 3
        assert bundle["trace_ids"][0] > bundle["trace_ids"][-1]

    def test_journeys_restricted_to_implicated_traces(self):
        flight, recorder, clock = make_flight()
        traces = []
        for index in range(2):
            with recorder.span("proof:request", track=f"user:{index}", cat="op") as span:
                traces.append(span.trace_id)
                clock.advance_to(clock.now + 1.0)
        bundle = flight.dump("invariant", "x", trace_ids=[traces[0]])
        assert [journey["trace_id"] for journey in bundle["journeys"]] == [traces[0]]

    def test_bundle_cap_suppresses_further_dumps(self):
        flight, recorder, clock = make_flight(max_bundles=2)
        assert flight.dump("alert", "1") is not None
        assert flight.dump("alert", "2") is not None
        assert flight.dump("alert", "3") is None
        assert len(flight.bundles) == 2
        assert flight.dumps_suppressed == 1

    def test_violations_serialized_into_the_bundle(self):
        flight, recorder, clock = make_flight()
        violation = InvariantViolation(
            invariant="proof_liveness", chain="goerli", sim_time=9.0,
            height=3, detail="proof never anchored", trace_ids=("t000009",),
        )
        bundle = flight.dump("invariant", str(violation), violations=[violation])
        assert bundle["violations"] == [
            {
                "invariant": "proof_liveness", "chain": "goerli",
                "sim_time": 9.0, "height": 3,
                "detail": "proof never anchored", "trace_ids": ["t000009"],
            }
        ]


class TestDiskRoundTrip:
    def test_bundles_written_with_deterministic_names(self, tmp_path):
        flight, recorder, clock = make_flight(out_dir=str(tmp_path))
        flight.dump("alert", "first")
        flight.dump("alert", "second")
        assert [p.split("/")[-1] for p in flight.bundle_paths] == [
            "postmortem-001.json", "postmortem-002.json",
        ]

    def test_load_bundle_round_trips(self, tmp_path):
        flight, recorder, clock = make_flight(out_dir=str(tmp_path))
        flight.note("alert", alert="block-stall", state="firing")
        dumped = flight.dump("alert", "block-stall firing")
        loaded = load_bundle(flight.bundle_paths[0])
        assert loaded == json.loads(json.dumps(dumped))

    def test_load_bundle_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="unsupported bundle version 99"):
            load_bundle(str(path))

    def test_in_memory_mode_writes_nothing(self, tmp_path):
        flight, recorder, clock = make_flight()
        flight.dump("alert", "x")
        assert flight.bundle_paths == []


class TestRender:
    def make_bundle(self):
        flight, recorder, clock = make_flight()
        with recorder.span("proof:request", track="user:0", cat="op") as span:
            clock.advance_to(clock.now + 4.0)
        trace = span.trace_id
        recorder.counter("chain_tx_rejected_total", chain="goerli")
        flight.note("alert", alert="tx-retry-burn", previous="pending", state="firing")
        violation = InvariantViolation(
            invariant="proof_liveness", chain="goerli", sim_time=4.0,
            height=2, detail="proof ('OLC', 7) never anchored", trace_ids=(trace,),
        )
        alerts = {
            "tx-retry-burn": {
                "state": "firing", "times_fired": 1, "last_value": 3.0,
                "last_change": 4.0, "fault_kind": "tx_rejection",
                "description": "transaction retries burn the error budget",
            },
            "block-stall": {
                "state": "inactive", "times_fired": 0, "last_value": None,
                "last_change": 0.0, "fault_kind": "block_stall",
                "description": "block production gap exceeds the cadence margin",
            },
        }
        return flight.dump(
            "invariant", str(violation),
            trace_ids=[trace], violations=[violation], alerts=alerts,
        ), trace

    def test_render_names_reason_violation_alerts_and_traces(self):
        bundle, trace = self.make_bundle()
        text = render_bundle(bundle)
        assert "post-mortem bundle v1" in text
        assert "reason: invariant" in text
        assert "[proof_liveness] goerli h=2" in text
        assert "tx-retry-burn: firing (fired 1x" in text
        assert "block-stall" not in text  # inactive alerts stay quiet
        assert f"implicated trace ids: {trace}" in text
        assert f"journey {trace}" in text

    def test_render_tail_limits_ring_lines(self):
        flight, recorder, clock = make_flight()
        for index in range(30):
            flight.note("tick", index=index)
        bundle = flight.dump("alert", "x")
        text = render_bundle(bundle, ring_tail=5)
        assert "last 5:" in text
        assert text.count("event tick") == 5
