"""Journey reconstruction, critical-path tiling, and the benchmark emitter."""

import pytest

from repro.obs.analysis import (
    FLOAT_TOLERANCE,
    JourneyReport,
    bench_summary,
    percentile,
    reconstruct_journeys,
    render_report,
    stage_statistics,
    validate_journeys,
)
from repro.obs.recorder import Recorder, TraceContext
from repro.simnet import SimClock


def synthetic_journey(clock: SimClock, recorder: Recorder):
    """One hand-built proof journey with every stage represented.

    Timeline (sim seconds):
      0..2   proof:request (ble_exchange)
      2..7   proof:submit, with tx 3..6 included at 5 (client gaps
             2..3 and 6..7; mempool 3..5; confirm 5..6)
      7..9   idle between submit and verify (client)
      9..12  proof:verify, with dht:publish 10..11 inside it
    """
    root = recorder.span("proof:request", track="prover:p", cat="proof")
    clock.advance_to(clock.now + 2.0)
    root.end()
    submit = recorder.span("proof:submit", track="prover:p", cat="proof", parent=root.context)
    clock.advance_to(clock.now + 1.0)
    tx = recorder.span("tx:attach", track="prover:p", cat="tx", parent=submit.context)
    clock.advance_to(clock.now + 3.0)
    tx.end(included_at=5.0)
    clock.advance_to(clock.now + 1.0)
    submit.end()
    clock.advance_to(clock.now + 2.0)
    verify = recorder.span("proof:verify", track="verifier:v", cat="proof", parent=root.context)
    clock.advance_to(clock.now + 1.0)
    dht = recorder.span("dht:publish", track="verifier:v", cat="dht", parent=verify.context)
    clock.advance_to(clock.now + 1.0)
    dht.end()
    clock.advance_to(clock.now + 1.0)
    verify.end()
    return root


class TestReconstruction:
    def test_critical_path_tiles_every_stage(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        synthetic_journey(clock, recorder)
        report = reconstruct_journeys(recorder)
        assert len(report.journeys) == 1
        journey = report.journeys[0]
        assert journey.complete
        assert journey.end_to_end == pytest.approx(12.0)
        assert journey.stage_totals() == pytest.approx(
            {
                "ble_exchange": 2.0,
                "client": 4.0,   # 2..3, 6..7, and the 7..9 idle gap
                "mempool": 2.0,
                "confirm": 1.0,
                "verify": 2.0,   # 9..10 and the 11..12 tail
                "dht_publish": 1.0,
            }
        )
        assert sum(journey.stage_totals().values()) == pytest.approx(
            journey.end_to_end, abs=FLOAT_TOLERANCE
        )

    def test_non_proof_traces_are_ignored_by_default(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        synthetic_journey(clock, recorder)
        funding = recorder.span("fund-contract", track="verifier:v", cat="op")
        clock.advance_to(clock.now + 1.0)
        funding.end()
        report = reconstruct_journeys(recorder)
        assert len(report.journeys) == 1
        assert not report.orphan_spans

    def test_roots_prefixes_select_operation_traces(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        op = recorder.span("deploy:pol", track="user:1", cat="op")
        clock.advance_to(clock.now + 5.0)
        op.end()
        report = reconstruct_journeys(recorder, roots=("deploy:", "attach"))
        assert [j.root.name for j in report.journeys] == ["deploy:pol"]
        assert report.journeys[0].end_to_end == pytest.approx(5.0)

    def test_orphan_spans_are_detected(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        root = synthetic_journey(clock, recorder)
        stray = recorder.span(
            "tx:lost", track="prover:p", cat="tx",
            parent=TraceContext(root.trace_id, 99_999),
        )
        stray.end()
        report = reconstruct_journeys(recorder)
        assert [s.name for s in report.orphan_spans] == ["tx:lost"]
        assert not report.complete
        assert any("orphan" in problem for problem in report.problems())

    def test_open_spans_are_a_problem(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        root = recorder.span("proof:request", track="prover:p", cat="proof")
        clock.advance_to(clock.now + 1.0)
        root.end()
        recorder.span("proof:submit", track="prover:p", cat="proof", parent=root.context)
        report = reconstruct_journeys(recorder)
        assert not report.complete
        assert any("never closed" in problem for problem in report.journeys[0].problems)

    def test_tx_without_inclusion_is_all_mempool(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        root = recorder.span("proof:request", track="p", cat="proof")
        tx = recorder.span("tx:t", track="p", cat="tx", parent=root.context)
        clock.advance_to(clock.now + 4.0)
        tx.end()
        root.end()
        journey = reconstruct_journeys(recorder).journeys[0]
        totals = journey.stage_totals()
        assert totals.get("mempool") == pytest.approx(4.0)
        assert "confirm" not in totals

    def test_inclusion_before_span_start_is_all_confirm(self):
        clock = SimClock()
        clock.advance_to(clock.now + 10.0)
        recorder = Recorder(clock=clock)
        root = recorder.span("proof:request", track="p", cat="proof")
        tx = recorder.span("tx:t", track="p", cat="tx", parent=root.context)
        clock.advance_to(clock.now + 3.0)
        tx.end(included_at=2.0)  # clamped to the span's own start
        root.end()
        journey = reconstruct_journeys(recorder).journeys[0]
        totals = journey.stage_totals()
        assert totals.get("confirm") == pytest.approx(3.0)
        assert "mempool" not in totals


class TestStatistics:
    def test_percentile_is_nearest_rank(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
        assert percentile([4.0, 1.0, 3.0, 2.0], 95) == 4.0
        assert percentile([5.0], 99) == 5.0
        assert percentile([], 50) == 0.0

    def test_every_journey_contributes_to_every_stage(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        synthetic_journey(clock, recorder)
        # A second, degenerate journey with no chain time at all.
        bare = recorder.span("proof:request", track="prover:q", cat="proof")
        clock.advance_to(clock.now + 4.0)
        bare.end()
        report = reconstruct_journeys(recorder)
        stats = stage_statistics(report.journeys)
        # p50 over [2.0, 0.0] mempool values is the nearest-rank 0.0.
        assert stats["mempool"]["p50"] == 0.0
        assert stats["mempool"]["max"] == pytest.approx(2.0)
        assert list(stats) == [
            "ble_exchange", "client", "mempool", "confirm", "verify", "dht_publish"
        ]

    def test_validate_requires_chain_stages(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        bare = recorder.span("proof:request", track="prover:q", cat="proof")
        clock.advance_to(clock.now + 4.0)
        bare.end()
        report = reconstruct_journeys(recorder)
        assert report.complete  # structurally fine ...
        problems = validate_journeys(report)
        assert len(problems) == 1  # ... but no chain time ever showed up
        assert "missing stage(s) mempool, confirm" in problems[0]

    def test_render_report_names_the_bottleneck(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        synthetic_journey(clock, recorder)
        text = render_report(reconstruct_journeys(recorder), title="unit test")
        assert text.startswith("unit test — 1 journey(s)")
        assert "end-to-end: p50=12.00s" in text
        assert "bottleneck: client" in text
        assert "PROBLEMS" not in text

    def test_render_report_lists_problems(self):
        report = JourneyReport(journeys=[])
        assert "(no journeys recorded)" in render_report(report)


class TestBenchSummary:
    def test_summary_shape_and_counters(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        synthetic_journey(clock, recorder)
        recorder.observe("chain_fee_paid_base_units", 1_000.0, chain="goerli")
        recorder.observe("chain_fee_paid_base_units", 500.0, chain="goerli")
        recorder.counter("chain_tx_retries_total", chain="goerli")
        report = reconstruct_journeys(recorder)
        summary = bench_summary(report, recorder)
        assert summary["journeys"] == 1
        assert summary["complete"] is True
        assert summary["fees_base_units_total"] == pytest.approx(1_500.0)
        assert summary["tx_retries_total"] == 1.0
        assert summary["spans_dropped"] == 0
        assert summary["end_to_end_seconds"]["p50"] == pytest.approx(12.0)
        assert set(summary["stages_seconds"]) == {
            "ble_exchange", "client", "mempool", "confirm", "verify", "dht_publish"
        }
        for stats in summary["stages_seconds"].values():
            assert set(stats) == {"p50", "p95", "p99", "mean", "max"}


class TestTracedJourneyRuns:
    """The acceptance scenario, on both chain families."""

    @pytest.mark.parametrize("network", ["goerli", "algorand-testnet"])
    def test_sixteen_users_yield_sixteen_complete_journeys(self, network):
        from repro.bench.simulation import run_traced_journeys

        report, recorder = run_traced_journeys(network, 16, seed=1)
        assert len(report.journeys) == 16
        assert report.complete
        assert not report.orphan_spans
        assert validate_journeys(report) == []
        for journey in report.journeys:
            totals = journey.stage_totals()
            assert sum(totals.values()) == pytest.approx(
                journey.end_to_end, abs=FLOAT_TOLERANCE
            )
            assert totals.get("mempool", 0.0) > 0.0
        summary = bench_summary(report, recorder)
        assert summary["fees_base_units_total"] > 0

    def test_partial_group_is_trimmed_to_whole_groups(self):
        from repro.bench.simulation import campaign_users, run_traced_journeys

        assert campaign_users(6) == 4
        report, _recorder = run_traced_journeys("goerli", 6, seed=1)
        assert len(report.journeys) == 4
        assert validate_journeys(report) == []
