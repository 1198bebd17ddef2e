"""Journey validation under the PR-8 Merkle proof-batching pipeline.

A batched run holds each member's ``proof:submit`` span open until the
group's one ``insert_batch`` transaction settles, mirroring a
``tx:insert_batch`` child span into every member's trace.  Journey
reconstruction and validation must stay honest through that join: clean
batched runs validate, a missing mirror parent is an orphan, and spans
still open at export time are counted and flagged.
"""


import pytest

from repro.bench.simulation import run_traced_journeys
from repro.obs.analysis import reconstruct_journeys, validate_journeys
from repro.obs.context import TraceContext
from repro.obs.recorder import Recorder
from repro.simnet import SimClock

BATCH = 4
USERS = 8  # two groups: 2 creators, 6 batched members


@pytest.fixture(scope="module")
def batched_run():
    return run_traced_journeys("goerli", USERS, seed=1, batch_size=BATCH)


class TestBatchedJourneys:
    def test_batched_run_validates_clean(self, batched_run):
        report, recorder = batched_run
        assert len(report.journeys) == USERS
        assert report.complete
        assert not report.orphan_spans
        assert validate_journeys(report) == []

    def test_members_join_submit_to_insert_batch(self, batched_run):
        report, recorder = batched_run
        members = [
            journey for journey in report.journeys
            if any(span.name == "tx:insert_batch" for span in journey.spans)
        ]
        assert len(members) == USERS - USERS // BATCH  # everyone but the creators
        for journey in members:
            submit = next(s for s in journey.spans if s.name == "proof:submit")
            mirror = next(s for s in journey.spans if s.name == "tx:insert_batch")
            assert mirror.parent_id == submit.span_id
            # The held-open submit closes when the batch settles, never
            # before its mirrored inclusion span.
            assert submit.finished_at >= mirror.finished_at

    def test_creators_anchor_individually(self, batched_run):
        report, recorder = batched_run
        creators = [
            journey for journey in report.journeys
            if not any(span.name == "tx:insert_batch" for span in journey.spans)
        ]
        assert len(creators) == USERS // BATCH
        for journey in creators:
            assert any(span.name.startswith("tx:") for span in journey.spans)

    def test_no_spans_left_open_at_export(self, batched_run):
        report, recorder = batched_run
        snapshot = recorder.snapshot()
        assert snapshot["spans"]["open"] == 0


class TestOrphanedBatchMember:
    def synthetic_member(self, clock, recorder, *, orphan_mirror=False):
        """A member trace shaped like the batching pipeline's output."""
        root = recorder.span("proof:request", track="prover:p", cat="proof")
        clock.advance_to(clock.now + 1.0)
        submit = recorder.span(
            "proof:submit", track="prover:p", cat="proof", parent=root.context
        )
        root.end()
        parent = (
            TraceContext(root.trace_id, 99_999) if orphan_mirror else submit.context
        )
        mirror = recorder.span(
            "tx:insert_batch", track="prover:p", cat="tx", parent=parent, batch=1
        )
        clock.advance_to(clock.now + 12.0)
        mirror.end(included_at=clock.now)
        submit.end(batch=1)
        return root.trace_id

    def test_intact_member_trace_validates(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        self.synthetic_member(clock, recorder)
        report = reconstruct_journeys(recorder)
        assert report.complete
        assert validate_journeys(report, required=("mempool",)) == []

    def test_missing_inclusion_parent_is_an_orphan(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        trace = self.synthetic_member(clock, recorder, orphan_mirror=True)
        report = reconstruct_journeys(recorder)
        assert [span.name for span in report.orphan_spans] == ["tx:insert_batch"]
        problems = validate_journeys(report, required=())
        assert any(
            "orphan" in problem for problem in problems
        ), problems
        (journey,) = [j for j in report.journeys if j.trace_id == trace]
        assert any("orphan" in problem for problem in journey.problems)


class TestOpenSpanAccounting:
    def test_unsettled_batch_leaves_submit_open_and_flagged(self):
        """A member whose batch never settles: the held-open submit span
        must surface both in the snapshot's open count and as a journey
        problem -- the exact signature of a batch stuck in flight."""
        clock = SimClock()
        recorder = Recorder(clock=clock)
        root = recorder.span("proof:request", track="prover:p", cat="proof")
        clock.advance_to(clock.now + 1.0)
        recorder.span(
            "proof:submit", track="prover:p", cat="proof", parent=root.context
        )
        root.end()  # the batch never flushes; submit stays open
        snapshot = recorder.snapshot()
        assert snapshot["spans"] == {
            "total": 2, "open": 1, "dropped": 0, "sampled_out": 0,
        }
        report = reconstruct_journeys(recorder)
        problems = validate_journeys(report, required=())
        assert any("never closed" in problem for problem in problems), problems
