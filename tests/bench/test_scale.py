"""Scaling-path correctness: 1k-user smoke, 16-user golden summaries.

A seeded 1k-user run must validate cleanly end to end; at 16 users the
facade campaign must reproduce its recorded summaries exactly; and the
profiler and bounded telemetry must hold their invariants at 10k.
"""

import json
from pathlib import Path

import pytest

from repro.bench.simulation import run_traced_journeys
from repro.obs.analysis import bench_summary

SEED = 1


class TestThousandUserSmoke:
    """A seeded 1k-user campaign on each family validates cleanly.

    ``sample_every=10`` keeps the span store small (all 1000 users still
    run the full protocol and feed counters/validation; every 10th is
    traced) so the smoke stays a few seconds in CI.
    """

    @pytest.mark.parametrize("network", ["goerli", "algorand-testnet"])
    def test_zero_validation_problems(self, network):
        report, recorder = run_traced_journeys(network, 1000, seed=SEED, sample_every=10)
        assert report.problems() == []
        assert report.complete
        assert len(report.journeys) == 100  # every 10th of 1000
        summary = bench_summary(report, recorder)
        assert summary["journeys"] == 100
        assert summary["spans_dropped"] == 0


GOLDEN = Path(__file__).parent / "golden" / "summaries_16u_seed1.json"


class TestSixteenUserGoldenSummaries:
    """``bench_summary`` of seeded 16-user facade campaigns, pinned.

    The golden file holds every summary key of each campaign, EVM fee
    totals included: witness nonces are keyed hashes of a per-witness
    counter, so the calldata they ride in is the same in every run.
    """

    CAMPAIGNS = {
        "goerli": ("goerli", None),
        "algorand-testnet": ("algorand-testnet", None),
        "goerli-batch4": ("goerli", 4),
    }

    @pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
    def test_summary_matches_golden(self, campaign):
        network, batch_size = self.CAMPAIGNS[campaign]
        golden = json.loads(GOLDEN.read_text())[campaign]
        summary = bench_summary(
            *run_traced_journeys(network, 16, seed=SEED, batch_size=batch_size)
        )
        assert summary == golden


STAGE_GOLDEN = Path(__file__).parent / "golden" / "stage_calls_16u_seed1.json"


class TestSixteenUserStageCalls:
    """Per-stage call counts and stack paths of the same campaigns, pinned.

    Every stage is entered through the ambient profiler; a change to
    that seam that moves, drops or doubles a stage shows up here as a
    changed ``calls`` count or stack path.  Wall times are not pinned.
    Each campaign starts from an empty slot-draw memo, as in a fresh
    process: a chain replaying slots an earlier test drew would make
    fewer ``crypto.comb`` calls.
    """

    @pytest.mark.parametrize("campaign", sorted(TestSixteenUserGoldenSummaries.CAMPAIGNS))
    def test_stage_calls_and_paths_match_golden(self, campaign, monkeypatch):
        from repro.chain import base
        from repro.obs.prof import Profiler

        network, batch_size = TestSixteenUserGoldenSummaries.CAMPAIGNS[campaign]
        golden = json.loads(STAGE_GOLDEN.read_text())[campaign]
        monkeypatch.setattr(base, "SLOT_DRAWS", base.DrawMemo(base.SLOT_DRAWS.cap))
        profiler = Profiler()
        run_traced_journeys(network, 16, seed=SEED, batch_size=batch_size, profiler=profiler)
        stages = profiler.profile()["stages"]
        assert {stage: row["calls"] for stage, row in stages.items()} == golden["calls"]
        assert sorted(";".join(path) for path in profiler.path_totals()) == golden["paths"]


@pytest.fixture(scope="module")
def profiled_10k():
    """One shared profiled 10k-user campaign with tiny telemetry caps.

    The caps are patched down so both bounded-telemetry mechanisms
    (gauge stride-downsampling, span-cap dropping) actually engage at
    this scale, which the production caps are sized never to do.
    """
    from repro.obs.prof import Profiler

    patcher = pytest.MonkeyPatch()
    patcher.setattr("repro.obs.recorder.MAX_GAUGE_SAMPLES", 256)
    patcher.setattr("repro.obs.recorder.MAX_SPANS", 2000)
    profiler = Profiler()
    try:
        report, recorder = run_traced_journeys(
            "goerli", 10_000, seed=SEED, sample_every=10, profiler=profiler,
        )
    finally:
        patcher.undo()
    return report, recorder, profiler


class TestProfiledTenThousandUsers:
    """Profiler + bounded-telemetry invariants at 10k users."""

    def test_profiler_overhead_within_budget(self, profiled_10k):
        _, _, profiler = profiled_10k
        profile = profiler.profile()
        assert profile["profiler_overhead_ratio"] <= 0.05

    def test_stage_self_times_tile_the_wall_clock(self, profiled_10k):
        _, _, profiler = profiled_10k
        profile = profiler.profile()
        accounted = (
            sum(row["wall_seconds"] for row in profile["stages"].values())
            + profile["unattributed_wall_seconds"]
        )
        total = profile["total_wall_seconds"]
        assert accounted == pytest.approx(total, rel=0.01)
        # Dispatch must carry (nearly all of) the simulated time, and
        # the kernel's compute stages must all have run.
        assert profile["stages"]["simnet.dispatch"]["sim_seconds"] > 0
        for stage in ("vm.execute", "mempool.schedule", "crypto.comb",
                      "crypto.sign", "crypto.verify", "dht.op",
                      "chain.service", "chain.submit", "chain.confirm", "chain.block",
                      "obs.recorder", "obs.profiler"):
            assert profile["stages"][stage]["wall_seconds"] > 0, stage

    def test_span_drop_accounting_is_exact(self, profiled_10k):
        _, recorder, _ = profiled_10k
        assert recorder.spans_dropped > 0  # the patched cap engaged
        assert len(recorder.spans) == 2000
        assert (
            recorder.counter_value("obs_spans_dropped_total") == recorder.spans_dropped
        )
        assert recorder.snapshot()["spans"]["dropped"] == recorder.spans_dropped

    def test_gauge_downsampling_engaged_and_accounted(self, profiled_10k):
        _, recorder, _ = profiled_10k
        totals = [
            (key, value)
            for key, value in recorder._counters.items()
            if key[0] == "gauge_samples_dropped_total" and value > 0
        ]
        assert totals, "no gauge hit the patched 256-sample cap"
        for key, dropped in totals:
            labels = dict(key[1])
            series = recorder._gauge_series[(labels.pop("gauge"), tuple(sorted(labels.items())))]
            assert len(series) <= 256
            assert dropped > 0
