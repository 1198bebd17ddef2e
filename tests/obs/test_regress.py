"""Unit + CLI tests for the benchmark history and perf-regression gate."""

import copy
import json

import pytest

from repro.__main__ import main
from repro.obs.regress import (
    HISTORY_VERSION,
    Thresholds,
    append_run,
    diff_runs,
    host_fingerprint,
    load_history,
    render_findings,
    run_meta,
)


def make_point(users: int = 16, **overrides) -> dict:
    point = {
        "users": users,
        "kernel_seconds": 1.0,
        "journeys": users,
        "end_to_end_seconds": {"p50": 70.0, "p95": 71.0, "p99": 71.5},
        "fees_base_units_total": 16000,
        "profile": {
            "stages": {
                "vm.execute": {"wall_seconds": 0.4, "sim_seconds": 0.0, "calls": 32},
                "crypto.comb": {"wall_seconds": 0.2, "sim_seconds": 0.0, "calls": 64},
            }
        },
    }
    point.update(overrides)
    return point


def make_run(host: str = "ci/x86_64/Linux", users: int = 16, **overrides) -> dict:
    return {
        "meta": {
            "git_sha": "abc123",
            "seed": 1,
            "users": [users],
            "networks": ["goerli"],
            "host": host,
        },
        "families": {"evm": {"network": "goerli", "points": [make_point(users, **overrides)]}},
    }


class TestHistoryFile:
    def test_missing_file_is_an_empty_history(self, tmp_path):
        history = load_history(tmp_path / "nope.json")
        assert history["version"] == HISTORY_VERSION
        assert history["runs"] == []

    @pytest.mark.parametrize("content", ["[]", "[1, 2]", "null", "3"])
    def test_top_level_that_is_not_an_object_is_refused(self, content, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(content)
        with pytest.raises(ValueError, match="a history is a JSON object"):
            load_history(path)

    def test_v1_payload_migrates_as_one_run(self, tmp_path):
        legacy = {
            "benchmark": "pol-proof-journeys",
            "users": [16],
            "seed": 1,
            "families": {"evm": {"network": "goerli", "points": [make_point()]}},
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(legacy))
        history = load_history(path)
        assert history["version"] == HISTORY_VERSION
        assert len(history["runs"]) == 1
        run = history["runs"][0]
        assert run["meta"]["seed"] == 1
        assert run["meta"]["host"] == "unknown"
        assert run["families"]["evm"]["points"][0]["users"] == 16

    def test_append_creates_migrates_and_trims(self, tmp_path):
        path = tmp_path / "bench.json"
        for index in range(5):
            history = append_run(
                path,
                {"git_sha": f"sha{index}", "seed": 1, "users": [16], "networks": [], "host": "h"},
                {"evm": {"network": "goerli", "points": [make_point()]}},
                max_runs=3,
            )
        assert len(history["runs"]) == 3
        assert [run["meta"]["git_sha"] for run in history["runs"]] == ["sha2", "sha3", "sha4"]
        # The write is round-trippable and stays v2.
        assert load_history(path)["version"] == HISTORY_VERSION

    def test_run_meta_captures_host_and_sha(self):
        meta = run_meta(7, [16, 1000], ["goerli"])
        assert meta["seed"] == 7
        assert meta["users"] == [16, 1000]
        assert meta["host"] == host_fingerprint()
        assert isinstance(meta["git_sha"], str) and meta["git_sha"]


class TestDiffRuns:
    def test_identical_runs_have_no_findings(self):
        run = make_run()
        findings, compared = diff_runs(run, copy.deepcopy(run))
        assert findings == []
        assert compared > 0

    def test_wall_regression_fails_on_same_host(self):
        before = make_run()
        after = make_run()
        after["families"]["evm"]["points"][0]["profile"]["stages"]["vm.execute"][
            "wall_seconds"
        ] = 2.4
        findings, _ = diff_runs(before, after)
        assert [f.severity for f in findings] == ["fail"]
        assert findings[0].metric == "profile.vm.execute.wall_seconds"
        assert findings[0].delta_pct > 400

    def test_wall_regression_is_informational_across_hosts(self):
        before = make_run(host="laptop/arm64/Darwin")
        after = make_run(host="ci/x86_64/Linux", kernel_seconds=9.0)
        findings, _ = diff_runs(before, after)
        assert findings and all(f.severity == "info" for f in findings)

    def test_small_wall_deltas_stay_under_the_floor(self):
        before = make_run()
        after = make_run()
        # +900% relative but only 180ms absolute: under the 0.25s floor.
        before["families"]["evm"]["points"][0]["profile"]["stages"]["crypto.comb"][
            "wall_seconds"
        ] = 0.02
        stage = after["families"]["evm"]["points"][0]["profile"]["stages"]["crypto.comb"]
        stage["wall_seconds"] = 0.2
        findings, _ = diff_runs(before, after)
        assert findings == []

    def test_wall_improvement_never_trips(self):
        before = make_run()
        after = make_run(kernel_seconds=0.1)
        findings, _ = diff_runs(before, after)
        assert findings == []

    def test_sim_metric_drift_fails_even_across_hosts(self):
        before = make_run(host="laptop/arm64/Darwin")
        after = make_run(host="ci/x86_64/Linux")
        after["families"]["evm"]["points"][0]["end_to_end_seconds"]["p95"] = 80.0
        findings, _ = diff_runs(before, after)
        fails = [f for f in findings if f.severity == "fail"]
        assert [f.metric for f in fails] == ["end_to_end.p95"]

    def test_fee_drift_fails(self):
        before = make_run()
        after = make_run(fees_base_units_total=17000)
        findings, _ = diff_runs(before, after)
        assert any(f.metric == "fees_base_units_total" for f in findings)

    def test_journey_count_gates_exactly(self):
        before = make_run()
        after = make_run(journeys=15)
        findings, _ = diff_runs(before, after)
        assert any(f.metric == "journeys" and f.severity == "fail" for f in findings)

    def test_only_intersecting_points_compared(self):
        before = make_run(users=16)
        after = make_run(users=1000, kernel_seconds=99.0)
        findings, compared = diff_runs(before, after)
        assert findings == [] and compared == 0

    def test_thresholds_are_tunable(self):
        before = make_run()
        after = make_run(kernel_seconds=1.2)
        strict = Thresholds(wall_pct=0.1, wall_floor_s=0.01)
        findings, _ = diff_runs(before, after, strict)
        assert any(f.metric == "kernel_seconds" for f in findings)

    def test_render_findings_mentions_metric_and_delta(self):
        before = make_run()
        after = make_run()
        after["families"]["evm"]["points"][0]["kernel_seconds"] = 3.0
        findings, compared = diff_runs(before, after)
        text = render_findings(findings, compared, before["meta"], after["meta"])
        assert "kernel_seconds" in text
        assert "+200.0%" in text
        assert "abc123" in text

    def test_render_clean_diff(self):
        run = make_run()
        findings, compared = diff_runs(run, copy.deepcopy(run))
        text = render_findings(findings, compared, run["meta"], run["meta"])
        assert "no regressions" in text


class TestBatchedPoints:
    """Batched campaign points key and label separately from unbatched."""

    def test_same_users_different_batch_size_never_compared(self):
        before = make_run()
        after = make_run()
        after["families"]["evm"]["points"][0]["batch_size"] = 16
        after["families"]["evm"]["points"][0]["kernel_seconds"] = 99.0
        findings, compared = diff_runs(before, after)
        assert findings == [] and compared == 0

    def test_batched_metric_names_carry_the_suffix(self):
        before = make_run()
        before["families"]["evm"]["points"][0]["batch_size"] = 16
        after = copy.deepcopy(before)
        after["families"]["evm"]["points"][0]["journeys"] = 15
        after["families"]["evm"]["points"][0]["end_to_end_seconds"]["p95"] = 80.0
        findings, _ = diff_runs(before, after)
        assert sorted(f.metric for f in findings) == [
            "end_to_end.p95 [batch=16]",
            "journeys [batch=16]",
        ]

    def test_pre_batching_points_default_to_unbatched(self):
        # A history written before the batching layer has no batch_size
        # field; it must keep intersecting with new unbatched points.
        before = make_run()  # no batch_size key at all
        after = make_run()
        after["families"]["evm"]["points"][0]["batch_size"] = 1
        after["families"]["evm"]["points"][0]["journeys"] = 15
        findings, compared = diff_runs(before, after)
        assert compared > 0
        assert [f.metric for f in findings] == ["journeys"]  # no suffix at batch=1

    def test_mixed_run_compares_each_point_with_its_peer(self):
        def two_point_run(kernel_batched):
            run = make_run()
            batched = make_point(users=15, batch_size=16, kernel_seconds=kernel_batched)
            run["families"]["evm"]["points"].append(batched)
            return run

        findings, compared = diff_runs(two_point_run(1.0), two_point_run(9.0))
        assert compared > 0
        assert [f.metric for f in findings] == ["kernel_seconds [batch=16]"]


class TestBenchCli:
    def write_history(self, tmp_path, runs) -> str:
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps({"version": HISTORY_VERSION, "benchmark": "test", "runs": runs})
        )
        return str(path)

    def test_diff_passes_on_identical_runs(self, tmp_path):
        run = make_run(host=host_fingerprint())
        path = self.write_history(tmp_path, [run, copy.deepcopy(run)])
        assert main(["bench", "diff", "--bench", path]) == 0

    def test_diff_fails_on_same_host_wall_regression(self, tmp_path):
        before = make_run(host=host_fingerprint())
        after = make_run(host=host_fingerprint(), kernel_seconds=9.0)
        path = self.write_history(tmp_path, [before, after])
        assert main(["bench", "diff", "--bench", path]) == 1

    def test_diff_needs_two_runs(self, tmp_path):
        path = self.write_history(tmp_path, [make_run()])
        assert main(["bench", "diff", "--bench", path]) == 2

    def test_explicit_run_indices(self, tmp_path):
        good = make_run(host=host_fingerprint())
        bad = make_run(host=host_fingerprint(), kernel_seconds=9.0)
        path = self.write_history(tmp_path, [good, bad, copy.deepcopy(good)])
        # Default (-2 vs -1) recovers; 0 vs 1 shows the regression.
        assert main(["bench", "diff", "--bench", path]) == 0
        assert main(["bench", "diff", "--bench", path, "--before", "0", "--after", "1"]) == 1

    def test_list_prints_runs(self, tmp_path, capsys):
        path = self.write_history(tmp_path, [make_run()])
        assert main(["bench", "list", "--bench", path]) == 0
        out = capsys.readouterr().out
        assert "abc123" in out and "evm" in out

    def test_threshold_flags_reach_the_gate(self, tmp_path):
        before = make_run(host=host_fingerprint())
        after = make_run(host=host_fingerprint(), kernel_seconds=1.2)
        path = self.write_history(tmp_path, [before, after])
        assert main(["bench", "diff", "--bench", path]) == 0
        assert (
            main(
                ["bench", "diff", "--bench", path, "--wall-pct", "0.1", "--wall-floor", "0.01"]
            )
            == 1
        )
