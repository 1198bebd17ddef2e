"""Smoke test of the benchmark: ``pytest perf/`` (under a minute).

Runs one set of every workload at smoke size, with the traced run, and
checks the contract the harness relies on: every metric BENCHMARK.json
names is emitted with its declared unit, the correctness gate passes,
and ``compare`` flags a throughput loss beyond the bound as a regression.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(PERF))

import run  # noqa: E402  (perf/run.py)


def perf(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(PERF / "run.py"), *args], capture_output=True, text=True, cwd=ROOT, timeout=170
    )


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("perf")
    proc = perf("--smoke", "--repeat", "1", "--seconds", "0", "--out", str(out / "set.json"),
                "--trace-dir", str(out / "trace"))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return out


def test_every_declared_metric_is_emitted_with_its_unit(smoke_set):
    result = json.loads((smoke_set / "set.json").read_text())
    assert sorted(result["metrics"]) == sorted(run.WORKLOADS)
    for workload, metrics in result["metrics"].items():
        for declared in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert declared["name"] in metrics, (workload, declared["name"])
            assert metrics[declared["name"]]["unit"] == declared["unit"], (workload, declared["name"])
        for trace in (False, True):
            line = run.result_line(result["runs"][workload][-1], trace)
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
            names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
            assert list(line["metrics"]) == names


def test_traced_run_exports_and_reconciles(smoke_set):
    result = json.loads((smoke_set / "set.json").read_text())
    for workload in run.WORKLOADS:
        assert (smoke_set / "trace" / f"{workload}.speedscope.json").is_file()
        spans = json.loads((smoke_set / "trace" / f"{workload}.spans.trace.json").read_text())
        assert any(event["name"] == "campaign" for event in spans["traceEvents"])
        metrics = result["runs"][workload][-1]["metrics"]
        # Stage self-times plus the unattributed remainder tile the traced campaign.
        assert metrics["trace.accounted_s"] == pytest.approx(metrics["trace.campaign_s"], rel=1e-3)


def test_compare_flags_a_throughput_loss_as_regress(smoke_set):
    base = smoke_set / "set.json"
    slowed = json.loads(base.read_text())
    factor = 1 - 1.5 * run.BOUNDS["proofs_per_s"]
    for metrics in slowed["metrics"].values():
        entry = metrics["proofs_per_s"]
        entry["values"] = [value * factor for value in entry["values"]]
        entry["median"] *= factor
        entry["iqr"] *= factor
    changed = smoke_set / "slowed.json"
    changed.write_text(json.dumps(slowed))

    proc = perf("compare", str(base), str(changed))
    assert proc.returncode == 1
    rows = [line.split() for line in proc.stdout.splitlines() if " proofs_per_s " in line]
    assert len(rows) == len(run.WORKLOADS)
    assert all(row[-1] == "regress" for row in rows)

    same = perf("compare", str(base), str(base))
    assert same.returncode == 0
    assert "regress" not in same.stdout and "unresolved" not in same.stdout


def test_verdicts_follow_the_bound_and_the_spread():
    name = "proofs_per_s"  # higher is better
    bound = run.BOUNDS[name]
    base = {"median": 100.0, "iqr": 0.0}
    assert run.verdict(name, base, {"median": 100.0 * (1 + bound / 2), "iqr": 0.0})[0] == "agree"
    assert run.verdict(name, base, {"median": 100.0 * (1 + 2 * bound), "iqr": 0.0})[0] == "improve"
    assert run.verdict(name, base, {"median": 100.0 * (1 - 2 * bound), "iqr": 0.0})[0] == "regress"
    noisy = {"median": 100.0, "iqr": 100.0 * 2 * bound}
    assert run.verdict(name, noisy, {"median": 50.0, "iqr": 0.0})[0] == "unresolved"


def test_golden_digests_pin_the_committed_csvs():
    committed = ROOT / "benchmarks" / "output"
    if not committed.is_dir():
        pytest.skip("no committed benchmark outputs in this checkout")
    import hashlib

    for line in (PERF / "thesis_seq_seed1.sha256").read_text().splitlines():
        digest, name = line.split()
        assert hashlib.sha256((committed / name).read_bytes()).hexdigest() == digest, name


def test_without_the_system_it_fails_without_a_result(tmp_path):
    bare = tmp_path
    (bare / "perf").mkdir()
    for path in PERF.glob("*.py"):
        (bare / "perf" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "evm-10k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
