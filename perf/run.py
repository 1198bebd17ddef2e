"""The repository benchmark: proof-of-location campaigns measured end to end and layer by layer.

One run of one workload (the form a benchmark harness calls):

    python3 perf/run.py --workload evm-10k --seed 1 --seconds 20 --trace 0

A set: every workload round-robin, ``--repeat`` times, saved for ``compare``:

    python3 perf/run.py --seed 1 --repeat 3 --out a.json [--trace-dir DIR]

Two sets, metric by metric, against the bounds in ``BENCHMARK.json``:

    python3 perf/run.py compare a.json b.json

Every campaign runs in a fresh single-threaded ``perf/campaign.py``
process, one at a time; this process only calibrates the host, schedules
campaigns and aggregates.  A run prints one ``workload metric value unit``
line per metric and, last, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  It exits non-zero when a correctness
check fails.  See ``perf/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, probe

ROOT = Path(__file__).resolve().parent.parent
CAMPAIGN = Path(__file__).with_name("campaign.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
BOUNDS = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
BETTER = {metric["name"]: metric["better"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}

#: set-up samples per run, at least (each campaign is one, set-up-only
#: processes fill the rest of the measuring window)
MIN_SETUPS = 4
#: wall seconds one campaign process may take before it is killed
CAMPAIGN_TIMEOUT_S = 150
#: simulated metrics a same-seed repeat may change, with the relative
#: tolerance: witnesses draw replay nonces from ``secrets`` and the EVM
#: prices their calldata bytes.
JITTER = {"fee_per_proof": 1e-4, "chain.gas_per_proof": 1e-4}
#: wave sizes of ``--smoke``: provers per wave, users per thesis campaign
SMOKE_PROVERS = {"thesis-seq": 8}
SMOKE_DEFAULT = 256


class BenchmarkError(Exception):
    """A campaign process failed: nothing to report."""


def iqr(values: list[float]) -> float:
    """Distance between the first and third quartiles (0 below two samples)."""
    if len(values) < 2:
        return 0.0
    first, _median, third = statistics.quantiles(values, n=4)
    return third - first


def campaign(workload: str, seed: int, *extra: str) -> dict:
    """Run ``perf/campaign.py`` in a fresh process and return its JSON."""
    pythonpath = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath), PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CAMPAIGN), "--workload", workload, "--seed", str(seed),
             "--spawned-at", repr(spawned), *extra],
            capture_output=True, text=True, timeout=CAMPAIGN_TIMEOUT_S, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} campaign exceeded {CAMPAIGN_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} campaign exited {proc.returncode}:\n{proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def size_args(workload: str, smoke: bool) -> list[str]:
    return ["--provers", str(SMOKE_PROVERS.get(workload, SMOKE_DEFAULT))] if smoke else []


def measure(workload: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """Untraced campaigns and set-ups filling a ``seconds`` window.

    Campaigns run back to back while the next one (as long as the last)
    still fits the window, at least one; set-up-only processes fill the
    rest, at least :data:`MIN_SETUPS` set-ups in all (one when ``smoke``).  A host-speed probe
    precedes every process; the processes probe too.
    """
    deadline = time.monotonic() + seconds
    min_setups = 1 if smoke else MIN_SETUPS
    samples: dict[str, list] = {"campaigns": [], "setups": [], "probes": []}

    def run(*args: str) -> dict:
        samples["probes"].append(probe())
        result = campaign(workload, seed, *args)
        samples["setups"].append(result["setup"])
        samples["probes"] += [result["setup"]["probe_s"], *result.get("probes_s", [])]
        return result

    last = 0.0
    while not samples["campaigns"] or time.monotonic() + last <= deadline:
        started = time.monotonic()
        samples["campaigns"].append(run(*size_args(workload, smoke)))
        last = time.monotonic() - started
    last = 0.0
    while len(samples["setups"]) < min_setups or time.monotonic() + last <= deadline:
        started = time.monotonic()
        run("--setup-only")
        last = time.monotonic() - started
    return samples


def summarise(workload: str, samples: dict) -> dict:
    """Medians over one run's samples: metrics, raw values, problems.

    ``setup_s`` and ``proofs_per_s`` are normalised by the run's median
    probe over :data:`calibrate.REFERENCE_S`; the raw medians ride along.
    """
    campaigns, setups = samples["campaigns"], samples["setups"]
    first = campaigns[0]
    problems = [p for c in campaigns for p in c["problems"]]
    for other in campaigns[1:]:
        problems += sim_differences(first["sim"], other["sim"])
    host = statistics.median(samples["probes"])
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "proofs_per_s": statistics.median(c["proofs"] / c["phases"]["campaign_s"] for c in campaigns),
    }
    metrics = {
        "setup_s": raw["setup_s"] * REFERENCE_S / host,
        "proofs_per_s": raw["proofs_per_s"] * host / REFERENCE_S,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in campaigns),
    }
    metrics.update({name: first["sim"][name] for name in ("proof_latency_p50_sim_s", "proof_latency_tail_sim_s",
                                                           "fee_per_proof")})
    # Per-layer: set-up steps and phases timed from outside (medians of
    # the untraced samples) and simulated counts; add_trace adds the stages.
    for name in ("reach.compile_s", "reach.lint_cold_s", "reach.lint_warm_s", "setup.import_s", "setup.chain_s"):
        metrics[name] = statistics.median(s[name] for s in setups)
    for name in first["phases"]:
        metrics[name] = statistics.median(c["phases"].get(name, 0.0) for c in campaigns)
    metrics.update({name: value for name, value in first["sim"].items() if name.startswith("chain.")})
    for call in first["calls_us"]:
        metrics[f"{call}.p50_us"] = statistics.median(c["calls_us"][call]["p50"] for c in campaigns)
        metrics[f"{call}.p99_us"] = statistics.median(c["calls_us"][call]["p99"] for c in campaigns)
    attempted = sum(c["attempted"] for c in campaigns)
    return {
        "workload": workload,
        "metrics": metrics,
        "raw": raw,
        "calibration_s": host,
        "campaigns": len(campaigns),
        "setups": len(setups),
        "probes": len(samples["probes"]),
        "attempted": attempted,
        "failed": attempted - sum(c["proofs"] for c in campaigns),
        "sim": first["sim"],
        "problems": problems,
    }


def add_trace(summary: dict, traced: dict, untraced_s: list[float]) -> None:
    """Fold one profiled campaign into a run's summary.

    Adds the stage self-times (``obs.profiler`` as ``trace.profiler_s``),
    ``trace.accounted_s`` (their sum plus the unattributed remainder),
    the traced campaign's wall time measured from outside, its overhead
    over the untraced median, and the per-call span percentiles.
    """
    profile = traced["profile"]
    stages = profile["stages"]
    metrics = summary["metrics"]
    metrics.update({f"{stage}_s": entry["wall_seconds"] for stage, entry in stages.items() if stage != "obs.profiler"})
    metrics["simnet.events"] = stages.get("simnet.dispatch", {}).get("calls", 0)
    metrics["trace.unattributed_s"] = profile["unattributed_wall_seconds"]
    metrics["trace.profiler_s"] = profile["profiler_overhead_seconds"]
    metrics["trace.accounted_s"] = (
        sum(entry["wall_seconds"] for entry in stages.values()) + profile["unattributed_wall_seconds"]
    )
    metrics["trace.campaign_s"] = traced["phases"]["campaign_s"]
    metrics["trace.overhead_ratio"] = traced["phases"]["campaign_s"] / statistics.median(untraced_s) - 1
    for call, stats in traced["calls_us"].items():
        metrics[f"trace.{call}.p50_us"] = stats["p50"]
        metrics[f"trace.{call}.p99_us"] = stats["p99"]
    summary["problems"] += traced["problems"] + sim_differences(summary["sim"], traced["sim"])


def sim_differences(expected: dict, actual: dict) -> list[str]:
    """Simulated metrics a same-seed campaign must reproduce."""
    problems = []
    for name, value in expected.items():
        other = actual.get(name)
        tolerance = JITTER.get(name, 0.0)
        if other != value and not (tolerance and abs(other - value) <= tolerance * abs(value)):
            problems.append(f"simulated {name} differs between same-seed campaigns: {value} vs {other}")
    return problems


# -- reporting ---------------------------------------------------------------------


def print_lines(summary: dict) -> None:
    workload = summary["workload"]
    for name, value in summary["metrics"].items():
        raw = summary["raw"].get(name)
        beside = f"  (raw {raw:.6g})" if raw is not None else ""
        print(f"{workload} {name} {value:.6g} {UNITS.get(name, unit_of(name))}{beside}")
    print(f"{workload} calibration_s {summary['calibration_s']:.6g} s  (reference {REFERENCE_S})")
    for problem in summary["problems"]:
        print(f"{workload} FAILED {problem}")


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_sim_s"):
        return "sim-s"
    return "s" if name.endswith("_s") else "count"


def result_line(summary: dict, trace: bool) -> dict:
    names = [m["name"] for m in (SPEC["per_layer"] if trace else SPEC["end_to_end"])]
    return {
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": summary["metrics"].get(name, 0.0), "unit": UNITS[name]} for name in names},
    }


def collate(runs: dict[str, list[dict]]) -> dict:
    """Per workload and metric: values across repeats, median and IQR."""
    collated = {}
    for workload, summaries in runs.items():
        names = dict.fromkeys(name for s in summaries for name in s["metrics"])
        collated[workload] = {
            name: {
                "unit": UNITS.get(name, unit_of(name)),
                "values": [s["metrics"][name] for s in summaries if name in s["metrics"]],
            }
            for name in names
        }
        for entry in collated[workload].values():
            entry["median"] = statistics.median(entry["values"])
            entry["iqr"] = iqr(entry["values"])
    return collated


# -- compare -------------------------------------------------------------------------


def verdict(name: str, base: dict, change: dict) -> tuple[str, float | None]:
    """agree / regress / improve / unresolved (info: unbounded and moved), and the change as a share."""
    if not base["median"]:
        return ("agree" if not change["median"] else "info"), None
    share = (change["median"] - base["median"]) / abs(base["median"])
    worse = share if BETTER.get(name, "lower") == "lower" else -share
    bound = BOUNDS.get(name)
    if bound is None:
        return ("agree" if share == 0 else "info"), share
    spread = max(base["iqr"] / abs(base["median"]), change["iqr"] / abs(change["median"]))
    if spread > bound:
        return "unresolved", share
    if worse > bound:
        return "regress", share
    if worse < -bound:
        return "improve", share
    return "agree", share


def compare(base_path: str, change_path: str) -> int:
    """Print a per-(workload, metric) comparison; 1 if anything regressed."""
    base = json.loads(Path(base_path).read_text())
    change = json.loads(Path(change_path).read_text())
    ratio = statistics.median(base["calibration_s"]) / statistics.median(change["calibration_s"])
    print(f"calibration: base {statistics.median(base['calibration_s']):.6g} s, "
          f"change {statistics.median(change['calibration_s']):.6g} s, ratio {ratio:.4f}")
    print(f"{'workload':16} {'metric':34} {'base median':>14} {'iqr':>10} {'change median':>14} "
          f"{'iqr':>10} {'change':>9} {'bound':>7}  verdict")
    regressed = False
    for workload in base["metrics"]:
        if workload not in change["metrics"]:
            continue
        for name, entry in base["metrics"][workload].items():
            other = change["metrics"][workload].get(name)
            if other is None:
                continue
            outcome, share = verdict(name, entry, other)
            regressed |= outcome == "regress"
            shown = f"{share:+.2%}" if share is not None else "-"
            bound = f"{BOUNDS[name]:.1%}" if name in BOUNDS else "-"
            print(f"{workload:16} {name:34} {entry['median']:14.6g} {entry['iqr']:10.4g} "
                  f"{other['median']:14.6g} {other['iqr']:10.4g} {shown:>9} {bound:>7}  {outcome}")
    return 1 if regressed else 0


# -- entry point -------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: perf/run.py compare BASE.json CHANGE.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one run of one workload (default: a set of all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"], help="measuring window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a profiled campaign and report the per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, help="where traced runs write their profiles and spans")
    parser.add_argument("--repeat", type=int, default=3, help="runs per workload in a set")
    parser.add_argument("--out", type=Path, help="write the runs and their medians as JSON")
    parser.add_argument("--smoke", action="store_true", help="tiny campaigns and one set-up each, for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: no system under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    trace = bool(args.trace) or args.trace_dir is not None
    trace_dir = args.trace_dir or ROOT / ".perf_results" / "trace"
    workloads = [args.workload] if args.workload else WORKLOADS
    repeat = 1 if args.workload else args.repeat

    runs: dict[str, list[dict]] = {workload: [] for workload in workloads}
    untraced_s: dict[str, list[float]] = {workload: [] for workload in workloads}
    try:
        campaign("evm-10k", args.seed, "--setup-only")  # builds the native comb, warms the page cache
        for _ in range(repeat):
            for workload in workloads:
                samples = measure(workload, args.seed, args.seconds, args.smoke)
                runs[workload].append(summarise(workload, samples))
                untraced_s[workload] += [c["phases"]["campaign_s"] for c in samples["campaigns"]]
        if trace:
            # One profiled campaign per workload, apart from the untraced
            # runs; its overhead is judged against their median.
            for workload in workloads:
                traced = campaign(workload, args.seed, "--trace-dir", str(trace_dir),
                                  *size_args(workload, args.smoke))
                add_trace(runs[workload][-1], traced, untraced_s[workload])
    except BenchmarkError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1
    for summaries in runs.values():
        for summary in summaries[1:]:
            summary["problems"] += sim_differences(summaries[0]["sim"], summary["sim"])

    summaries = [s for per in runs.values() for s in per]
    for summary in summaries:
        print_lines(summary)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "seed": args.seed, "repeat": repeat, "seconds": args.seconds, "reference_s": REFERENCE_S,
            "calibration_s": [s["calibration_s"] for s in summaries],
            "metrics": collate(runs), "runs": runs,
        }, indent=1))
    correct = all(not s["problems"] for s in summaries)
    if args.workload:
        print(json.dumps(result_line(summaries[0], bool(args.trace))))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
