"""Command-line front door: ``python -m repro <command>``.

A scriptable counterpart of the thesis's console frontend (section
4.5's ``reach run`` flows), driving the in-process simulators:

    python -m repro demo                 # the quickstart PoL pipeline
    python -m repro simulate goerli 16   # one chapter-5 measurement run
    python -m repro analyze              # traced journeys + BENCH_pol.json
    python -m repro compare              # tables across the three networks
    python -m repro verify-contract      # compile + theorem report + analysis
    python -m repro lint contracts/      # static-analysis findings gate
    python -m repro attacks              # run the attack gauntlet
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.metrics import render_bar_chart, render_table, summarize
from repro.bench.simulation import run_simulation
from repro.chain.params import PROFILES


def _cmd_demo(_args) -> int:
    from repro.chain.ethereum import EthereumChain
    from repro.core.proof import ProofFailure
    from repro.core.system import ProofOfLocationSystem

    chain = EthereumChain(profile="eth-devnet", seed=1, validator_count=4)
    system = ProofOfLocationSystem(chain=chain, reward=10_000, max_users=2)
    system.register_prover("anna", 44.4949, 11.3426, funding=10**18)
    system.register_prover("bruno", 44.4949, 11.3426, funding=10**18)
    system.register_witness("walter", 44.4949, 11.3428)
    system.register_verifier("vera", funding=10**18)
    for name in ("anna", "bruno"):
        request, proof, cid = system.request_location_proof(name, "walter", f"report by {name}".encode())
        outcome = system.submit(name, request, proof)
        action = "deployed" if outcome.was_deploy else "attached"
        print(f"{name}: {action} at {outcome.olc} in {outcome.operation.latency:.1f}s (CID {cid[:16]}...)")
    olc = system.provers["anna"].olc
    system.fund_contract("vera", olc, 20_000)
    for name in ("anna", "bruno"):
        outcome = system.verify_and_reward("vera", olc, system.provers[name].did_uint)
        print(f"{name}: verification {outcome.value}")
        if outcome is not ProofFailure.OK:
            return 1
    print(f"published reports at {olc}: {len(system.display_reports(olc))}")
    return 0


def _print_watchtower(watchtower, show_slo: bool) -> int:
    """Render a finished watchtower's outcome; exit code 1 on violations."""
    summary = watchtower.summary()
    fired = ", ".join(summary["alerts_fired"]) if summary["alerts_fired"] else "none"
    proofs = summary["proofs"]
    print(
        f"watchtower: {len(summary['violations'])} violation(s), "
        f"alerts fired: {fired}, proofs anchored: {proofs['resolved']}/{proofs['tracked']}"
    )
    for violation in summary["violations"]:
        print(f"  violation: {violation}")
    if show_slo:
        print("SLOs:")
        for name, alert in summary["alerts"].items():
            value = alert["last_value"]
            shown = "-" if value is None else f"{value:.3f}"
            print(
                f"  {name:<22} state={alert['state']:<9} fired={alert['times_fired']} "
                f"last={shown:<10} {alert['description']}"
            )
    for path in watchtower.flight.bundle_paths:
        print(f"  post-mortem bundle: {path} (render with `repro postmortem {path}`)")
    return 1 if summary["violations"] else 0


def _cmd_simulate(args) -> int:
    if args.network not in PROFILES:
        print(f"unknown network {args.network!r}; choose from {sorted(PROFILES)}", file=sys.stderr)
        return 2
    monitored = args.monitor or args.slo
    recorder = None
    if args.trace or args.metrics or args.report or args.faults is not None or monitored:
        from repro.obs import Recorder

        recorder = Recorder()
    watchtower = None
    if monitored:
        from repro.obs.monitor import Watchtower

        watchtower = Watchtower(recorder, out_dir=args.bundle_dir)
    if args.faults is not None:
        # Chaos mode: concurrent run under an active fault plan, with
        # the end-to-end resilience invariants asserted (exits nonzero
        # through ChaosError if any are violated).
        from repro.faults import run_chaos

        report = run_chaos(
            args.network, args.users, seed=args.seed, fault_seed=args.faults,
            recorder=recorder, watchtower=watchtower,
        )
        print(report.summary())
        print()
        result = report.result
    else:
        # A monitored run (--monitor or --slo) is always concurrent.
        result = run_simulation(
            args.network, args.users, seed=args.seed, recorder=recorder,
            concurrent=args.concurrent or monitored, watchtower=watchtower,
        )
    print(render_bar_chart(f"{args.network}: {args.users} users", result.per_user_series()))
    print()
    rows = [
        summarize(args.network, "deploy", result.deploys()),
        summarize(args.network, "attach", result.attaches()),
    ]
    print(render_table(f"{args.network} | {args.users} users (deploy, attach)", rows))
    if recorder is not None:
        from repro.obs import write_chrome_trace, write_prometheus

        if args.trace:
            write_chrome_trace(recorder, args.trace)
            print(f"trace written to {args.trace} (open in https://ui.perfetto.dev)")
        if args.metrics:
            write_prometheus(recorder, args.metrics)
            print(f"metrics written to {args.metrics}")
        if args.report:
            from repro.obs import reconstruct_journeys, render_report

            # Bench runs trace at the operation layer; analyse each
            # user's deploy/attach trace as its own journey.
            ops = reconstruct_journeys(recorder, roots=("deploy:", "attach", "call:"))
            rendered = render_report(ops, title=f"{args.network} operation critical path")
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
            print(rendered)
            print(f"report written to {args.report}")
    if watchtower is not None:
        watchtower.finish()
        return _print_watchtower(watchtower, show_slo=args.slo)
    return 0


def _cmd_postmortem(args) -> int:
    """Render a flight-recorder post-mortem bundle."""
    import json

    from repro.obs.flight import load_bundle, render_bundle

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot read bundle {args.bundle!r}: {exc}", file=sys.stderr)
        return 2
    try:
        print(render_bundle(bundle, ring_tail=args.tail))
    except BrokenPipeError:
        # the reader (head, less) closed the pipe early; not an error
        sys.stderr.close()
    return 0


#: sweep-mode user counts; 100k only behind ``--allow-100k``
SWEEP_POINTS = (16, 1000, 10000)


def _auto_sample_every(users: int) -> int:
    """Journey-sampling stride: trace all small runs, every Nth at scale."""
    if users <= 2_000:
        return 1
    if users <= 20_000:
        return 10
    return 100


def _check_batch_point(network: str, batch: int, recorder, point: dict) -> list[str]:
    """Containment check for one batched analyze point.

    Reads the aggregator's receipt extremes back out of the recorder's
    gauges, records them in the point's ``batch`` block, and checks them
    against the ``COST-BATCH-AMORTIZED`` intervals
    (:func:`repro.bench.bounds.check_batched_point`).  Returns rendered
    violations (run-failing validation problems).
    """
    from repro.bench.bounds import check_batched_point
    from repro.core.contract import build_pol_program
    from repro.reach.compiler import compile_program

    def gauge(name: str) -> int:
        series = recorder.gauge_series(name)
        return int(series[-1][1]) if series else 0

    measured = {
        "batches": int(recorder.counter_value("batch_anchored_total")),
        "gas_min": gauge("batch_insert_gas_min"),
        "gas_max": gauge("batch_insert_gas_max"),
        "fee_min": gauge("batch_insert_fee_min"),
        "fee_max": gauge("batch_insert_fee_max"),
    }
    point["batch"] = {
        **measured,
        "proofs_anchored": int(recorder.counter_value("batch_proofs_anchored_total")),
        "light_verified": int(recorder.counter_value("light_verify_total")),
    }
    compiled = compile_program(build_pol_program(max_users=batch))
    bounds = check_batched_point(compiled, PROFILES[network], batch - 1, measured)
    return [f"batch bounds: {violation.render()}" for violation in bounds.violations]


def _report_amortization(network: str, points: list[dict]) -> bool:
    """Print per-proof amortization ratios for one family's points.

    Returns False when a batched point of size >= 16 misses the 5x
    acceptance bar against the family's unbatched point.
    """
    base = next((p for p in points if p.get("batch_size", 1) == 1), None)
    batched = [p for p in points if p.get("batch_size", 1) > 1]
    if base is None or not batched:
        return True
    ok = True
    for point in batched:
        per = point["fees_per_proof_base_units"]
        ratio = (base["fees_per_proof_base_units"] / per) if per else float("inf")
        print(
            f"{network} batch={point['batch_size']}: amortized per-proof fee "
            f"{per:.1f} vs unbatched {base['fees_per_proof_base_units']:.1f} "
            f"({ratio:.2f}x cheaper)"
        )
        if point["batch_size"] >= 16 and ratio < 5.0:
            print(f"  FAIL: amortization {ratio:.2f}x is below the 5x acceptance bar")
            ok = False
    return ok


def _cmd_analyze(args) -> int:
    """Traced proof-journey runs on both families + ``BENCH_pol.json``.

    Fails (exit 1) if any journey is incomplete: orphan spans, spans
    left open, a critical path that does not tile the end-to-end time,
    or a missing mempool/confirm stage.

    ``--sweep`` replaces the single ``--users`` run with the scaling
    trajectory {16, 1000, 10000} (plus 100000 with ``--allow-100k``);
    every point records its kernel wall-clock seconds so BENCH_pol.json
    carries the scaling curve per family.

    ``--batch-size N`` adds the Merkle proof-batching pipeline: an
    extra point per family runs the batched campaign (one
    ``insert_batch`` per group of N users) next to the unbatched one,
    its anchoring receipts are checked against the
    ``COST-BATCH-AMORTIZED`` intervals, and the amortized per-proof fee
    must undercut the unbatched point at least 5x for N >= 16.
    Combined with ``--sweep``, batch sizes {1, 2, 4, ...} up to N are
    swept at the fixed ``--users`` count (the cost-vs-batch-size
    chart's data).

    Every point also runs under a stage profiler: per-stage wall-clock
    and sim-time self times (plus the profiler's own overhead as the
    ``obs.profiler`` stage) land in the point's ``profile`` block, the
    tail-latency bucket exemplars in ``latency_exemplars``, and
    ``--profiles DIR`` additionally writes the point's speedscope
    profile, the one profile export.  The run is *appended* to the
    ``--bench`` history (git sha, seed, host in the run metadata) --
    compare runs with ``repro bench diff``.
    """
    import os
    import time

    from repro.bench.simulation import run_traced_journeys
    from repro.obs import bench_summary, histogram_exemplars, render_report, validate_journeys
    from repro.obs.prof import Profiler, write_speedscope
    from repro.obs.regress import append_run, run_meta

    if args.sweep:
        user_counts = list(SWEEP_POINTS) + ([100_000] if args.allow_100k else [])
    else:
        user_counts = [args.users]
    # (users, batch_size) per run; batch_size 1 is the unbatched campaign.
    if args.sweep and args.batch_size:
        sizes = sorted({1} | {2 ** k for k in range(1, 20) if 2 ** k < args.batch_size} | {args.batch_size})
        run_specs = [(args.users, size) for size in sizes]
        user_counts = [args.users]
    elif args.batch_size:
        run_specs = [(args.users, 1), (args.users, args.batch_size)]
    else:
        run_specs = [(users, 1) for users in user_counts]
    sections: list[str] = []
    families: dict = {}
    failed = False
    if args.profiles:
        os.makedirs(args.profiles, exist_ok=True)
    for network in args.networks:
        if network not in PROFILES:
            print(f"unknown network {network!r}; choose from {sorted(PROFILES)}", file=sys.stderr)
            return 2
        family = PROFILES[network].family
        points: list[dict] = []
        for users, batch in run_specs:
            # Whole groups only in batched runs (mirrors the workload's trim).
            effective = users if batch == 1 else max(batch, users - users % batch)
            sample_every = args.sample_every or _auto_sample_every(effective)
            profiler = Profiler()
            started = time.perf_counter()
            report, recorder = run_traced_journeys(
                network,
                effective,
                seed=args.seed,
                sample_every=sample_every,
                profiler=profiler,
                batch_size=None if batch == 1 else batch,
            )
            kernel_seconds = time.perf_counter() - started
            profile = profiler.profile()
            problems = validate_journeys(report)
            summary = bench_summary(report, recorder)
            point = {
                "users": effective,
                "batch_size": batch,
                "kernel_seconds": round(kernel_seconds, 3),
                "sample_every": sample_every,
                **summary,
                "fees_per_proof_base_units": round(
                    summary["fees_base_units_total"] / max(1, effective), 3
                ),
                "validation_problems": problems,
                "profile": profile,
                "latency_exemplars": histogram_exemplars(recorder, "chain_tx_latency_seconds"),
            }
            if batch > 1:
                problems.extend(_check_batch_point(network, batch, recorder, point))
            points.append(point)
            label = f"users={effective}" + (f" batch={batch}" if batch > 1 else "")
            print(
                f"{network} {label}: kernel {kernel_seconds:.2f}s, "
                f"{point['journeys']} journeys traced (every {sample_every}), "
                f"{len(problems)} problem(s)"
            )
            top = sorted(
                profile["stages"].items(), key=lambda kv: -kv[1]["wall_seconds"]
            )[:5]
            shares = ", ".join(
                f"{stage} {row['wall_seconds']:.3f}s" for stage, row in top
            )
            print(
                f"  profile: {shares}; overhead "
                f"{profile['profiler_overhead_ratio'] * 100:.1f}%"
            )
            if args.profiles:
                suffix = f"-batch{batch}" if batch > 1 else ""
                path = os.path.join(args.profiles, f"{network}-{effective}{suffix}.speedscope.json")
                write_speedscope(profiler, path, name=f"{network} {effective} users{suffix}")
                print(f"  flamegraph: {path}")
            if problems:
                failed = True
            if (users, batch) == run_specs[0]:
                # The critical-path report for the base point; larger
                # points are represented by their summary statistics.
                rendered = render_report(report, title=f"{network} proof-journey critical path")
                if problems:
                    rendered += "\n  INCOMPLETE JOURNEYS:\n" + "\n".join(
                        f"    - {problem}" for problem in problems
                    )
                sections.append(rendered)
        if args.batch_size:
            if not _report_amortization(network, points):
                failed = True
        families[family] = {"network": network, "points": points}
    text = "\n\n".join(sections)
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\nreport written to {args.report}")
    history = append_run(args.bench, run_meta(args.seed, user_counts, list(args.networks)), families)
    print(
        f"benchmark run appended to {args.bench} "
        f"({len(history['runs'])} run(s) in history)"
    )
    return 1 if failed else 0


def _cmd_bench(args) -> int:
    """Inspect and gate the benchmark history (``BENCH_pol.json``).

    ``repro bench list`` shows every recorded run; ``repro bench diff``
    compares two runs (by default the last two) with noise-aware
    thresholds and exits 1 when a regression beyond them is found --
    the CI perf gate.  Wall-clock metrics gate only between runs from
    the same host; deterministic simulated metrics always gate.
    """
    from repro.obs.regress import Thresholds, diff_runs, load_history, render_findings

    history = load_history(args.bench)
    runs = history.get("runs", [])
    if args.action == "list":
        if not runs:
            print(f"no runs recorded in {args.bench}")
            return 0
        for index, run in enumerate(runs):
            meta = run.get("meta", {})
            family_names = ",".join(sorted(run.get("families", {})))
            print(
                f"[{index}] sha={str(meta.get('git_sha', '?'))[:12]} "
                f"seed={meta.get('seed', '?')} users={meta.get('users', [])} "
                f"families={family_names} host={meta.get('host', '?')}"
            )
        return 0
    if len(runs) < 2:
        print(
            f"bench diff needs at least two runs in {args.bench} "
            f"(found {len(runs)}); run `repro analyze` to append one",
            file=sys.stderr,
        )
        return 2
    before = runs[args.before]
    after = runs[args.after]
    thresholds = Thresholds(
        wall_pct=args.wall_pct,
        wall_floor_s=args.wall_floor,
        sim_pct=args.sim_pct,
    )
    findings, compared = diff_runs(before, after, thresholds)
    print(render_findings(findings, compared, before.get("meta", {}), after.get("meta", {})))
    failures = [finding for finding in findings if finding.severity == "fail"]
    return 1 if failures else 0


def _cmd_compare(args) -> int:
    networks = ("goerli", "polygon-mumbai", "algorand-testnet")
    for operation in ("deploy", "attach"):
        rows = []
        for network in networks:
            result = run_simulation(network, args.users, seed=args.seed)
            timings = result.deploys() if operation == "deploy" else result.attaches()
            rows.append(summarize(network, operation, timings))
        print(render_table(f"{operation.capitalize()} | {args.users} users", rows))
        print()
    return 0


def _cmd_verify_contract(args) -> int:
    from repro.core.contract import build_pol_program
    from repro.reach.absint.cost import analyze_costs
    from repro.reach.compiler import compile_program
    from repro.reach.parser import ParseError, parse_contract_file

    if getattr(args, "source", None):
        try:
            program = parse_contract_file(args.source)
        except (ParseError, OSError) as exc:
            print(f"cannot compile {args.source}: {exc}", file=sys.stderr)
            return 2
    else:
        program = build_pol_program()
    compiled = compile_program(program, check=False)
    print(compiled.verification.summary())
    print()
    print(analyze_costs(compiled).conservative_analysis(compiled))
    print()
    print(
        f"artifacts: EVM {compiled.evm_code.byte_size()} bytes "
        f"({len(compiled.evm_code.instrs)} instructions), "
        f"TEAL {len(compiled.teal_source.splitlines())} lines"
    )
    return 0 if compiled.verification.ok else 1


def _cmd_lint(args) -> int:
    """Static-analysis gate: abstract interpretation + equivalence + verifier.

    Exit codes: 0 clean (info-only findings allowed), 1 any error- or
    warning-severity finding, 2 usage or internal failure (bad path,
    ``--mc-depth`` below 1, a mutation index the artifact does not have,
    analyzer crash).  Parse and verification failures are *findings*,
    not crashes, so a broken contract exits 1 with a readable report.
    """
    import json as json_mod
    from dataclasses import replace
    from pathlib import Path

    from repro.reach.absint import (
        drop_teal_store,
        lint_compiled,
        neutralize_evm_sstore,
        weaken_replay_screen,
    )
    from repro.reach.absint.lint import Finding, LintReport
    from repro.reach.compiler import CompileError, compile_program
    from repro.reach.parser import ParseError, parse_contract_file

    sources: list[Path] = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            sources.extend(sorted(path.glob("*.rsh")))
        elif path.is_file():
            sources.append(path)
        else:
            print(f"lint: no such file or directory: {raw}", file=sys.stderr)
            return 2
    if not sources:
        print("lint: no .rsh contracts found", file=sys.stderr)
        return 2

    reports: list[LintReport] = []
    worst = 0
    for path in sources:
        name = str(path)
        try:
            try:
                program = parse_contract_file(name)
            except ParseError as exc:
                span = getattr(exc, "span", None)
                report = LintReport(
                    contract=path.stem,
                    source=name,
                    findings=[
                        Finding("error", "PARSE-ERROR", str(exc), source=name, span=span)
                    ],
                )
                reports.append(report)
                worst = max(worst, 1)
                continue
            # check=False: verification/equivalence failures must surface
            # as findings with exit 1, not abort the whole lint run.
            compiled = compile_program(program, check=False)
            # A mutation index the artifact lacks is a usage error: exit 1
            # would read as "the seeded mutation was caught".
            try:
                if args.mutate_teal_drop is not None:
                    mutated = drop_teal_store(compiled.teal_source, args.mutate_teal_drop)
                    compiled = replace(compiled, teal_source=mutated, _lint=None)
                if args.mutate_evm_sstore is not None:
                    mutated = neutralize_evm_sstore(compiled.evm_code, args.mutate_evm_sstore)
                    compiled = replace(compiled, evm_code=mutated, _lint=None)
                if args.mutate_reorder is not None:
                    # Protocol self-test: strip the Nth replay screen from
                    # BOTH artifacts (backends stay equivalent) so only the
                    # model checker's interleaving sweep can catch it.
                    compiled = weaken_replay_screen(compiled, args.mutate_reorder)
            except ValueError as exc:
                print(f"lint: {name}: {exc}", file=sys.stderr)
                return 2
            report = lint_compiled(compiled, source=name, mc_depth=args.mc_depth)
        except (CompileError, ValueError) as exc:
            report = LintReport(
                contract=path.stem,
                source=name,
                findings=[Finding("error", "LINT-INTERNAL", str(exc), source=name)],
            )
        reports.append(report)
        worst = max(worst, report.exit_code)

    if args.json:
        payload = [
            {
                "contract": report.contract,
                "source": report.source,
                "exit_code": report.exit_code,
                "findings": [
                    {
                        "severity": f.severity,
                        "theorem": f.theorem,
                        "message": f.message,
                        "span": list(f.span) if f.span else None,
                        "data": f.data,
                    }
                    for f in report.findings
                ],
                "costs": None
                if report.costs is None
                else {
                    name: {
                        "evm_gas": [entry.evm_gas.lo, entry.evm_gas.hi],
                        "teal_ops": [entry.teal_ops.lo, entry.teal_ops.hi],
                        "avm_pool": [entry.avm_pool.lo, entry.avm_pool.hi],
                    }
                    for name, entry in report.costs.entries.items()
                },
            }
            for report in reports
        ]
        print(json_mod.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n\n".join(report.render() for report in reports))
    return worst


def _cmd_report(args) -> int:
    """A full chapter-5-style measurement report to stdout."""
    networks = ("goerli", "polygon-mumbai", "algorand-testnet")
    print("# Measurement report (calibrated simulators)\n")
    for users in (16, 32):
        for operation in ("deploy", "attach"):
            rows = []
            for network in networks:
                result = run_simulation(network, users, seed=args.seed)
                timings = result.deploys() if operation == "deploy" else result.attaches()
                rows.append(summarize(network, operation, timings))
            print(render_table(f"{operation.capitalize()} | {users} users", rows))
            print()
    print("EUR at the paper's Nov 17 2022 rates; fees summed per operation class.")
    return 0


def _cmd_attacks(_args) -> int:
    from repro.chain.ethereum import EthereumChain
    from repro.core.attacks import run_all_attacks
    from repro.core.system import ProofOfLocationSystem

    chain = EthereumChain(profile="eth-devnet", seed=13, validator_count=4)
    system = ProofOfLocationSystem(chain=chain, reward=5_000, max_users=4)
    system.register_prover("mallory", 44.4949, 11.3426, funding=10**18)
    system.register_witness("walter", 44.4949, 11.3428)
    system.register_witness("remota", 45.4949, 12.3426)
    system.register_verifier("vera", funding=10**18)
    outcomes = run_all_attacks(system, "mallory", "walter", "remota", "vera")
    for outcome in outcomes:
        status = "SUCCEEDED" if outcome.succeeded else "defeated "
        print(f"{status} {outcome.attack:20} {outcome.detail}")
    return 0 if all(not o.succeeded for o in outcomes) else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("demo", help="run the quickstart PoL pipeline")

    simulate = subparsers.add_parser("simulate", help="run one evaluation workload")
    simulate.add_argument("network", help="network profile (e.g. goerli, algorand-testnet)")
    simulate.add_argument("users", type=int, nargs="?", default=16)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument(
        "--concurrent", action="store_true",
        help="pipeline the attachers on one event queue (the thesis's threaded mode)",
    )
    simulate.add_argument(
        "--faults", type=int, default=None, metavar="SEED",
        help="chaos mode: run concurrently under a seeded fault plan and "
        "assert the resilience invariants (implies --concurrent)",
    )
    simulate.add_argument(
        "--trace", nargs="?", const="out.trace.json", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON of the run (default: out.trace.json)",
    )
    simulate.add_argument(
        "--metrics", nargs="?", const="out.prom", default=None, metavar="PATH",
        help="write the run's metrics in Prometheus text format (default: out.prom)",
    )
    simulate.add_argument(
        "--report", nargs="?", const="out.report.txt", default=None, metavar="PATH",
        help="write a per-operation critical-path report of the run "
        "(default: out.report.txt)",
    )
    simulate.add_argument(
        "--monitor", action="store_true",
        help="attach the watchtower: online invariants at every block "
        "boundary, SLO alerting, and flight-recorder post-mortem bundles "
        "on violations/firing alerts (implies --concurrent; exits 1 on "
        "an invariant violation)",
    )
    simulate.add_argument(
        "--slo", action="store_true",
        help="print the full per-alert SLO state table after the run "
        "(implies --monitor)",
    )
    simulate.add_argument(
        "--bundle-dir", default="postmortems", metavar="DIR",
        help="directory for post-mortem bundles written by --monitor "
        "(default: postmortems)",
    )

    postmortem = subparsers.add_parser(
        "postmortem", help="render a flight-recorder post-mortem bundle"
    )
    postmortem.add_argument("bundle", help="path to a postmortem-NNN.json bundle")
    postmortem.add_argument(
        "--tail", type=int, default=12, metavar="N",
        help="flight-ring entries to show from the end (default: 12)",
    )

    analyze = subparsers.add_parser(
        "analyze",
        help="traced proof-journey runs (both families) + critical-path report "
        "and BENCH_pol.json; fails on incomplete journeys",
    )
    analyze.add_argument("--users", type=int, default=16)
    analyze.add_argument("--seed", type=int, default=1)
    analyze.add_argument(
        "--sweep", action="store_true",
        help="run the scaling trajectory {16, 1000, 10000} instead of one "
        "--users point, recording kernel wall-clock seconds per point",
    )
    analyze.add_argument(
        "--allow-100k", action="store_true",
        help="extend --sweep with a 100000-user point (minutes of wall clock)",
    )
    analyze.add_argument(
        "--sample-every", type=int, default=None, metavar="N",
        help="trace every Nth user's journey and mute the rest (default: "
        "auto -- 1 up to 2k users, 10 up to 20k, 100 beyond)",
    )
    analyze.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="also run the Merkle proof-batching pipeline (groups of N "
        "users, one insert_batch anchoring N-1 proofs per group) and "
        "record an extra batched point per family; with --sweep, sweeps "
        "batch sizes {1, 2, 4, ...} up to N at the fixed --users count "
        "and charts cost vs batch size instead of the user trajectory",
    )
    analyze.add_argument(
        "--networks", nargs="+", default=["goerli", "algorand-testnet"],
        help="network profiles to trace (default: goerli algorand-testnet)",
    )
    analyze.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the rendered journey report to PATH",
    )
    analyze.add_argument(
        "--bench", default="BENCH_pol.json", metavar="PATH",
        help="append the run to this benchmark history file "
        "(default: BENCH_pol.json)",
    )
    analyze.add_argument(
        "--profiles", default=None, metavar="DIR",
        help="also write one speedscope flamegraph profile per point into DIR",
    )

    bench = subparsers.add_parser(
        "bench",
        help="inspect the benchmark history and gate on regressions "
        "(bench list / bench diff)",
    )
    bench.add_argument(
        "action", choices=["list", "diff"],
        help="list recorded runs, or diff two runs and exit 1 on regression",
    )
    bench.add_argument(
        "--bench", default="BENCH_pol.json", metavar="PATH",
        help="benchmark history file (default: BENCH_pol.json)",
    )
    bench.add_argument(
        "--before", type=int, default=-2, metavar="IDX",
        help="run index for the baseline (default: -2, second-to-last)",
    )
    bench.add_argument(
        "--after", type=int, default=-1, metavar="IDX",
        help="run index for the candidate (default: -1, last)",
    )
    bench.add_argument(
        "--wall-pct", type=float, default=1.0,
        help="relative wall-clock slowdown tolerated (default: 1.0 = +100%%, "
        "only a >2x slowdown trips)",
    )
    bench.add_argument(
        "--wall-floor", type=float, default=0.25, metavar="SECONDS",
        help="absolute wall-clock delta floor; smaller deltas never trip "
        "(default: 0.25s)",
    )
    bench.add_argument(
        "--sim-pct", type=float, default=0.001,
        help="tolerance on deterministic simulated metrics, fee totals included "
        "(default: 0.001)",
    )

    compare = subparsers.add_parser("compare", help="the chapter-5 comparison tables")
    compare.add_argument("users", type=int, nargs="?", default=16)
    compare.add_argument("--seed", type=int, default=1)

    verify = subparsers.add_parser(
        "verify-contract", help="compile + verify a contract (the PoL contract by default)"
    )
    verify.add_argument("source", nargs="?", help="a .rsh contract file to compile instead")

    lint = subparsers.add_parser(
        "lint",
        help="static analysis gate: balance safety, gas/budget bounds, "
        "cross-backend equivalence (exit 0 clean, 1 findings, 2 internal)",
    )
    lint.add_argument("paths", nargs="+", help=".rsh files or directories of contracts")
    lint.add_argument("--json", action="store_true", help="machine-readable output")
    lint.add_argument(
        "--mutate-teal-drop", type=int, default=None, metavar="N",
        help="drop the Nth TEAL store before linting (equivalence self-test)",
    )
    lint.add_argument(
        "--mutate-evm-sstore", type=int, default=None, metavar="N",
        help="neutralize the Nth EVM SSTORE before linting (equivalence self-test)",
    )
    lint.add_argument(
        "--mutate-reorder", type=int, default=None, metavar="N",
        help="weaken the Nth replay screen in BOTH artifacts before linting "
        "(model-checker self-test: replays/front-runs become accepted)",
    )
    lint.add_argument(
        "--mc-depth", type=int, default=None, metavar="D",
        help="override the model checker's interleaving depth bound",
    )

    subparsers.add_parser("attacks", help="run the attack gauntlet")

    report = subparsers.add_parser("report", help="full deploy/attach report, 16 and 32 users")
    report.add_argument("--seed", type=int, default=1)

    args = parser.parse_args(argv)
    # Counts, strides and depths below their floor are usage errors
    # (exit 2).  A chapter-5 campaign needs a deployer and an attacher.
    floors = {
        "simulate": (simulate, [("users", "users", 2)]),
        "compare": (compare, [("users", "users", 2)]),
        "analyze": (analyze, [("--users", "users", 1), ("--sample-every", "sample_every", 1),
                              ("--batch-size", "batch_size", 2)]),
        "lint": (lint, [("--mc-depth", "mc_depth", 1)]),
    }
    command_parser, bounds = floors.get(args.command, (parser, []))
    for flag, attr, floor in bounds:
        value = getattr(args, attr)
        if value is not None and value < floor:
            command_parser.error(f"argument {flag}: must be at least {floor}, got {value}")
    handlers = {
        "demo": _cmd_demo,
        "simulate": _cmd_simulate,
        "postmortem": _cmd_postmortem,
        "analyze": _cmd_analyze,
        "bench": _cmd_bench,
        "compare": _cmd_compare,
        "verify-contract": _cmd_verify_contract,
        "lint": _cmd_lint,
        "attacks": _cmd_attacks,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
