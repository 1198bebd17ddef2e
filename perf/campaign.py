"""One benchmark campaign in a fresh process.

    PYTHONPATH=src python perf/campaign.py --workload evm-10k --seed 1

Sets the system up (imports, compile, the cold lint gate, chain and
facade), runs one workload through the public API, checks its outputs
and prints one JSON object on stdout:

- ``setup``: wall seconds of each set-up step, ``setup_s`` from process
  start (``--spawned-at``, a ``time.monotonic()`` reading the parent
  takes just before starting this process) to system ready, and
  ``probe_s``, a host-speed probe taken right after;
- ``phases``: wall seconds of each campaign phase, timed from outside
  around the public calls, and ``campaign_s``, the campaign's wall time
  without the host-speed probes taken during it (``probes_s``, see
  ``perf/calibrate.py``);
- ``sim``: simulated quantities read from blocks and receipts;
- ``attempted``, ``proofs`` (stored and verified), ``calls_us``
  (per-call percentiles), ``peak_rss_mb`` and ``problems``.

``--setup-only`` stops once the system is ready.  ``--trace-dir DIR``
attaches the kernel's stage profiler to the campaign (and skips the
probes, so the profile covers only the system), adds the profile to the
output, and writes its speedscope file plus the benchmark's own spans
(Chrome trace JSON) under DIR.

The seed picks the workload's inputs: the provers' identities and
reports and the order they submit in.  The simulated networks' own
randomness (congestion, provider latency, proposer draws) is part of
the workload and fixed, so simulated metrics move only when the
system's behaviour does.  At seed 1, thesis-seq is exactly the
committed chapter-5 campaigns.
"""

from __future__ import annotations

import time

#: when this process started running Python, for ``setup_s`` when no
#: ``--spawned-at`` is given.  Taken before any ``repro`` import.
STARTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import PROBE_EVERY_S, probe  # noqa: E402


@dataclass(frozen=True)
class Wave:
    """An open-loop campaign through the system facade.

    Every submission starts at once, then a funding wave, then a verify
    wave.  ``batch_size`` 0 gives every proof its own transaction; N
    groups provers N to a location and anchors each group's N-1 members
    with one Merkle ``insert_batch`` transaction.
    """

    network: str
    provers: int
    batch_size: int = 0


@dataclass(frozen=True)
class ThesisSeq:
    """The committed chapter-5 campaigns, closed loop through ReachClient.

    Each entry is ``(network, users, chain seed)``: one client, and
    every deploy or attach operation waits for its own confirmation.
    """

    campaigns: tuple[tuple[str, int, int], ...]


WORKLOADS: dict[str, Wave | ThesisSeq] = {
    "evm-10k": Wave("goerli", 10_000),
    "avm-10k": Wave("algorand-testnet", 10_000),
    "evm-batch16-30k": Wave("goerli", 30_000, batch_size=16),
    "thesis-seq": ThesisSeq(
        tuple(
            (network, users, 1)
            for network in ("goerli", "polygon-mumbai", "algorand-testnet")
            for users in (8, 16, 24, 32)
        )
        + (("ropsten", 8, 2),)
    ),
}

#: the simulated network's seed in the wave campaigns
WAVE_CHAIN_SEED = 1
#: users per location (and contract) in the unbatched campaigns
USERS_PER_LOCATION = 4
#: per-proof reward of the wave campaigns (the traced-journey runner's)
WAVE_REWARD = 5_000
#: the thesis scripts' reward (``run_simulation``'s default)
THESIS_REWARD = 1_000
#: SHA-256 of the committed ``benchmarks/output/raw_<net>_<users>u_seed<s>.csv``
#: files: thesis-seq at seed 1 must reproduce them byte for byte.
GOLDEN_CSV = Path(__file__).with_name("thesis_seq_seed1.sha256")
#: spans recorded once per call (their phase total is the sum over calls)
PER_CALL = ("core.request", "core.batch_accept")


class Spans:
    """The benchmark's own spans, and the campaign's host-speed probes.

    Phase totals accumulate across calls (the batched wave interleaves
    requests and acceptances); every span is kept for the Chrome trace.
    :meth:`checkpoint`, called only between spans, takes a probe once
    :data:`PROBE_EVERY_S` has passed since the last one, so probes never
    land inside a timed span; their time is kept out of ``campaign_s``.
    """

    def __init__(self, probing: bool) -> None:
        self.probing = probing
        self.events: list[tuple[str, int, int]] = []  # (name, start ns, duration ns)
        self.totals: dict[str, float] = {}
        self.probes: list[float] = []
        self.probing_ns = 0
        self.origin = self.last_probe = time.perf_counter_ns()

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        self.events.append((name, start_ns - self.origin, end_ns - start_ns))
        self.totals[name] = self.totals.get(name, 0.0) + (end_ns - start_ns) / 1e9

    def phase(self, name: str) -> "_Phase":
        return _Phase(self, name)

    def checkpoint(self) -> None:
        now = time.perf_counter_ns()
        if not self.probing or now - self.last_probe < PROBE_EVERY_S * 1e9:
            return
        self.probes.append(probe())
        self.last_probe = time.perf_counter_ns()
        self.probing_ns += self.last_probe - now

    def durations_us(self, name: str) -> list[float]:
        return [duration / 1e3 for span, _start, duration in self.events if span == name]

    def chrome_trace(self, workload: str) -> dict:
        events = [
            {"ph": "M", "pid": 1, "tid": 1, "name": "process_name", "args": {"name": f"perf {workload}"}}
        ]
        for name, start, duration in self.events:
            # Per-call spans sit on their own track, phases on the first.
            events.append({
                "ph": "X", "pid": 1, "tid": 2 if name in PER_CALL else 1,
                "name": name, "cat": "perf", "ts": start / 1e3, "dur": duration / 1e3,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _Phase:
    __slots__ = ("spans", "name", "start")

    def __init__(self, spans: Spans, name: str):
        self.spans = spans
        self.name = name

    def __enter__(self) -> None:
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc: object) -> None:
        self.spans.add(self.name, self.start, time.perf_counter_ns())
        self.spans.checkpoint()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    for permille in (999, 990, 950, 900):
        if count * (1000 - permille) >= 10_000:
            return permille / 10
    return 50.0


# -- set-up --------------------------------------------------------------------


def set_up(spec: Wave | ThesisSeq, spawned_at: float) -> dict:
    """Imports, compile, cold lint gate, chain and facade: system ready.

    A lint error makes the facade (or, for thesis-seq, the first deploy)
    raise, which fails the process.
    """
    timings: dict[str, float] = {}

    def timed(name: str, started: float) -> float:
        now = time.perf_counter()
        timings[f"{name}_s"] = now - started
        return now

    started = time.perf_counter()
    from repro.chain import make_chain
    from repro.core.contract import build_pol_program
    from repro.core.system import ProofOfLocationSystem
    from repro.reach.compiler import compile_program

    started = timed("setup.import", started)
    if isinstance(spec, Wave):
        group = spec.batch_size or USERS_PER_LOCATION
        program = build_pol_program(max_users=group, reward=WAVE_REWARD)
    else:
        program = build_pol_program(max_users=USERS_PER_LOCATION, reward=THESIS_REWARD)
    compiled = compile_program(program)
    started = timed("reach.compile", started)
    compiled.lint_report()
    started = timed("reach.lint_cold", started)
    system = None
    if isinstance(spec, Wave):
        chain = make_chain(spec.network, seed=WAVE_CHAIN_SEED)
        system = ProofOfLocationSystem(chain=chain, reward=WAVE_REWARD, max_users=group, compiled=compiled)
    timed("setup.chain", started)
    timings["setup_s"] = time.monotonic() - spawned_at
    timings["probe_s"] = probe()
    # The warm gate: a recompiled artifact hits the analyses' caches.
    recompiled = compile_program(program)
    started = time.perf_counter()
    recompiled.lint_report()
    timed("reach.lint_warm", started)
    return {"setup": timings, "compiled": compiled, "system": system}


# -- campaigns -------------------------------------------------------------------


def run_wave(spec: Wave, seed: int, system, spans: Spans) -> dict:
    """Onboard, request, submit (or batch), fund and verify every prover."""
    chain = system.chain
    group = spec.batch_size or USERS_PER_LOCATION
    users = spec.provers - spec.provers % group
    funding = chain.profile.simulation_funding
    base_lat, base_lng = 44.4949, 11.3426
    names = [f"s{seed}-user-{index:05d}" for index in range(users)]
    order = list(range(users))
    random.Random(seed).shuffle(order)
    with spans.phase("core.onboard"):
        for location in range(users // group):
            # ~1.1 km apart: one OLC cell and one contract per group; the
            # group's witness sits ~22 m away, inside Bluetooth range.
            system.register_witness(f"witness-{location}", base_lat + 0.01 * location, base_lng + 0.0002)
        system.register_verifier("verifier", funding=funding * users)
        for index, name in enumerate(names):
            system.register_prover(name, base_lat + 0.01 * (index // group), base_lng, funding=funding)

    def request(index: int) -> tuple:
        name = names[index]
        start = time.perf_counter_ns()
        proof_request, proof, _cid = system.request_location_proof(
            name, f"witness-{index // group}", f"report by {name}".encode()
        )
        spans.add("core.request", start, time.perf_counter_ns())
        spans.checkpoint()
        return name, proof_request, proof

    # Proofs stored by their own transaction: every proof unbatched, the
    # group creators' (who deploy the location's contract) when batched.
    direct = [request(index) for index in order if not spec.batch_size or index % group == 0]
    started = chain.queue.clock.now
    with spans.phase("core.submit"):
        outcomes = system.submit_many(direct)
    latencies = [max(r.confirmed_at for r in o.operation.receipts) - started for o in outcomes]

    problems = []
    batches = []
    if spec.batch_size:
        from repro.core.batch import BatchAggregator

        aggregator = BatchAggregator(system, "verifier", batch_size=group - 1)
        accepted_at: dict[str, float] = {}
        for index in order:
            if index % group == 0:
                continue
            name, proof_request, proof = request(index)
            accepted_at[name] = chain.queue.clock.now
            start = time.perf_counter_ns()
            outcome, _batch = system.submit_batched(name, proof_request, proof, aggregator)
            spans.add("core.batch_accept", start, time.perf_counter_ns())
            spans.checkpoint()
            if outcome.name != "OK":
                problems.append(f"batched submission of {name} rejected: {outcome.name}")
        aggregator.poll()  # age trigger: a no-op, every buffer filled by size
        aggregator.flush_all()  # shutdown trigger: same
        with spans.phase("core.batch_anchor"):
            batches = aggregator.drain()
        for batch in batches:
            anchored = max(r.confirmed_at for r in batch.handle.receipts)
            latencies.extend(anchored - accepted_at[record.prover_name] for record in batch.records)

    rewards: dict[str, int] = {}
    for outcome in outcomes:
        rewards[outcome.olc] = rewards.get(outcome.olc, 0) + WAVE_REWARD
    with spans.phase("core.fund"):
        system.fund_contracts("verifier", {olc: rewards[olc] for olc in sorted(rewards)})
    with spans.phase("core.verify"):
        verdicts = system.verify_many(
            "verifier",
            [(o.olc, system.provers[name].did_uint) for (name, _r, _p), o in zip(direct, outcomes)],
        )
    if batches:
        with spans.phase("core.light_verify"):
            verdicts += system.light_verify_many("verifier", batches)

    verified = sum(1 for verdict in verdicts if verdict.name == "OK")
    if verified != users:
        problems.append(f"{verified} of {users} proofs verified")
    if len(latencies) != users:
        problems.append(f"{len(latencies)} of {users} proofs stored on chain")
    return {
        "attempted": users, "proofs": verified, "latencies": latencies, "chains": [chain], "problems": problems,
    }


def run_thesis(spec: ThesisSeq, seed: int, compiled, spans: Spans, on_chain) -> dict:
    """The chapter-5 deploy-or-attach flow, one blocking operation at a time.

    Mirrors the thesis's ``startSimulation.py`` (``run_simulation``):
    fund every wallet first, then each prover deploys its location's
    contract or attaches to it.  Seed 1 uses the thesis scripts' wallets
    and must reproduce the committed raw CSVs byte for byte; other seeds
    give every wallet another key.
    """
    from repro.bench.workload import generate_workload
    from repro.chain import make_chain
    from repro.core.contract import pol_record
    from repro.reach.runtime import ReachClient

    golden = dict(line.split()[::-1] for line in GOLDEN_CSV.read_text().splitlines() if line.strip())
    wallet_suffix = "" if seed == 1 else f"/seed-{seed}"
    latencies: list[float] = []
    chains = []
    problems = []
    proofs = 0
    for network, users, chain_seed in spec.campaigns:
        chain = make_chain(network, seed=chain_seed)
        on_chain(chain)
        chains.append(chain)
        client = ReachClient(chain)
        workload = generate_workload(users)
        funding = chain.profile.simulation_funding
        with spans.phase("core.onboard"):
            accounts = {
                prover.name: chain.create_account(
                    seed=f"sim/{network}/{prover.name}{wallet_suffix}".encode(), funding=funding
                )
                for prover in workload
            }
        rows = ["name,did,olc,operation,latency_s,fees_base_units,gas_used,transactions"]
        contracts = {}
        records = {}
        for prover in workload:
            account = accounts[prover.name]
            record = pol_record(
                hashed_proof=f"hash-{prover.did}", signed_proof=f"sig-{prover.did}",
                wallet=account.address, nonce=prover.did * 7, cid=f"cid-{prover.did}",
            )
            records[prover.did] = (prover.olc, record)
            deployed = contracts.get(prover.olc)
            start = time.perf_counter_ns()
            if deployed is None:
                deployed = client.deploy_async(compiled, account, [prover.olc, prover.did, record]).wait().value
                contracts[prover.olc] = deployed
                operation, kind = deployed.deploy_result, "deploy"
            else:
                operation = client.attach_and_call_async(
                    deployed, "attacherAPI.insert_data", [record, prover.did], sender=account
                ).wait().op_result
                kind = "attach"
            spans.add(f"reach.ops_{chain.profile.family}", start, time.perf_counter_ns())
            spans.checkpoint()
            latencies.append(
                max(r.confirmed_at for r in operation.receipts) - min(r.submitted_at for r in operation.receipts)
            )
            rows.append(
                f"{prover.name},{prover.did},{prover.olc},{kind},{operation.latency:.4f},"
                f"{operation.fees},{operation.gas_used},{len(operation.receipts)}"
            )
        # Every record reads back from its location's contract.
        for did, (olc, record) in records.items():
            if contracts[olc].map_value("easy_map", did) == record:
                proofs += 1
            else:
                problems.append(f"{network}/{users}: record of DID {did} not stored")
        csv_name = f"raw_{network}_{users}u_seed{chain_seed}.csv"
        digest = hashlib.sha256(("\n".join(rows) + "\n").encode()).hexdigest()
        if seed == 1 and golden.get(csv_name) != digest:
            problems.append(f"{csv_name}: rows differ from the committed CSV")
    return {
        "attempted": sum(users for _network, users, _seed in spec.campaigns),
        "proofs": proofs, "latencies": latencies, "chains": chains, "problems": problems,
    }


# -- measurement -------------------------------------------------------------------


def chain_metrics(chains: list, proofs: int, latencies: list[float]) -> tuple[dict, list[str]]:
    """Simulated metrics from blocks and receipts, plus the chain checks."""
    from repro.chain import TxStatus

    receipts = []
    blocks = 0
    per_block_max = 0
    problems = []
    for chain in chains:
        blocks += len(chain.blocks) - 1  # not the genesis block
        for block in chain.blocks:
            per_block_max = max(per_block_max, len(block.transactions))
            receipts.extend(chain.receipt(tx.txid) for tx in block.transactions)
        if chain.mempool_depth:
            problems.append(f"{chain.profile.name}: {chain.mempool_depth} transactions left in the mempool")
    reverted = sum(1 for r in receipts if r.status is TxStatus.REVERTED)
    if reverted:
        problems.append(f"{reverted} reverted receipts")
    confirmed = [r for r in receipts if r.confirmed_at is not None]
    if len(confirmed) != len(receipts):
        problems.append(f"{len(receipts) - len(confirmed)} included transactions never confirmed")
    mempool_waits = [r.included_at - r.submitted_at for r in confirmed]
    confirm_waits = [r.confirmed_at - r.included_at for r in confirmed]
    tail = tail_percentile(len(latencies))
    sim = {
        "proof_latency_p50_sim_s": percentile(latencies, 50),
        "proof_latency_tail_sim_s": percentile(latencies, tail),
        "proof_latency_tail_percentile": tail,
        "proof_latency_samples": len(latencies),
        "fee_per_proof": sum(r.fee_paid for r in receipts) / max(proofs, 1),
        "chain.blocks": blocks,
        "chain.txs": len(receipts),
        "chain.txs_per_proof": len(receipts) / max(proofs, 1),
        "chain.txs_per_block_max": per_block_max,
        "chain.gas_per_proof": sum(r.gas_used for r in receipts) / max(proofs, 1),
        "chain.mempool_wait_p50_sim_s": percentile(mempool_waits, 50),
        "chain.mempool_wait_p99_sim_s": percentile(mempool_waits, 99),
        "chain.confirm_wait_p50_sim_s": percentile(confirm_waits, 50),
    }
    return sim, problems


def run_campaign(workload: str, spec: Wave | ThesisSeq, seed: int, state: dict, trace_dir: Path | None) -> dict:
    """Run the workload, optionally under the stage profiler, and measure it."""
    from repro.obs.prof import NULL_PROFILER, Profiler, activate_profiler, write_speedscope

    profiler = Profiler() if trace_dir is not None else NULL_PROFILER
    spans = Spans(probing=not profiler.enabled)

    def on_chain(chain) -> None:
        if profiler.enabled:
            chain.queue.attach_profiler(profiler)

    started = time.perf_counter_ns()
    profiler.start()
    try:
        with activate_profiler(profiler):
            if isinstance(spec, Wave):
                on_chain(state["system"].chain)
                outcome = run_wave(spec, seed, state["system"], spans)
            else:
                outcome = run_thesis(spec, seed, state["compiled"], spans, on_chain)
    finally:
        profiler.stop()
    finished = time.perf_counter_ns()
    spans.add("campaign", started, finished)

    sim, problems = chain_metrics(outcome["chains"], outcome["proofs"], outcome["latencies"])
    phases = {f"{name}_s": seconds for name, seconds in spans.totals.items() if name != "campaign"}
    phases["campaign_s"] = (finished - started - spans.probing_ns) / 1e9
    result = {
        "phases": phases,
        "probes_s": spans.probes,
        "attempted": outcome["attempted"],
        "proofs": outcome["proofs"],
        "sim": sim,
        "problems": outcome["problems"] + problems,
        "calls_us": {
            name: {"p50": percentile(values, 50), "p99": percentile(values, 99), "count": len(values)}
            for name in PER_CALL
            if (values := spans.durations_us(name))
        },
    }
    if profiler.enabled:
        trace_dir.mkdir(parents=True, exist_ok=True)
        write_speedscope(profiler, str(trace_dir / f"{workload}.speedscope.json"), name=f"perf {workload}")
        with open(trace_dir / f"{workload}.spans.trace.json", "w", encoding="utf-8") as handle:
            json.dump(spans.chrome_trace(workload), handle, separators=(",", ":"))
        result["profile"] = profiler.profile()
    return result


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, default=STARTED)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--provers", type=int, default=0,
                        help="shrink the workload (smoke runs): wave provers, or thesis-seq users per campaign")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.provers and isinstance(spec, Wave):
        spec = Wave(spec.network, args.provers, spec.batch_size)
    elif args.provers:
        spec = ThesisSeq(tuple(c for c in spec.campaigns if c[1] <= args.provers))

    state = set_up(spec, args.spawned_at)
    result = {"setup": state["setup"]}
    if not args.setup_only:
        result.update(run_campaign(args.workload, spec, args.seed, state, args.trace_dir))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
