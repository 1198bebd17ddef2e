"""The simulation harness (the thesis's ``startSimulation.py``).

Pre-creates and funds N prover accounts (the section 4.4 support
scripts), then runs each prover through the deploy-or-attach flow
against a named network profile, recording the *total interaction time
between one user and the smart contract* -- exactly the quantity the
thesis's charts plot.

Proof generation and CID creation are deliberately skipped, as in the
thesis: "their presence would not have relevance to the results"
(section 4.3); records carry fabricated proof fields.
:func:`run_traced_journeys` is the other campaign: the whole proof
lifecycle through the system facade, traced, for journey analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain import make_chain
from repro.chain.base import drain
from repro.core.contract import build_pol_program, pol_record
from repro.obs.recorder import NullRecorder
from repro.reach.compiler import CompiledContract, compile_program
from repro.reach.runtime import DeployedContract, OpHandle, ReachClient
from repro.bench.workload import USERS_PER_CONTRACT, ProverSpec, generate_workload

__all__ = [
    "SimulationResult",
    "UserTiming",
    "make_chain",  # re-exported; the dispatch now lives in repro.chain
    "group_position",
    "run_simulation",
    "run_traced_journeys",
]


@dataclass(frozen=True)
class UserTiming:
    """One user's measured interaction."""

    name: str
    did: int
    olc: str
    operation: str  # "deploy" | "attach"
    latency: float  # seconds, end to end across the operation's txs
    fees: int  # base units
    gas_used: int
    transactions: int
    #: the operation's trace in the run's recorder ("" when untraced);
    #: links this row to its spans in the Chrome trace / journey report.
    trace_id: str = ""


@dataclass
class SimulationResult:
    """Everything a chapter-5 table or figure needs."""

    network: str
    user_count: int
    timings: list[UserTiming] = field(default_factory=list)
    #: the run's full metric snapshot (counters/gauges/histograms) when
    #: a live recorder was attached; None on uninstrumented runs.
    metrics: dict | None = None
    #: chaos-mode report ({"seed": ..., "injected": {kind: count}})
    #: when a fault plan was installed; None on unfaulted runs.
    faults: dict | None = None

    def deploys(self) -> list[UserTiming]:
        """The deploy operations in user order."""
        return [t for t in self.timings if t.operation == "deploy"]

    def attaches(self) -> list[UserTiming]:
        """The attach operations in user order."""
        return [t for t in self.timings if t.operation == "attach"]

    def per_user_series(self) -> list[tuple[str, float]]:
        """The figure 5.2-5.5 bar series: (user, total seconds)."""
        return [(t.name, t.latency) for t in self.timings]

    def to_csv(self) -> str:
        """Raw per-user measurements for external re-plotting."""
        lines = ["name,did,olc,operation,latency_s,fees_base_units,gas_used,transactions"]
        for t in self.timings:
            lines.append(
                f"{t.name},{t.did},{t.olc},{t.operation},{t.latency:.4f},"
                f"{t.fees},{t.gas_used},{t.transactions}"
            )
        return "\n".join(lines) + "\n"


def run_simulation(
    network: str,
    user_count: int,
    seed: int = 0,
    compiled: CompiledContract | None = None,
    recorder: NullRecorder | None = None,
    concurrent: bool = False,
    faults=None,
    watchtower=None,
) -> SimulationResult:
    """Run the chapter-5 workload on one network.

    Every wallet is created and funded first (the section 4.4 support
    scripts), so account creation does not pollute the latency
    measurements.  Then each prover runs one operation: deploy =
    contract creation + creator data insert, attach = the
    two-transaction attach operation.  Two orderings:

    - ``concurrent=False`` (the thesis's ``startSimulation.py``): one
      operation at a time in workload order, each waiting for its own
      confirmation.  Latency is the sum of the operation's receipt
      latencies (``OpResult.latency``);
    - ``concurrent=True`` (the thesis's Thread-based variant): creators
      deploy one at a time (each location needs its contract id first),
      then *all* attachers of all locations start at once: every attach
      is an in-flight future on the shared event queue, each user's API
      call submitted from its own handshake's confirmation callback.
      An attacher's latency is the span of their handle
      (``OpHandle.span``: first submission to final confirmation).
      Timings list every deploy first, then every attach.

    ``faults`` (a :class:`repro.faults.plan.FaultPlan`) switches the run
    into chaos mode: a chain fault injector is installed and every
    submission is armed with the plan's retry/backoff policy.  With
    ``faults=None`` (the default) the run is byte-identical to a
    build without the fault layer.

    ``watchtower`` (a :class:`repro.obs.monitor.Watchtower`) attaches
    the online monitor: invariants are checked at every block boundary,
    each user's operation is tracked for proof liveness (resolved when
    it settles without error), and SLO alerts evaluate against the
    run's recorder.  Monitoring never changes the event sequence.

    The harness is chain-agnostic: the per-family ceremonies live in
    the Reach runtime, below this layer.
    """
    chain = make_chain(network, seed=seed, recorder=recorder)
    if watchtower is not None and watchtower.enabled:
        watchtower.attach_chain(chain)
    monitor = chain.watchtower
    injector = None
    policy = None
    if faults is not None:
        from repro.faults.inject import ChainFaultInjector

        injector = ChainFaultInjector(faults).install(chain)
        policy = faults.policy
    client = ReachClient(chain, policy=policy)
    if compiled is None:
        compiled = compile_program(
            build_pol_program(max_users=USERS_PER_CONTRACT, reward=1_000)
        )
    workload = generate_workload(user_count)
    funding = chain.profile.simulation_funding
    accounts = {
        spec.name: chain.create_account(seed=f"sim/{network}/{spec.name}".encode(), funding=funding)
        for spec in workload
    }
    records = {
        spec.name: pol_record(
            hashed_proof=f"hash-{spec.did}",
            signed_proof=f"sig-{spec.did}",
            wallet=accounts[spec.name].address,
            nonce=spec.did * 7,
            cid=f"cid-{spec.did}",
        )
        for spec in workload
    }

    result = SimulationResult(network=network, user_count=user_count)
    contracts: dict[str, DeployedContract] = {}  # the simulated hypercube

    def timing(spec: ProverSpec, kind: str, operation, latency: float, trace_id: str) -> None:
        result.timings.append(
            UserTiming(
                name=spec.name, did=spec.did, olc=spec.olc, operation=kind,
                latency=latency, fees=operation.fees, gas_used=operation.gas_used,
                transactions=len(operation.receipts), trace_id=trace_id,
            )
        )

    def track(spec: ProverSpec, handle: OpHandle) -> None:
        # Proof liveness: the operation must anchor within the
        # watchtower's block budget; its settle callback resolves it.
        if not monitor.enabled:
            return
        key = (spec.olc, spec.did)
        monitor.track_proof(key, handle.trace_id)

        def resolved(settled) -> None:
            if settled.error is None:
                monitor.resolve_proof(key)

        handle.add_done_callback(resolved)

    in_flight: list[tuple[ProverSpec, OpHandle]] = []
    # A stable sort: every creator first, then the attachers, each in
    # workload order.
    order = sorted(workload, key=lambda spec: not spec.is_creator) if concurrent else workload
    for spec in order:
        if spec.is_creator:
            pending = client.deploy_async(
                compiled, accounts[spec.name], [spec.olc, spec.did, records[spec.name]]
            )
            monitor.track_proof((spec.olc, spec.did), pending.trace_id)
            deployed = pending.wait().value
            monitor.resolve_proof((spec.olc, spec.did))
            contracts[spec.olc] = deployed
            operation = deployed.deploy_result
            timing(spec, "deploy", operation, operation.latency, pending.trace_id)
            continue
        handle = client.attach_and_call_async(
            contracts[spec.olc],
            "attacherAPI.insert_data",
            [records[spec.name], spec.did],
            sender=accounts[spec.name],
        )
        if concurrent:
            in_flight.append((spec, handle))
            continue
        track(spec, handle)
        operation = handle.wait().op_result
        timing(spec, "attach", operation, operation.latency, handle.trace_id)

    if in_flight:
        for spec, handle in in_flight:
            track(spec, handle)
        drain(chain, [handle for _spec, handle in in_flight])
        for spec, handle in in_flight:
            if handle.error is not None:
                raise handle.error
            timing(spec, "attach", handle.op_result, handle.span, handle.trace_id)

    if recorder is not None and recorder.enabled:
        result.metrics = recorder.snapshot()
    if injector is not None:
        result.faults = {"seed": faults.seed, "injected": dict(injector.injected)}
    return result


def run_traced_journeys(
    network: str,
    user_count: int,
    seed: int = 0,
    sample_every: int = 1,
    profiler=None,
    batch_size: int | None = None,
    watchtower=None,
):
    """One fully-traced proof lifecycle run through the system facade.

    The bench runners measure at the Reach-client layer (proof
    generation skipped, as in the thesis); journey analysis needs the
    *whole* lifecycle, so this runner drives
    :class:`~repro.core.system.ProofOfLocationSystem` end to end with a
    live recorder: provers grouped four to a location (whole groups
    only, see :func:`campaign_users`) request witness-signed proofs,
    submit them concurrently (``submit_many`` pipelines every ceremony
    on one event queue), and an accredited verifier checks and rewards
    each record.

    Scale knobs:

    - ``sample_every=N`` traces every N-th user's journey fully and
      mutes the rest (their spans are counted, not recorded) -- all
      users still run the full protocol, so counters, balances and
      validation cover the whole population while the span store stays
      bounded;
    - ``batch_size=N`` (N >= 2) switches the campaign to the Merkle
      proof-batching pipeline: provers are grouped N to a location, the
      group's creator deploys, and the N-1 members' accepted proofs are
      anchored by *one* ``insert_batch`` transaction per group
      (:class:`repro.core.batch.BatchAggregator`), then light-verified
      against the anchored root;
    - ``watchtower`` (a :class:`repro.obs.monitor.Watchtower`) rides the
      whole campaign through the system facade, which attaches it to the
      chain (and so its event queue) and the DHT, and tracks every submission
      under the proof-liveness invariant; this is the scalable path for
      monitored large-population runs (the thesis workload behind
      :func:`run_simulation` tops out at 8 locations);
    - ``profiler`` (a :class:`repro.obs.prof.Profiler`) attributes the
      run's wall-clock and sim-time to kernel stages: it is made the
      ambient profiler every stage reads (the one seam), takes its sim
      time from the event queue's clock, and its profiled window covers
      account setup through final verification.  Profiling never
      changes results.

    Returns ``(report, recorder)``: the reconstructed
    :class:`~repro.obs.analysis.JourneyReport` plus the recorder, whose
    spans/counters back the Chrome trace and ``BENCH_pol.json`` entry.
    """
    from repro.obs.analysis import reconstruct_journeys
    from repro.obs.monitor import NULL_WATCHTOWER
    from repro.obs.prof import NULL_PROFILER, activate_profiler
    from repro.obs.recorder import Recorder

    if profiler is None:
        profiler = NULL_PROFILER
    # A monitored run must share one recorder: the watchtower's burn-rate
    # windows read the same counter series the chain writes.
    if watchtower is not None and watchtower.enabled:
        recorder = watchtower.recorder
    else:
        recorder = Recorder()
    chain = make_chain(network, seed=seed, recorder=recorder)
    chain.queue.attach_profiler(profiler)
    profiler.start()
    try:
        with activate_profiler(profiler):
            _run_facade_campaign(
                chain, recorder, user_count, sample_every,
                batch_size if batch_size is not None and batch_size >= 2 else None,
                watchtower if watchtower is not None else NULL_WATCHTOWER,
            )
    finally:
        profiler.stop()
    return reconstruct_journeys(recorder), recorder


#: What the facade campaign's verifier pays each proven prover.
JOURNEY_REWARD = 5_000

#: Groups per column of locations.  Group ``g`` sits 0.01 degrees
#: (~1.1 km) north of group ``g - 1``; after 4,000 groups (40 degrees,
#: still short of the pole) the next column starts 0.1 degrees east.
GROUPS_PER_COLUMN = 4_000


def group_position(group: int) -> tuple[float, float]:
    """``(latitude, longitude)`` of a facade-campaign location group.

    Every group gets its own 8-character OLC cell and one contract;
    its witness sits 0.0002 degrees east of it (~22 m at the first
    column, closer further north), inside Bluetooth range.
    """
    column, row = divmod(group, GROUPS_PER_COLUMN)
    return 44.4949 + 0.01 * row, 11.3426 + 0.1 * column


def campaign_users(user_count: int, batch_size: int | None = None) -> int:
    """How many provers a facade campaign runs: whole location groups.

    Provers are grouped ``batch_size or USERS_PER_CONTRACT`` to a
    location, batched or not.  A remainder group could never fill its
    contract's seats, stranding it in the attach phase (funding it
    reverts), so ``user_count`` is rounded down to whole groups, and up
    to one group when it is smaller than that.
    """
    group = batch_size or USERS_PER_CONTRACT
    return max(group, user_count - user_count % group)


def _run_facade_campaign(
    chain, recorder, user_count, sample_every, batch_size, watchtower,
) -> None:
    """The traced campaign body (profiled window of ``run_traced_journeys``).

    Provers are grouped ``batch_size or USERS_PER_CONTRACT`` to a
    location.  Unbatched, every prover stores its proof by its own
    transaction.  Batched, only each group's first prover (the creator,
    who deploys the location's contract) does; the other members'
    proofs are verifier-checked off-chain, buffered, and anchored by one
    ``insert_batch`` transaction per group.  The on-chain records are
    funded and verified on chain, then the members light-verify
    against the anchored roots.
    """
    from repro.core.batch import BatchAggregator
    from repro.core.system import ProofOfLocationSystem
    from repro.obs.context import MUTED_CONTEXT

    group = batch_size or USERS_PER_CONTRACT
    users = campaign_users(user_count, batch_size)
    system = ProofOfLocationSystem(
        chain=chain, reward=JOURNEY_REWARD, max_users=group, watchtower=watchtower
    )
    funding = chain.profile.simulation_funding
    for index in range((users + group - 1) // group):
        latitude, longitude = group_position(index)
        system.register_witness(f"witness-{index}", latitude, longitude + 0.0002)
    # The verifier pays contract funding plus gas for one verify per
    # user; scale its faucet with the population (a fixed stipend runs
    # dry around a few thousand users).
    system.register_verifier("verifier", funding=funding * max(1, users))
    names = [f"user-{index:03d}" for index in range(users)]
    for index, name in enumerate(names):
        latitude, longitude = group_position(index // group)
        system.register_prover(name, latitude, longitude, funding=funding)

    def request(index: int) -> tuple:
        name = names[index]
        # A sampled-out journey's request span roots under MUTED_CONTEXT,
        # and the mute rides the journey linkage through submit, every
        # tx/op span and the verify span.
        muted = sample_every > 1 and index % sample_every
        with recorder.activate(MUTED_CONTEXT if muted else None):
            proof_request, proof, _cid = system.request_location_proof(
                name, f"witness-{index // group}", f"report by {name}".encode()
            )
        return name, proof_request, proof

    # Creators first when batched: each group's contract must be live
    # before its members' batch can anchor against it.
    submissions = [request(index) for index in range(0, users, group if batch_size else 1)]
    outcomes = system.submit_many(submissions)
    # The submission wave was the proofs' last reader: verification
    # needs only each record's (olc, did).
    targets = [
        (outcome.olc, system.provers[name].did_uint)
        for (name, _request, _proof), outcome in zip(submissions, outcomes)
    ]
    del submissions

    batches = []
    if batch_size:
        # Members route through the aggregator: checked off-chain,
        # buffered, anchored one transaction per group (the size trigger
        # fires exactly when a group's last member is accepted).
        aggregator = BatchAggregator(system, "verifier", batch_size=group - 1)
        for index in range(users):
            if index % group == 0:
                continue
            name, proof_request, proof = request(index)
            outcome, _batch = system.submit_batched(name, proof_request, proof, aggregator)
            if outcome.name != "OK":
                raise RuntimeError(f"batched submission rejected for {name}: {outcome.name}")
        aggregator.poll()  # age trigger (a no-op here: every buffer flushed by size)
        aggregator.flush_all()  # shutdown trigger, same
        batches = aggregator.drain()

    # Funding and verification are pipelined waves like the submission
    # phase: serially, each call blocks for its own confirmation and the
    # verify loop alone is one consensus round trip per record.
    rewards: dict[str, int] = {}
    for outcome in outcomes:
        rewards[outcome.olc] = rewards.get(outcome.olc, 0) + JOURNEY_REWARD
    system.fund_contracts("verifier", rewards)
    system.verify_many("verifier", targets)
    if batches:
        failures = [f for f in system.light_verify_many("verifier", batches) if f.name != "OK"]
        if failures:
            raise RuntimeError(f"{len(failures)} batched records failed light verification")
