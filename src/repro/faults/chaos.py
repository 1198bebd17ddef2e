"""The chaos harness: run the bench workload under an active FaultPlan.

``run_chaos`` is what the CLI's ``--faults <seed>`` executes.  It runs
the concurrent simulation with a chain fault injector installed and the
plan's retry/backoff policy armed, then replays deterministic DHT churn
and radio-flap scenarios, asserting the end-to-end resilience
invariants:

- **proof liveness** -- every tracked proof anchored within the
  watchtower's block budget and none was left unresolved at the end of
  the run.  This is the :class:`repro.obs.monitor.Watchtower`'s online
  invariant, shared verbatim with non-chaos monitored runs: one
  checker, two harnesses;
- **every transient rejection shows a matching recovery**;
- **the DHT heals** -- records written during primary/replica outages
  are readable from every holder after read-repair;
- **the radio recovers** -- every flapped message is ultimately
  delivered.

The watchtower also rides along as the alert ground truth: injected
fault classes surface as firing SLO alerts (``report.alerts_fired``),
which the fidelity tests assert against the plan.

Determinism is part of the contract: the same (seed, fault_seed) pair
reproduces the same event sequence, timings and counters, which the CI
chaos smoke job checks by diffing two identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.simulation import SimulationResult, run_simulation
from repro.bench.workload import THESIS_LOCATIONS
from repro.core.bluetooth import BluetoothChannel
from repro.dht.hypercube import HypercubeDHT
from repro.faults.inject import DhtFaultInjector, RadioFaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.recorder import Recorder


class ChaosError(AssertionError):
    """An end-to-end chaos invariant did not hold."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ChaosError(message)


@dataclass
class ChaosReport:
    """Everything a chaos run measured and asserted."""

    network: str
    user_count: int
    seed: int
    fault_seed: int
    result: SimulationResult
    #: per-kind injected-fault tallies across all subsystems.
    injected: dict[str, int] = field(default_factory=dict)
    #: per-kind recovery tallies from the telemetry snapshot.
    recovered: dict[str, int] = field(default_factory=dict)
    read_repairs: int = 0
    radio_messages: int = 0
    #: SLO alerts that reached the firing state during the run.
    alerts_fired: list[str] = field(default_factory=list)
    #: rendered watchtower invariant violations (empty on a passing run).
    violations: list[str] = field(default_factory=list)

    def summary(self) -> str:
        """A compact human-readable account of the run."""
        lines = [
            f"chaos run: {self.network}, {self.user_count} users, "
            f"seed={self.seed}, fault_seed={self.fault_seed}",
            f"  proofs landed: {len(self.result.timings)}/{self.user_count}",
        ]
        for kind in sorted(self.injected):
            recovered = self.recovered.get(kind)
            tail = f", recovered {recovered}" if recovered is not None else ""
            lines.append(f"  injected {kind}: {self.injected[kind]}{tail}")
        lines.append(f"  dht read-repairs: {self.read_repairs}")
        lines.append(f"  radio messages delivered: {self.radio_messages}")
        lines.append(
            "  alerts fired: " + (", ".join(self.alerts_fired) if self.alerts_fired else "none")
        )
        lines.append("  invariants: all held")
        return "\n".join(lines)


def run_chaos(
    network: str,
    user_count: int,
    seed: int = 0,
    fault_seed: int = 1,
    recorder: Recorder | None = None,
    plan: FaultPlan | None = None,
    watchtower=None,
) -> ChaosReport:
    """Run the full chaos scenario; raise :class:`ChaosError` on violation.

    ``watchtower`` defaults to a fresh in-memory
    :class:`~repro.obs.monitor.Watchtower` over the run's recorder; pass
    one to collect its post-mortem bundles on disk (the CLI does) or to
    interpose on its tracking (the dropped-proof regression test does).
    """
    if recorder is None:
        recorder = Recorder()
    if plan is None:
        plan = FaultPlan.generate(fault_seed)
    if watchtower is None:
        from repro.obs.monitor import Watchtower

        watchtower = Watchtower(recorder)

    result = run_simulation(
        network, user_count, seed=seed, recorder=recorder, concurrent=True,
        faults=plan, watchtower=watchtower,
    )
    report = ChaosReport(
        network=network,
        user_count=user_count,
        seed=seed,
        fault_seed=plan.seed,
        result=result,
    )

    _check(result.faults is not None, "chaos run did not report a fault summary")
    for timing in result.timings:
        _check(timing.latency > 0, f"{timing.name}: non-positive latency {timing.latency}")
        _check(timing.transactions >= 1, f"{timing.name}: no transactions recorded")

    report.injected.update(result.faults["injected"])

    # The deterministic DHT churn scenario: crash holders, write during
    # the outage, restore, and require the next lookup to heal them.
    # The watchtower samples replication health mid-outage, so planned
    # churn surfaces as the dht-replication alert (ground truth for the
    # fidelity matrix).
    dht_injector = _run_dht_churn(plan, recorder, watchtower)
    report.injected.update(dht_injector.injected)
    report.read_repairs = dht_injector.dht.read_repairs

    # The radio-flap scenario: every message delivered despite flaps.
    radio = _run_radio_flaps(plan, recorder)
    report.injected.update(radio.injected)
    report.radio_messages = radio.channel.messages_sent
    watchtower.evaluate()  # pick up radio-failure counters post-scenario

    # Invariant: proof liveness -- the watchtower's online checker, the
    # same one monitored non-chaos runs use.  Every tracked proof must
    # have anchored (directly or via a batch root) within the block
    # budget; anything still unresolved at the end of the run is a
    # violation.  This subsumes the old no-lost-proofs/counter-match
    # assertions: a dropped or never-settled proof shows up here.
    violations = watchtower.finish()
    report.violations = [str(violation) for violation in violations]
    report.alerts_fired = [
        alert.rule.name for alert in watchtower.slo.fired()
    ] if watchtower.slo is not None else []
    _check(
        not violations,
        "watchtower invariants violated:\n" + "\n".join(f"  {v}" for v in report.violations),
    )

    # Invariant: every transient rejection recovered on retry.
    for kind in ("tx_rejection", "stuck_tx", "radio_flap"):
        report.recovered[kind] = int(recorder.counter_value("fault_recovered_total", kind=kind))
    _check(
        report.recovered["tx_rejection"] == report.injected.get("tx_rejection", 0),
        f"{report.injected.get('tx_rejection', 0)} transient rejections injected "
        f"but {report.recovered['tx_rejection']} recovered",
    )
    _check(
        report.recovered["radio_flap"] == report.injected.get("radio_flap", 0),
        f"{report.injected.get('radio_flap', 0)} radio flaps injected "
        f"but {report.recovered['radio_flap']} recovered",
    )
    return report


def _run_dht_churn(plan: FaultPlan, recorder: Recorder, watchtower=None) -> DhtFaultInjector:
    """Churn the hypercube per the plan; assert read-repair heals it."""
    dht = HypercubeDHT(r=6, replication=2, recorder=recorder)
    injector = DhtFaultInjector(dht)
    if watchtower is not None and watchtower.enabled:
        watchtower.attach_dht(dht)
    expected: dict[str, list[str]] = {}
    for index, olc in enumerate(THESIS_LOCATIONS):
        dht.register_contract(olc, f"contract-{index}")
        expected[olc.upper()] = []

    for round_number in range(plan.churn_rounds):
        for index, olc in enumerate(THESIS_LOCATIONS):
            key = olc.upper()
            primary = dht.responsible_node(key)
            replicas = dht.replica_nodes(key)
            injector.crash(primary.node_id)
            if round_number % 2 == 1:
                injector.crash(replicas[0].node_id)  # replica loss too
            cid = f"cid-{index}-round-{round_number}"
            dht.append_cid(key, cid)
            expected[key].append(cid)
            if watchtower is not None and watchtower.enabled:
                # Probe mid-outage: replication health is below the floor
                # right now, which is what the dht-replication alert is for.
                watchtower.evaluate()
            injector.restore(primary.node_id)
            if round_number % 2 == 1:
                injector.restore(replicas[0].node_id)
            outcome = dht.lookup(key)  # the healing read
            _check(outcome.found, f"{key}: record lost after churn round {round_number}")

    for key, cids in expected.items():
        holders = [dht.responsible_node(key)] + dht.replica_nodes(key)
        for holder in holders:
            record = holder.retrieve(key)
            _check(record is not None, f"{key}: holder {holder.node_id} lost the record")
            _check(
                record.cids == cids,
                f"{key}: holder {holder.node_id} has {record.cids}, expected {cids}",
            )
    if plan.churn_rounds:
        _check(dht.read_repairs > 0, "churn ran but no read-repair was ever needed")
    return injector


def _run_radio_flaps(plan: FaultPlan, recorder: Recorder) -> RadioFaultInjector:
    """Flap the Bluetooth range per the plan; every message must land."""
    channel = BluetoothChannel()
    channel.register("prover", 44.4949, 11.3426)
    channel.register("witness", 44.4949, 11.3428)  # ~16 m apart: in range
    radio = RadioFaultInjector(channel, plan.radio_flaps, factor=0.1, recorder=recorder)
    messages = (plan.radio_flaps[-1][1] + 4) if plan.radio_flaps else 4
    for index in range(messages):
        radio.send_with_retry("prover", "witness", f"proof-{index}")
    delivered = len(channel.receive("witness"))
    _check(
        delivered == messages,
        f"radio delivered {delivered}/{messages} messages",
    )
    _check(
        radio.recovered == len(plan.radio_flaps),
        f"{len(plan.radio_flaps)} flap windows planned but {radio.recovered} recoveries",
    )
    return radio
