"""The watchtower: online invariants evaluated at block boundaries.

A :class:`Watchtower` attaches to one or more simulated chains (and
optionally a DHT) and re-checks the system's safety/liveness invariants
every time a block seals, on the sim clock:

``balance_conservation``
    the sum of all account balances plus everything provably destroyed
    (burned fees, tips to unknown proposers) plus everything locked in
    consensus deposits equals everything ever minted by the faucet --
    exact integer equality, per block, per chain.
``nonce_monotonicity``
    no ``(sender, nonce)`` pair is ever included twice, and each
    sender's included nonces are strictly increasing in chain order.
``proof_liveness``
    every verifier-accepted proof submission anchors on chain --
    directly or through a batch Merkle root -- within ``liveness_blocks``
    blocks of the anchor chain (and unconditionally by end of run).
``batch_inclusion``
    every member of an anchored batch has a retained Merkle inclusion
    path that verifies against the anchored root.

Invariants must hold *even under injected faults* -- the chaos harness
asserts exactly that.  Symptoms of injected faults (retry burn, fee
spikes, replication dips, block stalls) are the domain of the SLO
alerting layer (:mod:`repro.obs.slo`), which the watchtower drives from
the same block hook; firing alerts and invariant violations both
trigger flight-recorder post-mortem dumps (:mod:`repro.obs.flight`).

Hot paths guard on ``watchtower.enabled`` against the
:data:`NULL_WATCHTOWER` null object, mirroring ``NULL_RECORDER`` /
``NULL_FAULTS``: an unmonitored run pays one attribute load per hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .flight import FlightRecorder
from .slo import AlertTransition, SloEngine, SloRule, STATE_CODES, default_rules


@dataclass(frozen=True)
class InvariantViolation:
    """One failed online invariant, stamped with chain position and time."""

    invariant: str
    chain: str
    sim_time: float
    height: int
    detail: str
    trace_ids: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.chain} h={self.height} t={self.sim_time:.3f}s: {self.detail}"


class NullWatchtower:
    """No-op watchtower wired into every chain by default."""

    enabled = False
    violations: tuple[InvariantViolation, ...] = ()

    def attach_chain(self, chain: Any) -> None:
        """Subscribe to ``chain``'s block boundary and its queue's exceptions."""

    def attach_dht(self, dht: Any) -> None:
        """Track ``dht`` replication health."""

    def on_block(self, chain: Any, block: Any) -> None:
        """Block-boundary hook (installed via ``chain.block_listeners``)."""

    def observe_confirmation(self, chain: Any, receipt: Any, trace_id: str | None = None) -> None:
        """Feed one confirmation latency to the SLO engine."""

    def track_proof(self, key: Any, trace_id: str = "") -> None:
        """Register an accepted proof that must anchor within K blocks."""

    def resolve_proof(self, key: Any) -> None:
        """Mark a tracked proof as anchored."""

    def check_batch(self, batch: Any, provers: dict[str, Any] | None = None) -> None:
        """Verify the retained inclusion paths of an anchored batch."""

    def note(self, kind: str, **fields: Any) -> None:
        """Push a free-form event into the flight ring."""

    def report_exception(self, exc: BaseException, label: str = "") -> None:
        """Dump a post-mortem for an uncaught simulation exception."""

    def evaluate(self) -> None:
        """Force an SLO/invariant probe outside a block boundary."""

    def finish(self) -> list[InvariantViolation]:
        """End-of-run sweep; returns every violation seen."""
        return []


#: shared no-op singleton (stateless, safe to share across chains).
NULL_WATCHTOWER = NullWatchtower()


class _ChainState:
    """Per-chain bookkeeping the invariant checks need between blocks."""

    __slots__ = (
        "chain", "name", "last_number", "last_timestamp", "last_gap",
        "included_pairs", "last_nonce", "checks",
    )

    def __init__(self, chain: Any):
        self.chain = chain
        self.name = chain.profile.name
        self.last_number = chain.last_block.number
        self.last_timestamp = chain.last_block.timestamp
        self.last_gap: float | None = None
        self.included_pairs: set[tuple[str, int]] = set()
        self.last_nonce: dict[str, int] = {}
        self.checks = 0


class Watchtower(NullWatchtower):
    """Always-on invariant monitor + SLO driver + flight-recorder trigger.

    ``recorder`` must be a real :class:`~repro.obs.recorder.Recorder`
    (the watchtower reads counters off it and stamps sim time from its
    clock).  ``slo`` and ``flight`` default to a stock
    :class:`~repro.obs.slo.SloEngine` (built per attached profile) and
    an in-memory :class:`~repro.obs.flight.FlightRecorder`.
    """

    enabled = True

    def __init__(
        self,
        recorder: Any,
        slo: SloEngine | None = None,
        flight: FlightRecorder | None = None,
        *,
        liveness_blocks: int = 40,
        min_replication: int = 2,
        fee_budget: float | None = None,
        out_dir: str | None = None,
    ):
        self.recorder = recorder
        self.slo = slo
        self.flight = flight if flight is not None else FlightRecorder(recorder, out_dir=out_dir)
        self.liveness_blocks = liveness_blocks
        self.min_replication = min_replication
        self.fee_budget = fee_budget
        self.violations: list[InvariantViolation] = []
        self.transitions: list[AlertTransition] = []
        self._chains: list[_ChainState] = []
        self._dhts: list[Any] = []
        # Accepted-but-unanchored proofs: key -> (trace_id, deadline height
        # on the anchor chain); deadlines bucketed by height for O(1) pops.
        self._tracked: dict[Any, tuple[str, int]] = {}
        self._deadlines: dict[int, list[Any]] = {}
        self._proofs_tracked = 0
        self._proofs_resolved = 0
        self._violations_total: dict[str, Any] = {}
        self._alert_state_gauges: dict[str, Any] = {}
        self._checks_total = recorder.counter_handle("watchtower_checks_total")
        self._finished = False

    # ------------------------------------------------------------------
    # attachment

    def attach_chain(self, chain: Any) -> None:
        if any(state.chain is chain for state in self._chains):
            return
        if self.slo is None:
            self.slo = SloEngine(
                self.recorder,
                default_rules(
                    chain.profile,
                    min_replication=self.min_replication,
                    fee_budget=self.fee_budget,
                ),
            )
        chain.watchtower = self
        chain.block_listeners.append(self.on_block)
        if self._on_queue_exception not in chain.queue.exception_watchers:
            chain.queue.exception_watchers.append(self._on_queue_exception)  # chains may share a queue
        self._chains.append(_ChainState(chain))

    def attach_dht(self, dht: Any) -> None:
        if all(existing is not dht for existing in self._dhts):
            self._dhts.append(dht)

    @property
    def anchor(self) -> _ChainState:
        """The first attached chain times the liveness deadlines."""
        return self._chains[0]

    # ------------------------------------------------------------------
    # proof liveness

    def track_proof(self, key: Any, trace_id: str = "") -> None:
        if key in self._tracked:
            return
        deadline = self.anchor.chain.height + self.liveness_blocks
        self._tracked[key] = (trace_id, deadline)
        self._deadlines.setdefault(deadline, []).append(key)
        self._proofs_tracked += 1

    def resolve_proof(self, key: Any) -> None:
        if self._tracked.pop(key, None) is not None:
            self._proofs_resolved += 1

    # ------------------------------------------------------------------
    # block boundary

    def on_block(self, chain: Any, block: Any) -> None:
        state = self._state_for(chain)
        state.checks += 1
        self._checks_total.add()
        self._check_conservation(state, block)
        self._check_nonces(state, block)
        state.last_gap = block.timestamp - state.last_timestamp
        state.last_number = block.number
        state.last_timestamp = block.timestamp
        if state is self.anchor:
            self._check_liveness(state, block)
        self.evaluate()

    def _state_for(self, chain: Any) -> _ChainState:
        for state in self._chains:
            if state.chain is chain:
                return state
        raise ValueError(f"block from unattached chain {chain.profile.name}")

    def _check_conservation(self, state: _ChainState, block: Any) -> None:
        chain = state.chain
        supply = sum(chain._acct_balances)
        minted = chain.minted_total
        burned = chain.burned_total
        locked = chain.locked_total
        drift = supply + burned + locked - minted
        if drift != 0:
            self._violate(
                "balance_conservation", state, block,
                f"balances {supply} + burned {burned} + locked {locked} "
                f"!= minted {minted} (drift {drift:+d} base units)",
            )

    def _check_nonces(self, state: _ChainState, block: Any) -> None:
        for tx in block.transactions:
            pair = (tx.sender, tx.nonce)
            if pair in state.included_pairs:
                self._violate(
                    "nonce_monotonicity", state, block,
                    f"duplicate inclusion of nonce {tx.nonce} from {tx.sender[:16]}...",
                )
                continue
            state.included_pairs.add(pair)
            last = state.last_nonce.get(tx.sender)
            if last is not None and tx.nonce <= last:
                self._violate(
                    "nonce_monotonicity", state, block,
                    f"nonce {tx.nonce} from {tx.sender[:16]}... included after {last}",
                )
            state.last_nonce[tx.sender] = max(last if last is not None else -1, tx.nonce)

    def _check_liveness(self, state: _ChainState, block: Any) -> None:
        due = self._deadlines.pop(block.number, None)
        if not due:
            return
        for key in due:
            entry = self._tracked.get(key)
            if entry is None:
                continue  # resolved in time
            trace_id, _ = entry
            self._violate(
                "proof_liveness", state, block,
                f"proof {key!r} not anchored within {self.liveness_blocks} blocks",
                trace_ids=(trace_id,) if trace_id else (),
            )

    # ------------------------------------------------------------------
    # batch coverage

    def check_batch(self, batch: Any, provers: dict[str, Any] | None = None) -> None:
        state = self.anchor
        block = state.chain.last_block
        root = bytes.fromhex(batch.root_hex)
        for record in batch.records:
            key = (record.olc, record.did_uint)
            if provers is not None:
                prover = provers.get(record.prover_name)
                retained = prover.batch_inclusions.get(batch.batch_id) if prover is not None else None
            else:
                retained = batch.proofs.get(record.did_uint)
            if retained is None:
                self._violate(
                    "batch_inclusion", state, block,
                    f"batch {batch.batch_id}: no retained inclusion path for did {record.did_uint}",
                )
                continue
            if not retained.verify(record.leaf, root):
                self._violate(
                    "batch_inclusion", state, block,
                    f"batch {batch.batch_id}: retained path for did {record.did_uint} "
                    "does not verify against the anchored root",
                )
                continue
            self.resolve_proof(key)

    # ------------------------------------------------------------------
    # confirmations, events, exceptions

    def observe_confirmation(self, chain: Any, receipt: Any, trace_id: str | None = None) -> None:
        if self.slo is None or receipt.included_at is None or receipt.confirmed_at is None:
            return
        self.slo.observe(
            "confirm_latency_seconds",
            self.recorder.now(),
            receipt.confirmed_at - receipt.included_at,
        )

    def note(self, kind: str, **fields: Any) -> None:
        self.flight.note(kind, **fields)

    def report_exception(self, exc: BaseException, label: str = "") -> None:
        self.note("exception", error=f"{type(exc).__name__}: {exc}", label=label)
        self._dump("exception", f"{type(exc).__name__} in {label or 'event'}: {exc}")

    def _on_queue_exception(self, exc: BaseException, label: str) -> None:
        self.report_exception(exc, label)

    # ------------------------------------------------------------------
    # SLO evaluation

    def evaluate(self) -> None:
        if self.slo is None:
            return
        now = self.recorder.now()
        self.flight.poll()
        transitions = self.slo.evaluate(now, self._gauges())
        self._apply_transitions(transitions)

    def _gauges(self) -> dict[str, float]:
        gauges: dict[str, float] = {}
        gaps = [state.last_gap for state in self._chains if state.last_gap is not None]
        if gaps:
            gauges["block_gap_seconds"] = max(gaps)
        fees = [
            getattr(state.chain, "base_fee", None)
            for state in self._chains
            if getattr(state.chain, "base_fee", None) is not None
        ]
        if fees:
            gauges["base_fee"] = float(max(fees))
        replication = [
            health for health in (dht.replication_health() for dht in self._dhts) if health is not None
        ]
        if replication:
            gauges["dht_replication_live"] = float(min(replication))
        return gauges

    def _apply_transitions(self, transitions: list[AlertTransition]) -> None:
        if not transitions:
            return
        recorder = self.recorder
        now = recorder.now()
        self.transitions.extend(transitions)
        for transition in transitions:
            recorder.counter(
                "slo_alert_transitions_total", alert=transition.alert, state=transition.state
            )
            gauge = self._alert_state_gauges.get(transition.alert)
            if gauge is None:
                gauge = self._alert_state_gauges[transition.alert] = recorder.gauge_handle(
                    "slo_alert_state", alert=transition.alert
                )
            gauge.set(STATE_CODES[transition.state])
            self.note(
                "alert", alert=transition.alert,
                previous=transition.previous, state=transition.state,
                value=transition.value,
            )
            if transition.state == "firing":
                recorder.counter("slo_alerts_fired_total", alert=transition.alert)
                self._dump("alert", f"alert {transition.alert} firing at t={now:.3f}s")

    # ------------------------------------------------------------------
    # violations + bundles

    def _violate(
        self,
        invariant: str,
        state: _ChainState,
        block: Any,
        detail: str,
        trace_ids: tuple[str, ...] = (),
    ) -> None:
        violation = InvariantViolation(
            invariant=invariant,
            chain=state.name,
            sim_time=self.recorder.now(),
            height=block.number,
            detail=detail,
            trace_ids=trace_ids,
        )
        self.violations.append(violation)
        counter = self._violations_total.get(invariant)
        if counter is None:
            counter = self._violations_total[invariant] = self.recorder.counter_handle(
                "watchtower_violations_total", invariant=invariant
            )
        counter.add()
        self.note("violation", invariant=invariant, chain=state.name, detail=detail)
        self._dump("invariant", str(violation), violations=[violation], trace_ids=violation.trace_ids)

    def _dump(
        self,
        kind: str,
        detail: str,
        violations: list[InvariantViolation] | None = None,
        trace_ids: tuple[str, ...] = (),
    ) -> None:
        self.flight.dump(
            kind,
            detail,
            chains=[state.chain for state in self._chains],
            trace_ids=list(trace_ids),
            violations=violations if violations is not None else [],
            alerts=self.slo.summary() if self.slo is not None else {},
        )

    # ------------------------------------------------------------------
    # end of run

    def finish(self) -> list[InvariantViolation]:
        """End-of-run sweep: unresolved proofs, finish-time SLOs."""
        if self._finished:
            return list(self.violations)
        self._finished = True
        if self._chains:
            state = self.anchor
            block = state.chain.last_block
            for key, (trace_id, _) in sorted(self._tracked.items(), key=lambda item: repr(item[0])):
                self._violate(
                    "proof_liveness", state, block,
                    f"proof {key!r} never anchored (accepted but unresolved at end of run)",
                    trace_ids=(trace_id,) if trace_id else (),
                )
        if self.slo is not None:
            now = self.recorder.now()
            fee_per_proof = None
            if self.fee_budget is not None and self._proofs_resolved:
                fee_per_proof = self._fees_paid() / self._proofs_resolved
            self._apply_transitions(
                self.slo.finish(
                    now,
                    tracked=self._proofs_tracked,
                    resolved=self._proofs_resolved,
                    fee_per_proof=fee_per_proof,
                )
            )
        return list(self.violations)

    def _fees_paid(self) -> float:
        histograms = getattr(self.recorder, "_histograms", {})
        return float(
            sum(hist.total for (name, _), hist in histograms.items() if name == "chain_fee_paid_base_units")
        )

    # ------------------------------------------------------------------
    # reporting

    def summary(self) -> dict[str, Any]:
        """Serializable run outcome (CLI, chaos report, tests)."""
        alerts = self.slo.summary() if self.slo is not None else {}
        return {
            "violations": [str(violation) for violation in self.violations],
            "alerts_fired": sorted(alert.rule.name for alert in self.slo.fired()) if self.slo else [],
            "alerts": alerts,
            "proofs": {"tracked": self._proofs_tracked, "resolved": self._proofs_resolved},
            "bundles": len(self.flight.bundles),
            "checks": {state.name: state.checks for state in self._chains},
        }


__all__ = [
    "InvariantViolation",
    "NullWatchtower",
    "NULL_WATCHTOWER",
    "Watchtower",
    "SloRule",
    "SloEngine",
    "default_rules",
]
