"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SloRule` describes one service-level objective over the
recorder's metric streams: a counter burn budget (``chain_tx_retries_total``
must not grow), a gauge threshold (block production gap, DHT replication
health), a jump-ratio detector (EIP-1559 base fee vs its recent minimum),
a latency percentile, or an end-of-run objective (journey completeness,
fee-per-proof budget).

The :class:`SloEngine` evaluates every rule on the *sim clock* whenever the
watchtower asks (block boundaries, explicit probes, run finish) and drives
a pending -> firing -> resolved state machine per rule:

``inactive -> pending``
    the rule breached; the alert waits out ``for_duration`` sim-seconds
``pending -> firing``
    the breach persisted (with ``for_duration == 0`` both transitions
    happen on the same evaluation tick)
``pending -> inactive``
    the breach cleared before the alert fired (a blip, not an incident)
``firing -> resolved``
    the breach cleared; ``resolved`` is sticky until the next breach

Burn-rate rules use the classic multi-window trick: the budget must be
exceeded over *both* a short window (fast detection) and a long window
(resistance to single-sample noise).  Counters are cumulative, so the
long-window delta always dominates the short one and the short window is
the effective trigger; the long window exists to keep a stale breach from
re-firing after traffic stops.

Alert state changes are emitted as first-class recorder metrics
(``slo_alert_state``, ``slo_alert_transitions_total``,
``slo_alerts_fired_total``) so they land in traces, Prometheus exports,
and post-mortem bundles like any other telemetry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from .analysis import percentile

#: Numeric encoding for the ``slo_alert_state`` gauge.
STATE_CODES = {"inactive": 0.0, "pending": 1.0, "firing": 2.0, "resolved": 3.0}


@dataclass(frozen=True)
class SloRule:
    """One declarative objective.

    ``kind`` selects the evaluator:

    - ``counter_burn``: the summed counter ``source`` must not grow by
      ``threshold`` or more within both burn windows.
    - ``gauge_above`` / ``gauge_below``: the sampled gauge ``source``
      breaches when it is ``>= threshold`` / ``< threshold``.
    - ``jump_ratio``: the gauge breaches when its current value is at
      least ``threshold`` times its minimum over the short window.
    - ``latency_p99``: breaches when the p99 of the last
      ``short_window`` seconds of observed latencies (at least
      ``min_samples`` of them) reaches ``threshold``.
    - ``finish_ratio`` / ``finish_budget``: evaluated only by
      :meth:`SloEngine.finish` against end-of-run aggregates.

    ``fault_kind`` names the PR-3 fault class this alert is the detector
    for (the labelled ground truth used by the fidelity matrix); rules
    that detect no injected fault leave it empty.
    """

    name: str
    description: str
    kind: str
    source: str
    threshold: float
    fault_kind: str = ""
    short_window: float = 60.0
    long_window: float = 300.0
    for_duration: float = 0.0
    min_samples: int = 1


@dataclass(frozen=True)
class AlertTransition:
    """One edge of an alert's state machine, stamped with sim time."""

    alert: str
    previous: str
    state: str
    sim_time: float
    value: float | None = None


class Alert:
    """Mutable runtime state for one rule."""

    def __init__(self, rule: SloRule):
        self.rule = rule
        self.state = "inactive"
        self.pending_since: float | None = None
        self.times_fired = 0
        self.last_value: float | None = None
        self.last_change = 0.0

    def update(self, breached: bool, now: float, value: float | None) -> list[AlertTransition]:
        """Advance the state machine one tick; return the edges taken."""
        transitions: list[AlertTransition] = []

        def move(state: str) -> None:
            transitions.append(AlertTransition(self.rule.name, self.state, state, now, value))
            self.state = state
            self.last_change = now

        self.last_value = value
        if breached:
            if self.state in ("inactive", "resolved"):
                move("pending")
                self.pending_since = now
            since = self.pending_since if self.pending_since is not None else now
            if self.state == "pending" and now - since >= self.rule.for_duration:
                move("firing")
                self.times_fired += 1
        else:
            if self.state == "pending":
                move("inactive")
            elif self.state == "firing":
                move("resolved")
        return transitions


class SloEngine:
    """Evaluates a rule set against a :class:`~repro.obs.recorder.Recorder`.

    The engine never *pushes* samples on the hot path by itself: the
    watchtower feeds it gauge snapshots and latency observations, and
    counter totals are read straight off the recorder at evaluation
    time (cheap: a sum over the few label-sets of one metric name).
    """

    def __init__(self, recorder: Any, rules: list[SloRule] | tuple[SloRule, ...]):
        self.recorder = recorder
        self.rules = tuple(rules)
        self.alerts = {rule.name: Alert(rule) for rule in self.rules}
        # Cumulative counter samples per counter_burn rule: (sim_time, total).
        # Seeded at construction so deltas measured before the first full
        # window still see growth from the start of the run.
        self._counter_series: dict[str, deque[tuple[float, float]]] = {}
        # Recent gauge samples per jump_ratio rule.
        self._ratio_series: dict[str, deque[tuple[float, float]]] = {}
        # Raw latency observations per source, trimmed to the short window.
        self._samples: dict[str, deque[tuple[float, float]]] = {}
        now = recorder.now()
        for rule in self.rules:
            if rule.kind == "counter_burn":
                self._counter_series[rule.name] = deque([(now, self._counter_total(rule.source))])
            elif rule.kind == "jump_ratio":
                self._ratio_series[rule.name] = deque()

    # ------------------------------------------------------------------
    # sample intake

    def observe(self, source: str, now: float, value: float) -> None:
        """Feed one latency observation to every ``latency_p99`` rule on ``source``."""
        series = self._samples.setdefault(source, deque())
        series.append((now, value))

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, now: float, gauges: dict[str, float]) -> list[AlertTransition]:
        """Evaluate every online rule; return the state transitions taken."""
        transitions: list[AlertTransition] = []
        for rule in self.rules:
            if rule.kind in ("finish_ratio", "finish_budget"):
                continue
            breached, value = self._probe(rule, now, gauges)
            if breached is None:
                continue  # no sample for this rule yet
            transitions.extend(self.alerts[rule.name].update(breached, now, value))
        return transitions

    def finish(
        self,
        now: float,
        *,
        tracked: int = 0,
        resolved: int = 0,
        fee_per_proof: float | None = None,
    ) -> list[AlertTransition]:
        """Evaluate the end-of-run objectives."""
        transitions: list[AlertTransition] = []
        for rule in self.rules:
            if rule.kind == "finish_ratio" and tracked > 0:
                ratio = resolved / tracked
                transitions.extend(self.alerts[rule.name].update(ratio < rule.threshold, now, ratio))
            elif rule.kind == "finish_budget" and fee_per_proof is not None:
                breached = fee_per_proof > rule.threshold
                transitions.extend(self.alerts[rule.name].update(breached, now, fee_per_proof))
        return transitions

    def _probe(self, rule: SloRule, now: float, gauges: dict[str, float]) -> tuple[bool | None, float | None]:
        """Return (breached, observed value); (None, None) when no sample exists."""
        if rule.kind == "counter_burn":
            total = self._counter_total(rule.source)
            series = self._counter_series[rule.name]
            series.append((now, total))
            while len(series) > 2 and series[1][0] <= now - rule.long_window:
                series.popleft()
            short_delta = total - self._baseline(series, now - rule.short_window)
            long_delta = total - self._baseline(series, now - rule.long_window)
            return (short_delta >= rule.threshold and long_delta >= rule.threshold, short_delta)
        if rule.kind in ("gauge_above", "gauge_below"):
            value = gauges.get(rule.source)
            if value is None:
                return (None, None)
            breached = value >= rule.threshold if rule.kind == "gauge_above" else value < rule.threshold
            return (breached, value)
        if rule.kind == "jump_ratio":
            value = gauges.get(rule.source)
            if value is None:
                return (None, None)
            series = self._ratio_series[rule.name]
            series.append((now, value))
            while len(series) > 1 and series[0][0] < now - rule.short_window:
                series.popleft()
            floor = min(sample for _, sample in series)
            ratio = value / floor if floor > 0 else 1.0
            return (ratio >= rule.threshold, ratio)
        if rule.kind == "latency_p99":
            series = self._samples.get(rule.source)
            if not series:
                return (None, None)
            while series and series[0][0] < now - rule.short_window:
                series.popleft()
            if len(series) < rule.min_samples:
                return (False, None)
            p99 = percentile([value for _, value in series], 99)
            return (p99 >= rule.threshold, p99)
        raise ValueError(f"unknown SLO rule kind {rule.kind!r}")

    @staticmethod
    def _baseline(series: deque[tuple[float, float]], cutoff: float) -> float:
        """The counter total at-or-before ``cutoff`` (run start if younger)."""
        baseline = series[0][1]
        for when, total in series:
            if when > cutoff:
                break
            baseline = total
        return baseline

    def _counter_total(self, name: str) -> float:
        """Sum one counter across its label sets (mirrors analysis)."""
        counters = getattr(self.recorder, "_counters", {})
        return float(sum(value for (metric, _), value in counters.items() if metric == name))

    # ------------------------------------------------------------------
    # reporting

    def firing(self) -> list[Alert]:
        """Alerts currently in the ``firing`` state."""
        return [alert for alert in self.alerts.values() if alert.state == "firing"]

    def fired(self) -> list[Alert]:
        """Alerts that fired at least once during the run."""
        return [alert for alert in self.alerts.values() if alert.times_fired > 0]

    def summary(self) -> dict[str, dict[str, Any]]:
        """Serializable per-alert state for bundles and CLI output."""
        return {
            name: {
                "state": alert.state,
                "times_fired": alert.times_fired,
                "last_value": alert.last_value,
                "last_change": alert.last_change,
                "fault_kind": alert.rule.fault_kind,
                "description": alert.rule.description,
            }
            for name, alert in sorted(self.alerts.items())
        }


def default_rules(
    profile: Any,
    *,
    min_replication: int = 2,
    latency_budget: float | None = None,
    fee_budget: float | None = None,
) -> list[SloRule]:
    """The stock rule set for one chain profile.

    Thresholds are chosen so clean seeded runs (16 and 1000 users, both
    families) never breach, while each PR-3 fault class trips its
    detector: magnitudes in :func:`repro.faults.plan.FaultPlan.generate`
    start above every margin used here (stall >= +5s vs a +4s gap
    margin; fee spikes >= 2.5x vs a 2.0 ratio floor against an organic
    EIP-1559 worst case of ~1.8x over a minute).
    """
    block_time = float(getattr(profile, "block_time", 12.0))
    depth = int(getattr(profile, "confirmation_depth", 1))
    rules = [
        SloRule(
            name="tx-retry-burn",
            description="transaction retries burn the error budget",
            kind="counter_burn",
            source="chain_tx_retries_total",
            threshold=1.0,
            fault_kind="tx_rejection",
        ),
        SloRule(
            name="radio-send-failure",
            description="Bluetooth sends failing outright",
            kind="counter_burn",
            source="radio_send_failures_total",
            threshold=1.0,
            fault_kind="radio_flap",
        ),
        SloRule(
            name="block-stall",
            description="block production gap exceeds the cadence margin",
            kind="gauge_above",
            source="block_gap_seconds",
            threshold=block_time + 4.0,
            fault_kind="block_stall",
        ),
        SloRule(
            name="dht-replication",
            description="a stored record dropped below the replication floor",
            kind="gauge_below",
            source="dht_replication_live",
            threshold=float(min_replication),
            fault_kind="dht_churn",
        ),
        SloRule(
            name="confirm-latency-p99",
            description="p99 of the confirmation stage exceeds its budget",
            kind="latency_p99",
            source="confirm_latency_seconds",
            threshold=latency_budget if latency_budget is not None else depth * block_time + 30.0,
            min_samples=5,
        ),
        SloRule(
            name="journey-completeness",
            description="accepted proofs that anchored by end of run",
            kind="finish_ratio",
            source="journeys",
            threshold=1.0,
        ),
    ]
    if getattr(profile, "family", "") == "evm":
        rules.append(
            SloRule(
                name="fee-spike",
                description="base fee jumped vs its recent minimum",
                kind="jump_ratio",
                source="base_fee",
                threshold=2.0,
                fault_kind="fee_spike",
            )
        )
    if fee_budget is not None:
        rules.append(
            SloRule(
                name="fee-per-proof",
                description="mean fee per anchored proof exceeds budget",
                kind="finish_budget",
                source="fee_per_proof",
                threshold=fee_budget,
            )
        )
    return rules
