"""Alert fidelity against PR-3 fault plans as labelled ground truth.

Each injected fault class must fire exactly its matching detector
(recall AND precision over the fault-labelled rules), and clean seeded
runs on both chain families must fire nothing at all.  The class-to-
alert mapping is the ``fault_kind`` field on the default SLO rules.
"""

import pytest

from repro.bench.simulation import run_simulation, run_traced_journeys
from repro.faults import FaultPlan, RetryPolicy, run_chaos
from repro.faults.plan import FaultWindow
from repro.obs.monitor import Watchtower
from repro.obs.recorder import Recorder

FAMILIES = ("goerli", "algorand-testnet")

#: fault class -> the alert that is its labelled detector.
MATRIX = {
    "tx_rejection": "tx-retry-burn",
    "fee_spike": "fee-spike",
    "block_stall": "block-stall",
    "dht_churn": "dht-replication",
    "radio_flap": "radio-send-failure",
}


def monitored_run(network, users, *, plan=None, seed=1):
    """A monitored concurrent run; returns the finished watchtower."""
    recorder = Recorder()
    watchtower = Watchtower(recorder)
    run_simulation(
        network, users, seed=seed, recorder=recorder, faults=plan,
        watchtower=watchtower,
        concurrent=True,
    )
    watchtower.finish()
    return watchtower


def labelled_fired(watchtower) -> set[str]:
    """Names of fired alerts that detect an injected fault class."""
    return {
        alert.rule.name
        for alert in watchtower.slo.fired()
        if alert.rule.fault_kind
    }


class TestCleanRunsFireNothing:
    """Zero false positives: no faults -> no alerts, no violations."""

    @pytest.mark.parametrize("network", FAMILIES)
    def test_16_users_thesis_workload(self, network):
        watchtower = monitored_run(network, 16)
        summary = watchtower.summary()
        assert summary["violations"] == []
        assert summary["alerts_fired"] == []
        assert summary["proofs"] == {"tracked": 16, "resolved": 16}

    @pytest.mark.parametrize("network", FAMILIES)
    def test_1k_users_system_facade(self, network):
        recorder = Recorder()
        watchtower = Watchtower(recorder)
        run_traced_journeys(
            network, 1000, seed=3, sample_every=50, watchtower=watchtower
        )
        violations = watchtower.finish()
        summary = watchtower.summary()
        assert violations == []
        assert summary["alerts_fired"] == []
        assert summary["proofs"] == {"tracked": 1000, "resolved": 1000}


class TestEachFaultClassFiresItsAlert:
    """Recall and precision per class: a plan injecting only class C
    fires C's detector and no other fault-labelled detector."""

    def test_tx_rejection(self):
        plan = FaultPlan(
            seed=11,
            reject_submissions=frozenset({0, 3, 6, 9}),
            policy=RetryPolicy(),
        )
        watchtower = monitored_run("goerli", 16, plan=plan)
        assert labelled_fired(watchtower) == {MATRIX["tx_rejection"]}
        assert watchtower.summary()["violations"] == []

    def test_fee_spike(self):
        plan = FaultPlan(
            seed=12,
            windows=(FaultWindow("fee_spike", 30.0, 200.0, 3.0),),
            policy=RetryPolicy(),
        )
        watchtower = monitored_run("goerli", 16, plan=plan)
        assert labelled_fired(watchtower) == {MATRIX["fee_spike"]}
        assert watchtower.summary()["violations"] == []

    def test_block_stall(self):
        plan = FaultPlan(
            seed=13,
            windows=(FaultWindow("block_stall", 30.0, 150.0, 12.0),),
            policy=RetryPolicy(),
        )
        watchtower = monitored_run("goerli", 16, plan=plan)
        assert labelled_fired(watchtower) == {MATRIX["block_stall"]}
        assert watchtower.summary()["violations"] == []

    def test_dht_churn(self):
        plan = FaultPlan(seed=14, churn_rounds=2, policy=RetryPolicy())
        recorder = Recorder()
        watchtower = Watchtower(recorder)
        report = run_chaos(
            "goerli", 8, seed=1, recorder=recorder, plan=plan,
            watchtower=watchtower,
        )
        assert labelled_fired(watchtower) == {MATRIX["dht_churn"]}
        assert report.violations == []

    def test_radio_flap(self):
        plan = FaultPlan(seed=15, radio_flaps=((1, 3),), policy=RetryPolicy())
        recorder = Recorder()
        watchtower = Watchtower(recorder)
        report = run_chaos(
            "goerli", 8, seed=1, recorder=recorder, plan=plan,
            watchtower=watchtower,
        )
        assert labelled_fired(watchtower) == {MATRIX["radio_flap"]}
        assert report.violations == []

    def test_generated_plan_covers_its_classes(self):
        """A full generated plan (the CI chaos seed) fires a detector for
        every class it injects and none it does not."""
        plan = FaultPlan.generate(7)
        recorder = Recorder()
        watchtower = Watchtower(recorder)
        report = run_chaos(
            "goerli", 8, seed=1, recorder=recorder, plan=plan,
            watchtower=watchtower,
        )
        expected = set()
        if plan.reject_submissions:
            expected.add(MATRIX["tx_rejection"])
        if any(w.kind == "fee_spike" for w in plan.windows):
            expected.add(MATRIX["fee_spike"])
        if any(w.kind == "block_stall" for w in plan.windows):
            expected.add(MATRIX["block_stall"])
        if plan.churn_rounds:
            expected.add(MATRIX["dht_churn"])
        if plan.radio_flaps:
            expected.add(MATRIX["radio_flap"])
        fired = labelled_fired(watchtower)
        # fee spikes can fall entirely outside the run's active window;
        # every other planned class must be detected.
        assert fired - {"fee-spike"} == expected - {"fee-spike"}
        assert fired <= expected
        assert report.violations == []
