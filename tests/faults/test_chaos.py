"""End-to-end chaos harness tests: invariants, determinism, parity."""

import pytest

from repro.bench.simulation import run_simulation
from repro.faults import ChaosError, FaultPlan, RetryPolicy, run_chaos
from repro.faults.chaos import _check

NETWORK = "goerli"
USERS = 8
FAULT_SEED = 7


@pytest.fixture(scope="module")
def report():
    return run_chaos(NETWORK, USERS, seed=1, fault_seed=FAULT_SEED)


class TestChaosInvariants:
    def test_no_lost_proofs(self, report):
        assert len(report.result.timings) == USERS
        assert all(t.latency > 0 for t in report.result.timings)

    def test_every_transient_rejection_recovered(self, report):
        injected = report.injected.get("tx_rejection", 0)
        assert injected > 0  # the fixed seed does exercise the path
        assert report.recovered["tx_rejection"] == injected

    def test_dht_churn_healed(self, report):
        assert report.injected.get("dht_crash", 0) > 0
        assert report.read_repairs > 0

    def test_radio_flaps_recovered(self, report):
        assert report.recovered["radio_flap"] == report.injected.get("radio_flap", 0) > 0

    def test_summary_reports_success(self, report):
        assert "invariants: all held" in report.summary()
        assert f"{USERS}/{USERS}" in report.summary()

    def test_watchtower_liveness_held(self, report):
        assert report.violations == []

    def test_injected_faults_fired_their_alerts(self, report):
        # The seed-7 plan injects stalls, rejections, churn and flaps;
        # each class must surface as its labelled detector firing.
        assert "block-stall" in report.alerts_fired
        assert "tx-retry-burn" in report.alerts_fired
        assert "dht-replication" in report.alerts_fired
        assert "radio-send-failure" in report.alerts_fired

    def test_check_raises_chaos_error(self):
        with pytest.raises(ChaosError, match="went wrong"):
            _check(False, "went wrong")

    def test_deliberately_dropped_proof_fails_the_run(self):
        """Regression: the watchtower's proof-liveness invariant replaces
        the old counter-match assertions, so a proof that is tracked but
        never resolved must still fail the chaos run."""
        from repro.obs.monitor import Watchtower
        from repro.obs.recorder import Recorder

        class DroppingWatchtower(Watchtower):
            def __init__(self, recorder):
                super().__init__(recorder)
                self.dropped = None

            def resolve_proof(self, key):
                if self.dropped is None:
                    self.dropped = key  # swallow the first resolution
                    return
                super().resolve_proof(key)

        recorder = Recorder()
        watchtower = DroppingWatchtower(recorder)
        with pytest.raises(ChaosError, match="proof_liveness"):
            run_chaos(
                NETWORK, USERS, seed=1, fault_seed=FAULT_SEED,
                recorder=recorder, watchtower=watchtower,
            )
        assert watchtower.dropped is not None


class TestChaosDeterminism:
    def test_same_fault_seed_reproduces_the_run(self, report):
        again = run_chaos(NETWORK, USERS, seed=1, fault_seed=FAULT_SEED)
        assert again.result.to_csv() == report.result.to_csv()
        assert again.injected == report.injected
        assert again.recovered == report.recovered
        assert again.read_repairs == report.read_repairs

    def test_different_fault_seed_changes_the_injections(self, report):
        other = run_chaos(NETWORK, USERS, seed=1, fault_seed=FAULT_SEED + 13)
        assert other.injected != report.injected or other.result.to_csv() != report.result.to_csv()


class TestFaultsDisabledParity:
    def test_empty_plan_run_matches_plain_concurrent_run(self):
        """Arming the recovery machinery without injecting anything must
        not move a single timing: watchdogs are cancelled on
        confirmation and never fire."""
        plain = run_simulation(NETWORK, USERS, seed=1, concurrent=True)
        armed = run_simulation(
            NETWORK,
            USERS,
            seed=1,
            faults=FaultPlan.empty(policy=RetryPolicy(timeout=10_000.0)),
            concurrent=True,
        )
        assert armed.to_csv() == plain.to_csv()
        assert armed.faults == {"seed": 0, "injected": {}}

    def test_serial_simulation_untouched_by_the_fault_layer(self):
        """run_simulation has no faults parameter at all; its output is
        the PR acceptance baseline."""
        first = run_simulation(NETWORK, USERS, seed=1)
        second = run_simulation(NETWORK, USERS, seed=1)
        assert first.to_csv() == second.to_csv()
        assert first.faults is None
