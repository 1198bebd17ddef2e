"""The model-checker -> chaos-harness bridge, end to end.

The acceptance loop: weaken the replay screen, let the checker refute
MC-SAFETY-REPLAY, export the minimized counterexample as an
:class:`AdversarySchedule`, replay it through the production client on
a simulated network -- and watch the violation reproduce on chain.
The same schedule against the honest artifact must NOT reproduce: the
runtime enforces the screen and rejects the replay.
"""

import json
from pathlib import Path

import pytest

from repro.faults import AdversarySchedule, AdversaryStep, run_adversary
from repro.reach.absint.modelcheck import check_protocol, protocol_findings, weaken_replay_screen
from repro.reach.compiler import compile_program
from repro.reach.parser import parse_contract

REPO = Path(__file__).resolve().parents[2]
POL = REPO / "contracts" / "proof_of_location.rsh"
GOLDEN = REPO / "tests" / "reach" / "golden" / "noreplay_cex.json"


@pytest.fixture(scope="module")
def pol():
    return compile_program(parse_contract(POL.read_text()))


@pytest.fixture(scope="module")
def replay_schedule(pol):
    # The schedule travels as the MC-CEX finding's payload, exactly as
    # `repro lint --json` emits it.
    findings = protocol_findings(check_protocol(weaken_replay_screen(pol, 0)))
    payload = next(
        f.data for f in findings if f.theorem == "MC-CEX" and f.data["theorem"] == "MC-SAFETY-REPLAY"
    )
    return AdversarySchedule.from_payload(payload)


class TestScheduleImport:
    def test_from_counterexample_shape(self, replay_schedule):
        assert replay_schedule.theorem == "MC-SAFETY-REPLAY"
        assert replay_schedule.steps[0].entry == "publish0"
        assert all(step.expect == "accepted" for step in replay_schedule.steps)

    def test_from_lint_json_payload(self):
        # The data dict `repro lint --json` emits round-trips into the
        # same schedule the in-process CounterExample produces.
        bundle = json.loads(GOLDEN.read_text())
        payload = next(
            f["data"] for f in bundle["findings"] if f["theorem"] == "MC-CEX"
        )
        schedule = AdversarySchedule.from_payload(payload)
        assert schedule.theorem == "MC-SAFETY-ANCHOR"
        assert schedule.steps[0].entry == "publish0"
        assert isinstance(schedule.steps[0].args[0], str)


class TestReplayEndToEnd:
    @pytest.mark.parametrize("network", ["goerli", "algorand-testnet"])
    def test_weakened_artifact_reproduces_on_chain(self, pol, replay_schedule, network):
        weakened = weaken_replay_screen(pol, 0)
        report = run_adversary(weakened, replay_schedule, network=network)
        assert report.reproduced, report.render()
        assert report.executed == len(replay_schedule.steps)
        assert "accepted a screened create" in report.detail

    def test_honest_artifact_rejects_the_replay(self, pol, replay_schedule):
        report = run_adversary(pol, replay_schedule, network="goerli")
        assert not report.reproduced
        assert "runtime enforces the screen" in report.detail

    def test_anchor_cex_reproduces_from_golden_payload(self):
        bundle = json.loads(GOLDEN.read_text())
        payload = next(f["data"] for f in bundle["findings"] if f["theorem"] == "MC-CEX")
        schedule = AdversarySchedule.from_payload(payload)
        broken = compile_program(
            parse_contract((REPO / "contracts" / "broken" / "proof_of_location_noreplay.rsh").read_text())
        )
        report = run_adversary(broken, schedule, network="goerli")
        assert report.reproduced, report.render()
        assert "clobbered" in report.detail

    def test_schedule_must_open_with_publish(self, pol):
        bad = AdversarySchedule(
            theorem="MC-SAFETY-REPLAY",
            backend="evm",
            steps=(AdversaryStep(actor="0x" + "0b" * 20, entry="attacherAPI.insert_data"),),
        )
        with pytest.raises(ValueError, match="publish0"):
            run_adversary(pol, bad, network="goerli")
