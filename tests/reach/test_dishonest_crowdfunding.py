"""The crowdfunding contract against dishonest participants.

A malicious backer or owner controls their frontend completely, so
every safety property must hold from published, on-chain data alone.
The lint gate checks that statically: the model checker plays every
participant as an adversary (replayed calls, clock rushes, silent
parties) over both emitted artifacts, and the balance analysis proves
each transfer fundable from the balance guard, not from trust.  The
runtime tests show the VM enforcing the same promises.
"""

import pytest

from repro.chain.ethereum import EthereumChain
from repro.reach.absint.balance import analyze_balance
from repro.reach.compiler import compile_program
from repro.reach.parser import parse_contract_file
from repro.reach.runtime import ReachCallError, ReachClient

FUNDING = 10**18


@pytest.fixture(scope="module")
def program():
    return parse_contract_file("contracts/crowdfunding.rsh")


class TestDishonestTheorems:
    def test_dishonest_mode_runs_and_passes(self, program):
        report = compile_program(program).lint_report()
        assert report.failures == []
        adversarial = [f for f in report.findings if f.theorem.startswith("MC-")]
        assert adversarial, "the adversarial-interleaving sweep must be exercised"
        assert all("exhaustive to depth" in f.message for f in adversarial)

    def test_transfers_stay_fundable_against_dishonest_backers(self, program):
        # the refund path must be provably fundable even when amounts
        # come from a hostile frontend -- the balance guard, not trust,
        # is what the analysis certifies
        compiled = compile_program(program)
        checks = analyze_balance(compiled).checks
        assert any(check.owner == "settleAPI.refund" for check in checks)
        assert all(check.ok for check in checks)
        assert not any(f.theorem == "ABSINT-BAL-TRANSFER" for f in compiled.lint_report().findings)


class TestDishonestRuntime:
    """On-chain enforcement: what the verifier promises, the VM delivers."""

    @pytest.fixture(scope="class")
    def deployed(self, program):
        chain = EthereumChain(profile="eth-devnet", seed=23, validator_count=4)
        client = ReachClient(chain)
        compiled = compile_program(program)
        owner = chain.create_account(seed=b"owner", funding=FUNDING)
        deployed = client.deploy(compiled, owner, ["save the lighthouse"])
        backer = chain.create_account(seed=b"backer", funding=FUNDING)
        return {"deployed": deployed, "backer": backer, "owner": owner}

    def test_underpaying_a_pledge_reverts(self, deployed):
        # pledge declares `pays amount`: a dishonest frontend attaching
        # less value than it claims is rejected by the generated check
        with pytest.raises(ReachCallError):
            deployed["deployed"].attach_and_call(
                "backerAPI.pledge", 1, 500, sender=deployed["backer"], pay=100
            )

    def test_honest_pledge_is_accepted(self, deployed):
        result = deployed["deployed"].attach_and_call(
            "backerAPI.pledge", 2, 500, sender=deployed["backer"], pay=500
        )
        assert result.value == 500
