"""A second contract in the DSL: the language is general, not PoL-shaped.

A small crowdfunding DApp (one of the "examples of smart contracts"
the thesis lists in section 1.4.1: "lending apps, ... crowdfunding
apps"): backers pledge during a funding phase; if the goal is reached
the owner sweeps the pot, otherwise a refund phase lets each backer
reclaim their pledge.  Compiled and exercised on both connectors.
"""

from __future__ import annotations

import pytest

from repro.chain.algorand import AlgorandChain
from repro.chain.ethereum import EthereumChain
from repro.reach import ast as A
from repro.reach.compiler import compile_program
from repro.reach.runtime import ReachCallError, ReachClient
from repro.reach.types import Address, Bytes, Fun, UInt

GOAL = 10_000
FUNDING = 10**18


def build_crowdfunding(goal: int, pledge_window: float = 100.0) -> A.Program:
    """Declare the crowdfunding contract."""
    program = A.Program(name="crowdfunding", creator=A.Participant("Owner"))
    program.declare_global("raised", 0)
    program.declare_global("goal", goal)
    program.declare_global("open", 1)
    pledges = program.map("pledges", key_type=UInt, value_type=Bytes(64))

    program.publish(params=[("campaign", Bytes(128))], body=[A.SetGlobal("open", A.const(1))])

    pledge = A.ApiMethod(
        name="pledge",
        signature=Fun([UInt, UInt], UInt),  # (backer id, amount), pays amount
        pay=1,
        body=[
            A.Require(A.arg(1) > A.const(0), "pledge must be positive"),
            A.Require(pledges.contains(A.arg(0)).not_(), "backer already pledged"),
            pledges.set(A.arg(0), A.const("pledged")),
            A.SetGlobal("raised", A.glob("raised") + A.arg(1)),
            A.Return(A.glob("raised")),
        ],
    )
    # Funding phase ends when the goal is met (or the timeout fires).
    program.phase(
        name="funding",
        while_cond=A.glob("raised") < A.glob("goal"),
        apis=[A.ApiGroup("backerAPI", [pledge])],
        timeout=(pledge_window, []),
    )

    sweep = A.ApiMethod(
        name="sweep",
        signature=Fun([Address], UInt),
        body=[
            A.Require(A.caller().eq(A.glob("_creator")), "only the owner sweeps"),
            A.Require(A.balance() >= A.glob("goal"), "goal not reached"),
            A.Transfer(A.arg(0), A.balance()),
            A.SetGlobal("open", A.const(0)),
            A.Return(A.const(1)),
        ],
    )
    refund = A.ApiMethod(
        name="refund",
        signature=Fun([UInt, Address, UInt], UInt),
        body=[
            A.Require(pledges.contains(A.arg(0)), "no pledge recorded"),
            A.Require(A.balance() < A.glob("goal"), "campaign succeeded; no refunds"),
            A.If(
                A.balance() >= A.arg(2),
                then=[A.Transfer(A.arg(1), A.arg(2)), pledges.delete(A.arg(0))],
            ),
            A.Return(A.arg(2)),
        ],
    )
    program.phase(
        name="settlement",
        while_cond=A.glob("open") > A.const(0),
        apis=[A.ApiGroup("settleAPI", [sweep, refund])],
        timeout=(pledge_window, [A.Transfer(A.glob("_creator"), A.balance())]),
    )
    program.view("getRaised", A.glob("raised"))
    return program


def make_env(family: str, goal: int = GOAL):
    if family == "evm":
        chain = EthereumChain(profile="eth-devnet", seed=81, validator_count=4)
    else:
        chain = AlgorandChain(profile="algo-devnet", seed=81, participant_count=6)
    compiled = compile_program(build_crowdfunding(goal))
    client = ReachClient(chain)
    owner = chain.create_account(seed=b"owner", funding=FUNDING)
    backer = chain.create_account(seed=b"backer", funding=FUNDING)
    deployed = client.deploy(compiled, owner, ["save the hedgehogs"])
    return chain, deployed, owner, backer


class TestCrowdfunding:
    @pytest.mark.parametrize("family", ["evm", "avm"])
    def test_verifies_and_compiles(self, family):
        compiled = compile_program(build_crowdfunding(GOAL))
        assert compiled.lint_report().failures == []
        assert "backerAPI.pledge" in compiled.evm_code.methods
        assert 'byte "settleAPI.sweep"' in compiled.teal_source

    @pytest.mark.parametrize("family", ["evm", "avm"])
    def test_successful_campaign(self, family):
        chain, deployed, owner, backer = make_env(family)
        deployed.api("backerAPI.pledge", 1, 6_000, sender=backer, pay=6_000)
        result = deployed.api("backerAPI.pledge", 2, 4_000, sender=backer, pay=4_000)
        assert result.value == GOAL
        assert deployed.view("getRaised") == GOAL
        # Goal met -> funding phase closed.
        with pytest.raises(ReachCallError):
            deployed.api("backerAPI.pledge", 3, 100, sender=backer, pay=100)
        before = chain.balance_of(owner.address)
        sweep = deployed.api("settleAPI.sweep", owner.address, sender=owner)
        assert chain.balance_of(owner.address) == before + GOAL - sweep.fees
        assert deployed.balance == 0

    @pytest.mark.parametrize("family", ["evm", "avm"])
    def test_only_owner_sweeps(self, family):
        chain, deployed, owner, backer = make_env(family)
        deployed.api("backerAPI.pledge", 1, GOAL, sender=backer, pay=GOAL)
        with pytest.raises(ReachCallError):
            deployed.api("settleAPI.sweep", backer.address, sender=backer)

    @pytest.mark.parametrize("family", ["evm", "avm"])
    def test_failed_campaign_refunds(self, family):
        chain, deployed, owner, backer = make_env(family)
        deployed.api("backerAPI.pledge", 1, 3_000, sender=backer, pay=3_000)
        # The window lapses with the goal unmet.
        chain.queue.run_until(chain.queue.clock.now + 200.0)
        deployed.timeout(0, sender=backer)
        before = chain.balance_of(backer.address)
        refund = deployed.api("settleAPI.refund", 1, backer.address, 3_000, sender=backer)
        assert chain.balance_of(backer.address) == before + 3_000 - refund.fees
        # Double refund is rejected (the pledge row was deleted).
        with pytest.raises(ReachCallError):
            deployed.api("settleAPI.refund", 1, backer.address, 3_000, sender=backer)

    @pytest.mark.parametrize("family", ["evm", "avm"])
    def test_duplicate_backer_rejected(self, family):
        chain, deployed, owner, backer = make_env(family)
        deployed.api("backerAPI.pledge", 1, 100, sender=backer, pay=100)
        with pytest.raises(ReachCallError):
            deployed.api("backerAPI.pledge", 1, 100, sender=backer, pay=100)
