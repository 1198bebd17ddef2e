"""Cost analysis soundness: live receipts must fit the static intervals.

``analyze_costs`` promises full-receipt EVM gas intervals (intrinsic +
dispatch + VM - refund) and TEAL opcode/budget-pool intervals per entry
point.  These tests drive the actual simulators through the contract
lifecycle and assert every measured receipt lands inside its entry
point's interval -- in both directions, so the bounds stay honest
rather than trivially wide.
"""

import pytest

from repro.chain.algorand.avm import DEFAULT_OPCODE_BUDGET
from repro.chain.ethereum import EthereumChain
from repro.core.contract import build_pol_program, pol_record
from repro.reach.absint.cost import analyze_costs
from repro.reach.compiler import compile_program
from repro.reach.parser import parse_contract_file
from repro.reach.runtime import ReachClient

FUNDING = 10**18


@pytest.fixture(scope="module")
def compiled():
    return compile_program(build_pol_program(max_users=2, reward=5_000, verify_timeout=3_600))


@pytest.fixture(scope="module")
def costs(compiled):
    return analyze_costs(compiled)


def in_interval(gas: int, interval) -> bool:
    return interval.lo <= gas and (interval.hi is None or gas <= interval.hi)


class TestEvmReceiptsWithinBounds:
    @pytest.fixture(scope="class")
    def lifecycle_receipts(self, compiled):
        """Receipts keyed by entry point from one full EVM lifecycle."""
        chain = EthereumChain(profile="eth-devnet", seed=11, validator_count=4)
        client = ReachClient(chain)
        creator = chain.create_account(seed=b"creator", funding=FUNDING)
        attacher = chain.create_account(seed=b"attacher", funding=FUNDING)
        verifier = chain.create_account(seed=b"verifier", funding=FUNDING)
        record = pol_record("hash-c", "sig-c", creator.address, 111, "cid-c")
        deployed = client.deploy(compiled, creator, ["7H369F4W+Q9", 9_999, record])
        receipts = dict(
            zip(("constructor", "publish0"), deployed.deploy_result.receipts)
        )
        record2 = pol_record("hash-a", "sig-a", attacher.address, 222, "cid-a")
        result = deployed.attach_and_call(
            "attacherAPI.insert_data", record2, 222, sender=attacher
        )
        receipts["attacherAPI.insert_data"] = result.receipts[-1]
        result = deployed.api("verifierAPI.insert_money", 12_000, sender=verifier, pay=12_000)
        receipts["verifierAPI.insert_money"] = result.receipts[-1]
        result = deployed.api("verifierAPI.verify", 9_999, creator.address, sender=verifier)
        receipts["verifierAPI.verify"] = result.receipts[-1]
        return receipts

    @pytest.mark.parametrize(
        "entry",
        [
            "constructor",
            "publish0",
            "attacherAPI.insert_data",
            "verifierAPI.insert_money",
            "verifierAPI.verify",
        ],
    )
    def test_receipt_gas_within_interval(self, entry, costs, lifecycle_receipts):
        receipt = lifecycle_receipts[entry]
        interval = costs.entries[entry].evm_gas
        assert in_interval(receipt.gas_used, interval), (
            f"{entry}: measured {receipt.gas_used} outside {interval}"
        )


class TestIntervalShape:
    def test_every_entry_point_has_a_row(self, compiled, costs):
        assert set(costs.entries) == set(compiled.ir.functions)

    def test_upper_bounds_are_finite(self, costs):
        # the DSL has no intra-method loops, so every entry is bounded
        for entry in costs.entries.values():
            assert entry.evm_gas.hi is not None
            assert entry.teal_ops.hi is not None

    def test_intervals_are_ordered(self, costs):
        for entry in costs.entries.values():
            assert entry.evm_gas.lo <= entry.evm_gas.hi
            assert entry.teal_ops.lo <= entry.teal_ops.hi

    def test_pool_matches_teal_ops(self, costs):
        for entry in costs.entries.values():
            expected = max(1, -(-entry.teal_ops.hi // DEFAULT_OPCODE_BUDGET))
            assert entry.avm_pool.hi == expected
            assert entry.within_avm_budget

    def test_render_lists_every_entry(self, costs):
        table = costs.render()
        for name in costs.entries:
            assert name in table


class TestSecondContract:
    def test_crowdfunding_costs_are_bounded(self):
        program = parse_contract_file("contracts/crowdfunding.rsh")
        costs = analyze_costs(compile_program(program))
        for entry in costs.entries.values():
            assert entry.evm_gas.hi is not None
            assert entry.within_avm_budget


class TestBatchAmortization:
    """The ``COST-BATCH-AMORTIZED`` theorem over the PoL contract."""

    @pytest.fixture(scope="class")
    def amortization(self, costs):
        from repro.reach.absint.cost import batch_amortization

        result = batch_amortization(costs)
        assert result is not None
        return result

    def test_contract_without_insert_batch_has_no_theorem(self):
        from repro.reach.absint.cost import batch_amortization

        program = parse_contract_file("contracts/crowdfunding.rsh")
        assert batch_amortization(analyze_costs(compile_program(program))) is None

    def test_interval_dominance_holds_from_two(self, amortization):
        assert amortization.dominates(2)
        assert amortization.dominates_from == 2

    def test_per_proof_interval_shrinks_monotonically(self, amortization):
        previous = amortization.per_proof(2)
        for count in range(3, 33):
            current = amortization.per_proof(count)
            assert current.lo <= previous.lo and current.hi <= previous.hi
            previous = current

    def test_break_even_is_the_adversarial_crossover(self, amortization):
        # break_even is the smallest n >= 2 where even the batch's
        # worst case beats the single submission's best case.
        n = amortization.break_even
        assert n >= 2
        assert amortization.per_proof(n).hi <= amortization.single_gas.lo
        if n > 2:
            assert amortization.per_proof(n - 1).hi > amortization.single_gas.lo

    def test_single_cost_includes_the_handshake(self, amortization, costs):
        # An unbatched submission pays the attach ceremony's handshake
        # transfer on top of the insert_data call itself.
        assert amortization.single_gas.lo > costs.entries["attacherAPI.insert_data"].evm_gas.lo

    def test_avm_batch_fits_one_pooled_fee(self, amortization):
        assert amortization.avm_batch_pool_flat
