"""Tests for the EVM interpreter, gas metering and contract lifecycle."""

import pytest

from repro.chain import ChainService, TxStatus
from repro.chain.ethereum import EthereumChain
from repro.chain.ethereum.evm import EVM, EvmCode, EvmContract, Instr, VMError, VMRevert
from repro.chain.ethereum.gas import DEFAULT_SCHEDULE, calldata_gas, intrinsic_gas

ETH = 10**18


def run(instrs, args=None, caller="0xcaller", value=0, gas_limit=10_000_000, balance=0):
    contract = EvmContract(address="0xc0ffee", code=EvmCode(instrs=instrs, methods={}))
    return EVM().execute(
        contract,
        entry=0,
        args=args or [],
        caller=caller,
        value=value,
        gas_limit=gas_limit,
        self_balance=balance,
    )


class TestArithmetic:
    def test_add(self):
        result = run([Instr("PUSH", 2), Instr("PUSH", 3), Instr("ADD"), Instr("RETURN", 1)])
        assert result.return_value == 5

    def test_sub_wraps_like_evm(self):
        # Stack order: SUB pops a then b and computes a - b.
        result = run([Instr("PUSH", 1), Instr("PUSH", 3), Instr("SUB"), Instr("RETURN", 1)])
        assert result.return_value == 2

    def test_div_by_zero_is_zero(self):
        result = run([Instr("PUSH", 0), Instr("PUSH", 7), Instr("DIV"), Instr("RETURN", 1)])
        assert result.return_value == 0

    def test_comparisons(self):
        result = run([Instr("PUSH", 5), Instr("PUSH", 3), Instr("LT"), Instr("RETURN", 1)])
        assert result.return_value == 1  # pops 3 then 5 -> 3 < 5


class TestControlFlow:
    def test_jump_requires_jumpdest(self):
        with pytest.raises(VMError):
            run([Instr("JUMP", 1), Instr("PUSH", 1), Instr("RETURN", 1)])

    def test_jumpi_taken(self):
        result = run(
            [
                Instr("PUSH", 1),
                Instr("JUMPI", 4),
                Instr("PUSH", 111),
                Instr("RETURN", 1),
                Instr("JUMPDEST"),
                Instr("PUSH", 222),
                Instr("RETURN", 1),
            ]
        )
        assert result.return_value == 222

    def test_jumpi_not_taken(self):
        result = run(
            [
                Instr("PUSH", 0),
                Instr("JUMPI", 4),
                Instr("PUSH", 111),
                Instr("RETURN", 1),
                Instr("JUMPDEST"),
                Instr("PUSH", 222),
                Instr("RETURN", 1),
            ]
        )
        assert result.return_value == 111

    def test_require_reverts_on_false(self):
        with pytest.raises(VMRevert) as excinfo:
            run([Instr("PUSH", 0), Instr("REQUIRE", "must hold")])
        assert "must hold" in str(excinfo.value)

    def test_stack_underflow_is_vm_error(self):
        with pytest.raises(VMError):
            run([Instr("POP")])


class TestStorage:
    def test_sstore_then_sload(self):
        result = run(
            [
                Instr("PUSH", b"slot"),
                Instr("PUSH", 42),
                Instr("SSTORE"),
                Instr("PUSH", b"slot"),
                Instr("SLOAD"),
                Instr("RETURN", 1),
            ]
        )
        assert result.return_value == 42
        assert result.storage_writes == {b"slot": 42}

    def test_unset_slot_reads_zero(self):
        result = run([Instr("PUSH", b"nothing"), Instr("SLOAD"), Instr("RETURN", 1)])
        assert result.return_value == 0

    def test_cold_then_warm_sload_pricing(self):
        cold = run([Instr("PUSH", b"k"), Instr("SLOAD"), Instr("STOP")]).gas_used
        warm = run(
            [
                Instr("PUSH", b"k"),
                Instr("SLOAD"),
                Instr("POP"),
                Instr("PUSH", b"k"),
                Instr("SLOAD"),
                Instr("STOP"),
            ]
        ).gas_used
        extra = warm - cold
        # The second access must cost warm (100), not cold (2100).
        assert extra < DEFAULT_SCHEDULE.cold_sload

    def test_sstore_zero_to_nonzero_costs_sset(self):
        result = run([Instr("PUSH", b"k"), Instr("PUSH", 1), Instr("SSTORE"), Instr("STOP")])
        assert result.gas_used >= DEFAULT_SCHEDULE.sset

    def test_mapkey_derivation_distinct(self):
        result = run(
            [
                Instr("PUSH", 7),
                Instr("MAPKEY", 1),
                Instr("PUSH", 7),
                Instr("MAPKEY", 2),
                Instr("EQ"),
                Instr("RETURN", 1),
            ]
        )
        assert result.return_value == 0


class TestEnvironment:
    def test_caller_and_value(self):
        result = run([Instr("CALLER"), Instr("RETURN", 1)], caller="0xabc")
        assert result.return_value == "0xabc"
        result = run([Instr("CALLVALUE"), Instr("RETURN", 1)], value=9)
        assert result.return_value == 9

    def test_calldataload(self):
        result = run([Instr("CALLDATALOAD", 1), Instr("RETURN", 1)], args=[10, 20])
        assert result.return_value == 20

    def test_transfer_records_and_checks_balance(self):
        result = run(
            [Instr("PUSH", "0xdst"), Instr("PUSH", 40), Instr("TRANSFER"), Instr("STOP")],
            balance=100,
        )
        assert result.transfers == [("0xdst", 40)]
        with pytest.raises(VMRevert):
            run([Instr("PUSH", "0xdst"), Instr("PUSH", 400), Instr("TRANSFER"), Instr("STOP")], balance=100)

    def test_log_collects_events(self):
        result = run([Instr("PUSH", 5), Instr("LOG", ("Data", 1)), Instr("STOP")])
        assert result.logs == [("Data", (5,))]


class TestGasAccounting:
    def test_out_of_gas_reverts_with_limit(self):
        with pytest.raises(VMRevert) as excinfo:
            run([Instr("PUSH", b"k"), Instr("PUSH", 1), Instr("SSTORE"), Instr("STOP")], gas_limit=100)
        assert excinfo.value.gas_used == 100

    def test_intrinsic_gas_components(self):
        data = b"\x00\x01\x02"
        assert calldata_gas(data) == 4 + 16 + 16
        assert intrinsic_gas(data, is_create=False) == 21_000 + 36
        assert intrinsic_gas(data, is_create=True) == 21_000 + 36 + 32_000

    #: SLOAD a cold empty slot, branch on it, store into it, then fail a
    #: REQUIRE.  Cumulative gas after each instruction: 3, 2103, 2106,
    #: 2116, (REVERT skipped), 2117, 2120, 2123, 22123, 22126, 22136.
    LIMIT_PROGRAM = [
        Instr("PUSH", b"k"),
        Instr("SLOAD"),
        Instr("ISZERO"),
        Instr("JUMPI", 5),
        Instr("REVERT", "slot was set"),
        Instr("JUMPDEST"),
        Instr("PUSH", b"k"),
        Instr("PUSH", 7),
        Instr("SSTORE"),
        Instr("PUSH", 0),
        Instr("REQUIRE", "must hold"),
    ]

    @pytest.mark.parametrize(
        "gas_limit, outcome",
        [
            (2_102, "out of gas"),  # inside SLOAD's cold-access charge
            (2_103, "out of gas"),  # SLOAD paid; ISZERO's flat cost is not
            (22_122, "out of gas"),  # SSTORE's zero-to-nonzero charge
            (22_135, "out of gas"),  # REQUIRE's flat cost precedes its check
            (22_136, "must hold"),  # every charge paid: the REQUIRE fails
            (10**6, "must hold"),
        ],
    )
    def test_out_of_gas_points_are_exact(self, gas_limit, outcome):
        with pytest.raises(VMRevert) as excinfo:
            run(self.LIMIT_PROGRAM, gas_limit=gas_limit)
        assert str(excinfo.value) == outcome
        assert excinfo.value.gas_used == (gas_limit if outcome == "out of gas" else 22_136)

    def test_sha3_charged_per_word(self):
        one_word = run([Instr("PUSH", b"x" * 32), Instr("SHA3", 1), Instr("STOP")]).gas_used
        two_words = run([Instr("PUSH", b"x" * 64), Instr("SHA3", 1), Instr("STOP")]).gas_used
        assert two_words - one_word == DEFAULT_SCHEDULE.keccak256word


COUNTER_CODE = EvmCode(
    instrs=[
        # init: store constructor arg at slot "count"
        Instr("PUSH", b"count"),
        Instr("CALLDATALOAD", 0),
        Instr("SSTORE"),
        Instr("STOP"),
        # method increment at pc=4
        Instr("JUMPDEST"),
        Instr("PUSH", b"count"),
        Instr("PUSH", b"count"),
        Instr("SLOAD"),
        Instr("PUSH", 1),
        Instr("ADD"),
        Instr("SSTORE"),
        Instr("PUSH", b"count"),
        Instr("SLOAD"),
        Instr("RETURN", 1),
        # method get at pc=14
        Instr("JUMPDEST"),
        Instr("PUSH", b"count"),
        Instr("SLOAD"),
        Instr("RETURN", 1),
        # method fail at pc=18
        Instr("JUMPDEST"),
        Instr("PUSH", 0),
        Instr("REQUIRE", "always fails"),
        Instr("STOP"),
    ],
    methods={"increment": 4, "get": 14, "fail": 18},
    init_entry=0,
)


class TestContractLifecycle:
    @pytest.fixture
    def chain(self):
        return EthereumChain(profile="eth-devnet", seed=2, validator_count=4)

    @pytest.fixture
    def service(self, chain):
        return ChainService(chain)

    @pytest.fixture
    def deployer(self, chain):
        return chain.create_account(seed=b"deployer", funding=100 * ETH)

    def deploy(self, chain, deployer, args):
        service = ChainService(chain)
        code_hash = chain.register_code(COUNTER_CODE)
        tx = service.build(deployer, "create", data={"code_hash": code_hash, "args": args})
        return service.submit(deployer, tx).result()

    def test_deploy_assigns_contract_address(self, chain, deployer):
        receipt = self.deploy(chain, deployer, [7])
        assert receipt.status is TxStatus.SUCCESS
        assert receipt.contract_address in chain.contracts

    def test_constructor_ran(self, chain, deployer):
        receipt = self.deploy(chain, deployer, [7])
        contract = chain.contracts[receipt.contract_address]
        assert contract.storage[b"count"] == 7

    def test_deploy_charges_code_deposit(self, chain, deployer):
        receipt = self.deploy(chain, deployer, [0])
        assert receipt.gas_used > 21_000 + 32_000 + COUNTER_CODE.byte_size() * 200

    def test_call_mutates_state(self, chain, deployer, service):
        deployed = self.deploy(chain, deployer, [10])
        tx = service.build(
            deployer, "call", to=deployed.contract_address, data={"selector": "increment", "args": []}
        )
        receipt = service.submit(deployer, tx).result()
        assert receipt.status is TxStatus.SUCCESS
        assert receipt.return_value == 11

    def test_reverted_call_rolls_back_but_charges(self, chain, deployer, service):
        deployed = self.deploy(chain, deployer, [10])
        before = chain.balance_of(deployer.address)
        tx = service.build(
            deployer, "call", to=deployed.contract_address, data={"selector": "fail", "args": []}
        )
        receipt = service.submit(deployer, tx).result()
        assert receipt.status is TxStatus.REVERTED
        assert "always fails" in receipt.error
        assert receipt.fee_paid > 0
        assert chain.balance_of(deployer.address) == before - receipt.fee_paid
        contract = chain.contracts[deployed.contract_address]
        assert contract.storage[b"count"] == 10

    def test_unknown_selector_reverts(self, chain, deployer, service):
        deployed = self.deploy(chain, deployer, [0])
        tx = service.build(
            deployer, "call", to=deployed.contract_address, data={"selector": "missing", "args": []}
        )
        receipt = service.submit(deployer, tx).result()
        assert receipt.status is TxStatus.REVERTED


class TestFeeMarket:
    def test_base_fee_rises_under_congestion(self):
        busy = EthereumChain(profile="ropsten", seed=3, validator_count=4)
        start = busy.base_fee
        account = busy.create_account(seed=b"x", funding=100 * ETH)
        service = ChainService(busy)
        for _ in range(30):
            tx = service.build(account, "transfer", to=account.address, value=0)
            service.submit(account, tx).result()
        assert busy.base_fee != start  # the fee market moved

    def test_base_fee_change_bounded_per_block(self):
        chain = EthereumChain(profile="goerli", seed=4, validator_count=4)
        account = chain.create_account(seed=b"x", funding=100 * ETH)
        service = ChainService(chain)
        for _ in range(10):
            tx = service.build(account, "transfer", to=account.address, value=0)
            service.submit(account, tx).result()
        fees = [block.base_fee_per_gas for block in chain.blocks[1:] if block.base_fee_per_gas]
        assert len(fees) > 5
        for previous, current in zip(fees, fees[1:]):
            assert abs(current - previous) <= previous * 0.125 + 1

    def test_priced_out_transaction_waits(self):
        chain = EthereumChain(profile="eth-devnet", seed=5, validator_count=4)
        account = chain.create_account(seed=b"x", funding=100 * ETH)
        tx = ChainService(chain).build(account, "transfer", to=account.address, value=0)
        tx.max_fee_per_gas = 1  # below any plausible base fee
        tx.priority_fee_per_gas = 0
        chain.sign(account, tx)
        txid = chain.submit(tx)
        chain.queue.run_until(chain.queue.clock.now + 10.0)
        assert chain.receipt(txid).block_number is None

    def test_burned_fees_accumulate(self):
        chain = EthereumChain(profile="eth-devnet", seed=6, validator_count=4)
        account = chain.create_account(seed=b"x", funding=100 * ETH)
        service = ChainService(chain)
        tx = service.build(account, "transfer", to=account.address, value=0)
        service.submit(account, tx).result()
        assert chain.burned_fees > 0
