"""The Ethereum-style chain: EVM execution + EIP-1559 fee market + PoS.

Implements the behaviours chapter 1.4.1 of the thesis walks through:

- ``gasFee = (base_fee + priority_fee) * units_of_gas_used`` (eq. 1.1);
- the base fee moves with the previous block's utilization, by at most
  12.5% per block -- congestion makes the *same* transaction cost more,
  which is exactly what tables 5.1-5.4 observed across days;
- contract creation vs. message call transactions;
- computation that runs out of gas is reverted but fees are still paid.
"""

from __future__ import annotations

import json
from typing import Any

from repro.crypto.hashing import sha256_hex
from repro.crypto.keys import PublicKey
from repro.simnet import EventQueue
from repro.chain.base import (
    BaseChain,
    Block,
    InvalidTransaction,
    Receipt,
    Transaction,
    TxStatus,
)
from repro.chain.ethereum.consensus import STAKE_REQUIREMENT_ETH, ValidatorSet
from repro.chain.ethereum.evm import (
    EVM,
    EvmCode,
    EvmContract,
    VMError,
    VMRevert,
    serialize_code,
)
from repro.chain.ethereum.gas import DEFAULT_SCHEDULE, code_deposit_gas, intrinsic_gas
from repro.chain.params import GWEI, NetworkProfile, PROFILES

MIN_BASE_FEE = 7  # wei; the protocol floor
BASE_FEE_MAX_CHANGE = 0.125  # +-12.5% per block (thesis section 1.4.1.3)


def _exceptional_halt(error: VMError) -> VMRevert:
    """A machine error (bad jump, stack underflow, unencodable value) as a
    failed execution: it carries no ``gas_used``, so the transaction
    pays its whole gas limit, as an exceptional halt does on Ethereum."""
    return VMRevert(str(error))


class EthereumChain(BaseChain):
    """An EVM chain instance (Ropsten/Goerli profiles; Polygon subclasses)."""

    def __init__(
        self,
        profile: NetworkProfile | str = "goerli",
        queue: EventQueue | None = None,
        seed: int = 0,
        validator_count: int = 16,
    ):
        if isinstance(profile, str):
            profile = PROFILES[profile]
        if profile.family != "evm":
            raise ValueError(f"profile {profile.name} is not an EVM profile")
        super().__init__(profile, queue=queue, seed=seed)
        self.evm = EVM(DEFAULT_SCHEDULE)
        self.contracts: dict[str, EvmContract] = {}
        self.code_registry: dict[str, EvmCode] = {}
        self.base_fee = int(profile.initial_base_fee_gwei * GWEI)
        self.reference_base_fee = self.base_fee
        self.burned_fees = 0
        self.validators = ValidatorSet(stake_requirement=STAKE_REQUIREMENT_ETH * profile.base_unit)
        self._bootstrap_validators(validator_count)

    def _bootstrap_validators(self, count: int) -> None:
        stake = self.validators.stake_requirement
        for index in range(count):
            account = self.create_account(seed=f"{self.profile.name}/validator/{index}".encode())
            self.faucet(account.address, stake)
            self._debit(account.address, stake)  # locked in the deposit contract
            self.locked_total += stake
            self.validators.register(account.address, stake)

    # -- BaseChain hooks -------------------------------------------------------

    def _address_for(self, public: PublicKey) -> str:
        return "0x" + public.fingerprint()[:40]

    def _admission_check(self, tx: Transaction) -> None:
        if tx.kind not in ("transfer", "create", "call"):
            raise InvalidTransaction(f"unknown transaction kind {tx.kind}")
        if tx.gas_limit < DEFAULT_SCHEDULE.transaction:
            raise InvalidTransaction("gas limit below the 21000 intrinsic cost")
        if tx.gas_limit > self.profile.block_gas_limit:
            raise InvalidTransaction("gas limit exceeds the block gas limit")
        if tx.max_fee_per_gas <= 0:
            raise InvalidTransaction("max fee per gas must be positive")
        if tx.priority_fee_per_gas > tx.max_fee_per_gas:
            raise InvalidTransaction("priority fee exceeds max fee")
        if tx.kind == "call" and (tx.to is None or tx.to not in self.contracts):
            raise InvalidTransaction(f"call target {tx.to} is not a contract")
        if tx.kind == "create" and tx.data.get("code_hash") not in self.code_registry:
            raise InvalidTransaction("create carries no registered code")

    def _max_cost(self, tx: Transaction) -> int:
        return tx.value + tx.gas_limit * tx.max_fee_per_gas

    def _includable(self, tx: Transaction, block: Block) -> bool:
        return tx.max_fee_per_gas >= self.base_fee

    def _inclusion_penalty(self, tx: Transaction) -> int:
        # Gas-heavy transactions (contract creations) compete harder for
        # block space: proposers pack small high-tip transactions first,
        # so a ~multi-million-gas create waits a couple of extra blocks.
        return 2 if tx.gas_limit >= 1_000_000 else 0

    def _select_proposer(self, block_number: int, seed: bytes) -> tuple[str, dict[str, Any]]:
        proposer, attesters = self._slot_outcome(self.validators.draw_inputs(), block_number, seed)
        return proposer, {"attestations": list(attesters)}

    def _draw(self, block_number: int, seed: bytes) -> tuple:
        proposer = self.validators.select_proposer(seed)
        committee = self.validators.select_committee(seed, exclude=proposer.address)
        attestations = self.validators.attest(committee, block_number)
        return proposer.address, tuple(vote.validator for vote in attestations)

    def _replay(self, outcome: tuple) -> None:
        proposer, attesters = outcome
        validators = self.validators.validators
        validators[proposer].blocks_proposed += 1
        for address in attesters:
            validators[address].attestations += 1

    def _begin_block(self, block: Block) -> None:
        # EIP-1559: adjust off the previous block's utilization.  Other
        # users' traffic is the congestion process; our own transactions
        # contribute through the recorded gas_used of the parent.
        parent = self.blocks[-1]
        target = self.profile.block_gas_limit // 2
        # Background demand is price-elastic: as the base fee climbs above
        # its reference level, other users drop out, so the fee market
        # finds an equilibrium instead of diverging.
        elasticity = min(self.reference_base_fee / max(self.base_fee, 1), 1.5)
        filler = int(self.congestion.level * self.profile.block_gas_limit * elasticity)
        gas_used = min(parent.gas_used + filler, self.profile.block_gas_limit)
        delta = BASE_FEE_MAX_CHANGE * (gas_used - target) / target
        delta = max(min(delta, BASE_FEE_MAX_CHANGE), -BASE_FEE_MAX_CHANGE)
        self.base_fee = max(int(self.base_fee * (1.0 + delta)), MIN_BASE_FEE)
        block.base_fee_per_gas = self.base_fee

    def _execute(self, tx: Transaction, block: Block) -> Receipt:
        receipt = self.receipts[tx.txid]
        gas_price = min(tx.max_fee_per_gas, self.base_fee + tx.priority_fee_per_gas)

        if tx.kind == "transfer":
            gas_used = DEFAULT_SCHEDULE.transaction
            fee = gas_used * gas_price
            self._debit(tx.sender, tx.value + fee)
            self._credit(tx.to, tx.value)
            self._settle_fee(block, gas_used, gas_price)
            receipt.status = TxStatus.SUCCESS
            receipt.gas_used = gas_used
            receipt.fee_paid = fee
            return receipt

        if tx.kind == "create":
            return self._execute_create(tx, block, receipt, gas_price)
        return self._execute_call(tx, block, receipt, gas_price)

    # -- contract paths --------------------------------------------------------

    def register_code(self, code: EvmCode) -> str:
        """Register compiled code; returns the hash carried by create txs."""
        code_hash = sha256_hex(serialize_code(code))
        self.code_registry[code_hash] = code
        return code_hash

    def contract_address_for(self, sender: str, nonce: int) -> str:
        """Deterministic contract address (sender, nonce)."""
        return "0x" + sha256_hex(sender.encode(), nonce.to_bytes(8, "big"))[:40]

    def _execute_create(self, tx: Transaction, block: Block, receipt: Receipt, gas_price: int) -> Receipt:
        code = self.code_registry[tx.data["code_hash"]]
        args = tx.data.get("args", [])
        payload = serialize_code(code) + json.dumps(args, default=_args_default).encode()
        intrinsic = intrinsic_gas(payload, is_create=True)
        address = self.contract_address_for(tx.sender, tx.nonce)
        contract = EvmContract(address=address, code=code, creator=tx.sender)
        try:
            result = self.evm.execute(
                contract,
                entry=code.init_entry,
                args=args,
                caller=tx.sender,
                value=tx.value,
                gas_limit=tx.gas_limit - code_deposit_gas(code.byte_size()),
                block_number=block.number,
                timestamp=block.timestamp,
                self_balance=0,
                intrinsic=intrinsic,
            )
        except VMRevert as revert:
            return self._revert(tx, receipt, revert, gas_price, block)
        except VMError as error:
            return self._revert(tx, receipt, _exceptional_halt(error), gas_price, block)
        gas_used = result.gas_used + code_deposit_gas(code.byte_size())
        fee = gas_used * gas_price
        self._debit(tx.sender, tx.value + fee)
        self._settle_fee(block, gas_used, gas_price)
        contract.storage.update(result.storage_writes)
        self.contracts[address] = contract
        self._credit(address, tx.value)
        self._apply_transfers(address, result.transfers)
        receipt.status = TxStatus.SUCCESS
        receipt.gas_used = gas_used
        receipt.fee_paid = fee
        receipt.contract_address = address
        receipt.return_value = result.return_value
        receipt.logs = tuple(result.logs)
        return receipt

    def _execute_call(self, tx: Transaction, block: Block, receipt: Receipt, gas_price: int) -> Receipt:
        contract = self.contracts[tx.to]
        selector = tx.data.get("selector", "")
        args = tx.data.get("args", [])
        methods = contract.code.methods
        if selector not in methods:
            return self._revert(tx, receipt, VMRevert(f"unknown selector {selector}"), gas_price, block)
        payload = json.dumps({"selector": selector, "args": args}, default=_args_default).encode()
        intrinsic = intrinsic_gas(payload, is_create=False)
        # Selector dispatch: a PUSH/EQ/JUMPI chain per candidate method.
        dispatch_cost = 3 * DEFAULT_SCHEDULE.verylow * (list(methods).index(selector) + 1)
        try:
            result = self.evm.execute(
                contract,
                entry=methods[selector],
                args=args,
                caller=tx.sender,
                value=tx.value,
                gas_limit=tx.gas_limit,
                block_number=block.number,
                timestamp=block.timestamp,
                self_balance=self.balance_of(contract.address),
                intrinsic=intrinsic + dispatch_cost,
            )
        except VMRevert as revert:
            return self._revert(tx, receipt, revert, gas_price, block)
        except VMError as error:
            return self._revert(tx, receipt, _exceptional_halt(error), gas_price, block)
        fee = result.gas_used * gas_price
        self._debit(tx.sender, tx.value + fee)
        self._settle_fee(block, result.gas_used, gas_price)
        contract.storage.update(result.storage_writes)
        self._credit(contract.address, tx.value)
        self._apply_transfers(contract.address, result.transfers)
        receipt.status = TxStatus.SUCCESS
        receipt.gas_used = result.gas_used
        receipt.fee_paid = fee
        receipt.return_value = result.return_value
        receipt.logs = tuple(result.logs)
        return receipt

    def _apply_transfers(self, contract_address: str, transfers: list[tuple[str, int]]) -> None:
        for to, amount in transfers:
            self._debit(contract_address, amount)
            self._credit(to, amount)

    def _revert(
        self,
        tx: Transaction,
        receipt: Receipt,
        revert: VMRevert,
        gas_price: int,
        block: Block,
    ) -> Receipt:
        gas_used = getattr(revert, "gas_used", tx.gas_limit)
        fee = gas_used * gas_price
        self._debit(tx.sender, fee)
        self._settle_fee(block, gas_used, gas_price)
        receipt.status = TxStatus.REVERTED
        receipt.error = revert.reason
        receipt.gas_used = gas_used
        receipt.fee_paid = fee
        return receipt

    def _settle_fee(self, block: Block, gas_used: int, gas_price: int) -> None:
        """Burn the base-fee share; tip the proposer with the rest."""
        base_share = min(self.base_fee, gas_price) * gas_used
        tip = (gas_price * gas_used) - base_share
        self.burned_fees += base_share
        self.burned_total += base_share
        if tip > 0:
            if block.proposer in self.known_keys:
                self._credit(block.proposer, tip)
            else:
                # A tip with no payable proposer (genesis edge) is
                # destroyed, not dropped from the supply accounting.
                self.burned_total += tip


def _args_default(value: Any) -> Any:
    if isinstance(value, bytes):
        return value.hex()
    raise TypeError(f"unserializable argument {type(value).__name__}")
