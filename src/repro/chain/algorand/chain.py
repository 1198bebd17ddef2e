"""The Algorand-style chain: flat fees, PPoS rounds, AVM execution.

Behaviours the thesis's evaluation leans on:

- every transaction pays the flat minimum fee (0.001 ALGO) regardless
  of congestion, which is why Algorand's costs are flat across test
  days (tables 5.1-5.4);
- blocks are final when certified -- no confirmation depth, which is
  why Algorand's latency dispersion is an order of magnitude below the
  EVM networks;
- application calls execute TEAL on the AVM; failed calls are rejected
  by the network and charged nothing;
- accounts must keep the 0.1 ALGO minimum balance.
"""

from __future__ import annotations

import base64
from typing import Any

from repro.crypto.hashing import sha256
from repro.crypto.keys import PublicKey
from repro.crypto.vrf import VRFKeyPair
from repro.simnet import EventQueue
from repro.chain.base import (
    BaseChain,
    Block,
    InvalidTransaction,
    Receipt,
    Transaction,
    TxStatus,
)
from repro.chain.algorand.avm import AVM, Application, AvmError, AvmPanic, CallContext
from repro.chain.algorand.consensus import Sortition
from repro.chain.algorand.teal import TealProgram, assemble
from repro.chain.params import PROFILES, NetworkProfile

MIN_BALANCE = 100_000  # microAlgos every account must retain


class AlgorandChain(BaseChain):
    """An Algorand-style chain instance."""

    def __init__(
        self,
        profile: NetworkProfile | str = "algorand-testnet",
        queue: EventQueue | None = None,
        seed: int = 0,
        participant_count: int = 12,
    ):
        if isinstance(profile, str):
            profile = PROFILES[profile]
        if profile.family != "avm":
            raise ValueError(f"profile {profile.name} is not an AVM profile")
        super().__init__(profile, queue=queue, seed=seed)
        self.avm = AVM()
        # Devnets skip sortition for empty rounds: simulated time often
        # fast-forwards through thousands of idle rounds in tests.  A
        # drawn round costs every online participant two VRF draws, one
        # H-comb exponentiation each (credential proofs are made only
        # when read): ~0.3 ms for make_chain's 10 participants with the
        # native comb, ~1.7 ms on the pure-Python one.  The slot-draw
        # memo (base.SLOT_DRAWS) replays only rounds that a chain of the
        # same network and seed already drew, so an idle devnet's rounds
        # would each be a fresh draw that dominates the run; they return
        # before any draw, and the memo never sees them.
        self.lazy_empty_rounds = profile.name.endswith("devnet")
        self.apps: dict[int, Application] = {}
        self.program_registry: dict[str, TealProgram] = {}
        self._next_app_id = 1
        # A committee of ~30 expected seats keeps the certification
        # failure probability negligible (real Algorand committees are
        # ~1000 seats; the relative variance is what matters), and ~6
        # expected leaders stands in for the period-recovery mechanism
        # that re-runs leaderless rounds within the same block time.
        self.sortition = Sortition(expected_leaders=6.0, expected_committee=30.0)
        self._bootstrap_participants(participant_count)

    def _bootstrap_participants(self, count: int) -> None:
        for index in range(count):
            account = self.create_account(seed=f"{self.profile.name}/participant/{index}".encode())
            stake = (index % 4 + 1) * 1_000 * self.profile.base_unit  # 1k-4k ALGO
            self.faucet(account.address, stake)
            vrf = VRFKeyPair.from_seed(f"{self.profile.name}/vrf/{index}".encode())
            self.sortition.register(account.address, vrf, stake)

    # -- BaseChain hooks -------------------------------------------------------

    def _address_for(self, public: PublicKey) -> str:
        digest = sha256(b"algo-address", public.to_bytes())
        return base64.b32encode(digest + digest[:4]).decode().rstrip("=")[:58]

    def _admission_check(self, tx: Transaction) -> None:
        if tx.kind not in ("transfer", "create", "call"):
            raise InvalidTransaction(f"unknown transaction kind {tx.kind}")
        if tx.flat_fee < self.profile.min_fee:
            raise InvalidTransaction(f"fee below the network minimum {self.profile.min_fee}")
        if tx.kind == "call":
            app_id = tx.data.get("app_id")
            if app_id not in self.apps:
                raise InvalidTransaction(f"application {app_id} does not exist")
        if tx.kind == "create" and tx.data.get("program_hash") not in self.program_registry:
            raise InvalidTransaction("create carries no registered approval program")

    def _max_cost(self, tx: Transaction) -> int:
        extra_budget = tx.data.get("budget_txns", 0) if tx.kind == "call" else 0
        return tx.value + tx.flat_fee * (1 + extra_budget)

    def _select_proposer(self, block_number: int, seed: bytes) -> tuple[str, dict[str, Any]]:
        if self.lazy_empty_rounds and not self._mempool:
            return "relay", {"certified": True, "empty": True}
        leader, seats, approvals, certified, committee = self._slot_outcome(
            self.sortition.draw_inputs(), block_number, seed
        )
        if leader is None or not certified:
            # No quorum this round: an empty relay block keeps the round
            # cadence, but no transaction may be included in it.
            return "relay", {"certified": False, "committee": len(committee)}
        return leader, {
            "certified": True,
            "leader_seats": seats,
            "committee": list(committee),
            "approvals": approvals,
        }

    def _draw(self, block_number: int, seed: bytes) -> tuple:
        outcome = self.sortition.run_round(block_number, seed)
        leader = outcome.leader
        return (
            None if leader is None else leader.address,
            0 if leader is None else leader.seats,
            outcome.approvals,
            outcome.certified,
            tuple(credential.address for credential in outcome.committee),
        )

    def _replay(self, outcome: tuple) -> None:
        leader, _seats, _approvals, _certified, committee = outcome
        if leader is not None:
            participants = self.sortition.participants
            participants[leader].blocks_led += 1
            for address in committee:
                participants[address].votes_cast += 1

    def _block_can_include(self, block: Block) -> bool:
        return bool(block.metadata.get("certified", True))

    def _execute(self, tx: Transaction, block: Block) -> Receipt:
        receipt = self.receipts[tx.txid]
        if tx.kind == "transfer":
            return self._execute_payment(tx, receipt)
        if tx.kind == "create":
            return self._execute_create(tx, block, receipt)
        return self._execute_call(tx, block, receipt)

    # -- application paths -------------------------------------------------------

    def register_program(self, program: TealProgram | str) -> str:
        """Register an approval program; returns its hash for create txs."""
        if isinstance(program, str):
            program = assemble(program)
        program_hash = sha256(program.source.encode()).hex()
        self.program_registry[program_hash] = program
        return program_hash

    def app_address(self, app_id: int) -> str:
        """The application account's address."""
        digest = sha256(b"algo-app", app_id.to_bytes(8, "big"))
        return base64.b32encode(digest + digest[:4]).decode().rstrip("=")[:58]

    def _execute_payment(self, tx: Transaction, receipt: Receipt) -> Receipt:
        total = tx.value + tx.flat_fee
        balance = self.balance_of(tx.sender)
        remaining = balance - total
        if remaining != 0 and remaining < MIN_BALANCE:
            return self._reject(receipt, "sender would fall below the minimum balance")
        self._debit(tx.sender, total)
        self._credit(tx.to, tx.value)
        self.burned_total += tx.flat_fee
        receipt.status = TxStatus.SUCCESS
        receipt.fee_paid = tx.flat_fee
        return receipt

    def _execute_create(self, tx: Transaction, block: Block, receipt: Receipt) -> Receipt:
        program = self.program_registry[tx.data["program_hash"]]
        app_id = self._next_app_id
        self._next_app_id += 1
        app = Application(
            app_id=app_id,
            approval=program,
            creator=tx.sender,
            address=self.app_address(app_id),
        )
        ctx = CallContext(
            sender=tx.sender,
            application_id=0,  # creation sees ApplicationID == 0 (fig 1.7)
            app_args=tx.data.get("args", []),
            amount=0,
            round=block.number,
            timestamp=block.timestamp,
            app_address=app.address,
            app_balance=0,
            budget_pool=1 + tx.data.get("budget_txns", 0),
        )
        try:
            result = self.avm.execute(app, ctx)
        except (AvmPanic, AvmError) as failure:
            return self._reject(receipt, str(failure))
        self._debit(tx.sender, tx.flat_fee + tx.value)
        self.burned_total += tx.flat_fee
        self._commit_app_state(app, result)
        self.apps[app_id] = app
        if tx.value:
            self._credit(app.address, tx.value)
        receipt.status = TxStatus.SUCCESS
        receipt.fee_paid = tx.flat_fee
        receipt.contract_address = str(app_id)
        receipt.return_value = result.return_value
        receipt.logs = tuple(result.logs)
        return receipt

    def _execute_call(self, tx: Transaction, block: Block, receipt: Receipt) -> Receipt:
        app = self.apps[tx.data["app_id"]]
        on_complete = tx.data.get("on_complete", "noop")
        if on_complete == "optin":
            app.opted_in.add(tx.sender)
        budget_txns = tx.data.get("budget_txns", 0)
        ctx = CallContext(
            sender=tx.sender,
            application_id=app.app_id,
            app_args=tx.data.get("args", []),
            amount=tx.value,
            round=block.number,
            timestamp=block.timestamp,
            app_address=app.address,
            # The 0.1 ALGO account minimum stays reserved: the program
            # sees (and can spend) only the balance above it.
            app_balance=max(self.balance_of(app.address) - MIN_BALANCE, 0),
            budget_pool=1 + budget_txns,
        )
        try:
            result = self.avm.execute(app, ctx)
        except (AvmPanic, AvmError) as failure:
            return self._reject(receipt, str(failure))
        fee = tx.flat_fee * (1 + budget_txns)
        self._debit(tx.sender, fee + tx.value)
        self.burned_total += fee
        if tx.value:
            self._credit(app.address, tx.value)
        self._commit_app_state(app, result)
        for to, amount in result.inner_payments:
            self._debit(app.address, amount)
            self._credit(to, amount)
        receipt.status = TxStatus.SUCCESS
        receipt.fee_paid = fee
        receipt.return_value = result.return_value
        receipt.logs = tuple(result.logs)
        return receipt

    @staticmethod
    def _commit_app_state(app: Application, result) -> None:
        app.global_state.update(result.global_writes)
        for key in result.global_deletes:
            app.global_state.pop(key, None)
        app.boxes.update(result.box_writes)
        for key in result.box_deletes:
            app.boxes.pop(key, None)

    @staticmethod
    def _reject(receipt: Receipt, reason: str) -> Receipt:
        # Rejected transactions never make it into the ledger, so no fee
        # is charged -- unlike the EVM's "reverted but fees still paid".
        receipt.status = TxStatus.REVERTED
        receipt.error = reason
        return receipt
