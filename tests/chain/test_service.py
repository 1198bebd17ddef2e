"""Tests for the client-side chain session (nonces, fees, retry)."""

import pytest

from repro.chain import (
    ChainService,
    InsufficientFunds,
    InvalidTransaction,
    ManagedTxHandle,
    TransientChainError,
    TxHandle,
    TxStatus,
)
from repro.chain.algorand import AlgorandChain
from repro.chain.ethereum import EthereumChain
from repro.chain.ethereum.chain import MIN_BASE_FEE
from repro.chain.params import GWEI
from repro.chain.service import DEFAULT_EVM_GAS_LIMIT
from repro.faults import RetryPolicy

ETH = 10**18
ALGO = 10**6


@pytest.fixture
def eth_chain() -> EthereumChain:
    return EthereumChain(profile="eth-devnet", seed=1, validator_count=4)


@pytest.fixture
def algo_chain() -> AlgorandChain:
    return AlgorandChain(profile="algo-devnet", seed=1, participant_count=6)


class TestFeeEstimation:
    def test_evm_fees_follow_eip1559(self, eth_chain):
        service = ChainService(eth_chain)
        fields = service.fee_fields()
        priority = int(eth_chain.profile.priority_fee_gwei * GWEI)
        assert fields == {
            "max_fee_per_gas": max(eth_chain.base_fee * 2, MIN_BASE_FEE) + priority,
            "priority_fee_per_gas": priority,
        }
        account = eth_chain.create_account(seed=b"alice", funding=ETH)
        built = service.build(account, "transfer", to=account.address, value=1)
        assert built.max_fee_per_gas == fields["max_fee_per_gas"]
        assert built.priority_fee_per_gas == fields["priority_fee_per_gas"]
        assert built.gas_limit == DEFAULT_EVM_GAS_LIMIT

    def test_avm_fees_are_the_flat_minimum(self, algo_chain):
        service = ChainService(algo_chain)
        assert service.fee_fields() == {"flat_fee": algo_chain.profile.min_fee}

    def test_avm_build_carries_no_gas_limit(self, algo_chain):
        service = ChainService(algo_chain)
        account = algo_chain.create_account(seed=b"alice", funding=ALGO)
        built = service.build(account, "transfer", to=account.address, value=1)
        assert built.gas_limit == 0
        assert built.flat_fee == algo_chain.profile.min_fee


class TestNonceResync:
    def test_submit_confirms_end_to_end(self, eth_chain):
        service = ChainService(eth_chain)
        alice = eth_chain.create_account(seed=b"alice", funding=10 * ETH)
        bob = eth_chain.create_account(seed=b"bob")
        tx = service.build(alice, "transfer", to=bob.address, value=ETH)
        receipt = service.submit(alice, tx).result()
        assert receipt.status is TxStatus.SUCCESS
        assert service.rejections == 0

    def test_rejection_resyncs_the_client_nonce(self, eth_chain):
        """The drift bug: a rejected build must not burn a nonce forever."""
        service = ChainService(eth_chain)
        alice = eth_chain.create_account(seed=b"alice", funding=10 * ETH)
        bob = eth_chain.create_account(seed=b"bob")
        doomed = service.build(alice, "transfer", to=bob.address, value=100 * ETH)
        with pytest.raises(InsufficientFunds):
            service.submit(alice, doomed)
        assert alice.nonce == 0  # resynced from chain-observed state
        # The account is immediately usable again.
        tx = service.build(alice, "transfer", to=bob.address, value=ETH)
        receipt = service.submit(alice, tx).result()
        assert receipt.status is TxStatus.SUCCESS

    def test_deterministic_rejection_not_retried_forever(self, eth_chain):
        """A rebuild that changes nothing is re-raised immediately."""
        service = ChainService(eth_chain)
        alice = eth_chain.create_account(seed=b"alice", funding=ETH)
        bob = eth_chain.create_account(seed=b"bob")
        doomed = service.build(alice, "transfer", to=bob.address, value=100 * ETH)
        with pytest.raises(InsufficientFunds):
            service.submit(alice, doomed)
        # One rejection observed; the rebuild was identical, so no retry ran.
        assert service.rejections == 1
        assert service.retries == 0

    def test_replayed_transaction_rebuilt_and_lands(self, eth_chain):
        """A duplicate submission is re-nonced, re-signed and resubmitted."""
        service = ChainService(eth_chain)
        alice = eth_chain.create_account(seed=b"alice", funding=10 * ETH)
        bob = eth_chain.create_account(seed=b"bob")
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        eth_chain.sign(alice, tx)
        eth_chain.submit(tx)
        # A wallet replaying the same signed transaction gets a duplicate
        # rejection; the service resyncs, rebuilds with the next nonce
        # (changing the txid) and the retry is admitted.
        receipt = service.submit(alice, tx).result()
        assert receipt.status is TxStatus.SUCCESS
        assert service.rejections == 1
        assert service.retries == 1
        assert eth_chain.balance_of(bob.address) == 2  # both copies landed

    def test_transact_blocks_until_confirmation(self, algo_chain):
        service = ChainService(algo_chain)
        alice = algo_chain.create_account(seed=b"alice", funding=10 * ALGO)
        bob = algo_chain.create_account(seed=b"bob")
        receipt = service.submit(alice, service.build(alice, "transfer", to=bob.address, value=ALGO)).result()
        assert receipt.status is TxStatus.SUCCESS
        assert algo_chain.balance_of(bob.address) == ALGO


class TestFailurePaths:
    def test_exhausted_retries_do_not_leak_a_nonce(self, eth_chain, monkeypatch):
        """The PR 3 nonce-leak regression: when the attempt bound is
        hit, no rebuild may consume account.next_nonce() before the
        re-raise -- the account must stay in sync with the chain."""
        service = ChainService(eth_chain, max_retries=2)
        alice = eth_chain.create_account(seed=b"alice", funding=10 * ETH)
        bob = eth_chain.create_account(seed=b"bob")

        def always_reject(tx):
            # Fees move between attempts, so every rebuild is non-None
            # and the retry loop runs to its bound.
            eth_chain.base_fee += 1
            raise InvalidTransaction("node rejects everything")

        monkeypatch.setattr(eth_chain, "submit", always_reject)
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        with pytest.raises(InvalidTransaction):
            service.submit(alice, tx)
        assert alice.nonce == eth_chain.next_nonce_for(alice.address)
        assert service.rejections == service.max_retries + 1
        assert service.retries == service.max_retries

    def test_transient_drop_resubmitted_without_rebuild(self, eth_chain, monkeypatch):
        """A transient provider drop retries the identical transaction:
        no resync, no rebuild, no burned nonce."""
        service = ChainService(eth_chain)
        alice = eth_chain.create_account(seed=b"alice", funding=10 * ETH)
        bob = eth_chain.create_account(seed=b"bob")
        real_submit = eth_chain.submit
        calls = {"count": 0}

        def flaky(tx):
            calls["count"] += 1
            if calls["count"] == 1:
                raise TransientChainError("dropped by the load balancer")
            return real_submit(tx)

        monkeypatch.setattr(eth_chain, "submit", flaky)
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        receipt = service.submit(alice, tx).result()
        assert receipt.status is TxStatus.SUCCESS
        assert service.rejections == 1
        assert service.retries == 1
        assert service.transient_recoveries == 1
        assert alice.nonce == 1  # one build, one nonce

    def test_persistent_transient_failure_still_bounded(self, eth_chain, monkeypatch):
        service = ChainService(eth_chain, max_retries=2)
        alice = eth_chain.create_account(seed=b"alice", funding=10 * ETH)

        def always_down(tx):
            raise TransientChainError("provider down")

        monkeypatch.setattr(eth_chain, "submit", always_down)
        tx = service.build(alice, "transfer", to=alice.address, value=0)
        with pytest.raises(TransientChainError):
            service.submit(alice, tx)
        assert service.rejections == 3  # initial attempt + 2 retries


class TestReplaceByNonce:
    def test_fee_bumped_replacement_evicts_the_stuck_copy(self, eth_chain):
        service = ChainService(eth_chain)
        alice = eth_chain.create_account(seed=b"alice", funding=10 * ETH)
        bob = eth_chain.create_account(seed=b"bob")
        stuck = service.build(alice, "transfer", to=bob.address, value=1)
        eth_chain.sign(alice, stuck)
        stuck_txid = eth_chain.submit(stuck)
        bumped = service.bump_fees(stuck, 1.5)
        assert bumped.nonce == stuck.nonce
        assert bumped.max_fee_per_gas > stuck.max_fee_per_gas
        eth_chain.sign(alice, bumped)
        bumped_txid = eth_chain.submit(bumped)
        assert eth_chain.receipt(stuck_txid).error == "replaced"
        assert eth_chain.mempool_depth == 1
        receipt = TxHandle(eth_chain, bumped_txid).result()
        assert receipt.status is TxStatus.SUCCESS
        assert eth_chain.balance_of(bob.address) == 1  # exactly-once execution

    def test_underpriced_replacement_rejected(self, eth_chain):
        service = ChainService(eth_chain)
        alice = eth_chain.create_account(seed=b"alice", funding=10 * ETH)
        bob = eth_chain.create_account(seed=b"bob")
        stuck = service.build(alice, "transfer", to=bob.address, value=1)
        eth_chain.sign(alice, stuck)
        eth_chain.submit(stuck)
        equal_bid = service.build(alice, "transfer", to=bob.address, value=2)
        equal_bid.nonce = stuck.nonce  # same slot, same price
        eth_chain.sign(alice, equal_bid)
        with pytest.raises(InvalidTransaction, match="underpriced"):
            eth_chain.submit(equal_bid)

    def test_avm_bump_raises_the_flat_fee(self, algo_chain):
        service = ChainService(algo_chain)
        alice = algo_chain.create_account(seed=b"alice", funding=10 * ALGO)
        tx = service.build(alice, "transfer", to=alice.address, value=0)
        bumped = service.bump_fees(tx, 1.5)
        assert bumped.flat_fee > tx.flat_fee
        assert bumped.nonce == tx.nonce


class TestStuckTxRecovery:
    def test_priced_out_transaction_fee_bumped_and_lands(self, eth_chain):
        """A fee spike strands the original below the base fee; the
        watchdog resubmits a bumped replacement that confirms."""
        from repro.faults import ChainFaultInjector, FaultPlan
        from repro.faults.plan import FaultWindow

        # A held 10x spike: every block in the window keeps the base fee
        # far above the original estimate (2x base + tip).
        spike = FaultWindow("fee_spike", 0.0, 120.0, 10.0)
        ChainFaultInjector(FaultPlan(seed=0, windows=(spike,))).install(eth_chain)
        policy = RetryPolicy(timeout=30.0, backoff=2.0, max_resubmits=3, fee_bump=1.5)
        service = ChainService(eth_chain, policy=policy)
        alice = eth_chain.create_account(seed=b"alice", funding=1_000 * ETH)
        bob = eth_chain.create_account(seed=b"bob")
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        handle = service.submit(alice, tx)
        assert isinstance(handle, ManagedTxHandle)
        receipt = handle.result()
        assert receipt.status is TxStatus.SUCCESS
        assert handle.resubmits >= 1
        assert service.fee_bumps == handle.resubmits
        assert eth_chain.balance_of(bob.address) == 1  # replacement, not a double

    def test_without_policy_submissions_stay_plain_handles(self, eth_chain):
        service = ChainService(eth_chain)
        alice = eth_chain.create_account(seed=b"alice", funding=10 * ETH)
        handle = service.submit(alice, service.build(alice, "transfer", to=alice.address, value=0))
        assert not isinstance(handle, ManagedTxHandle)

    def test_confirmed_transaction_cancels_the_watchdog(self, eth_chain):
        policy = RetryPolicy(timeout=30.0)
        service = ChainService(eth_chain, policy=policy)
        alice = eth_chain.create_account(seed=b"alice", funding=10 * ETH)
        handle = service.submit(alice, service.build(alice, "transfer", to=alice.address, value=0))
        receipt = handle.result()
        assert receipt.status is TxStatus.SUCCESS
        assert handle.resubmits == 0
        assert handle._watchdog is None
        assert "tx-watchdog" not in eth_chain.queue.pending_labels()

