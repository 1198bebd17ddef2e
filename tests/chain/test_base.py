"""Tests for the shared chain machinery via the Ethereum devnet profile."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chain import PROFILES, ChainError, ChainService, InsufficientFunds, InvalidTransaction, TxState, TxStatus, drive
from repro.chain.ethereum import EthereumChain
from repro.crypto.merkle import MerkleTree, merkle_root

ETH = 10**18
ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def chain() -> EthereumChain:
    return EthereumChain(profile="eth-devnet", seed=1, validator_count=4)


@pytest.fixture
def service(chain) -> ChainService:
    return ChainService(chain)


@pytest.fixture
def alice(chain):
    return chain.create_account(seed=b"alice", funding=10 * ETH)


@pytest.fixture
def bob(chain):
    return chain.create_account(seed=b"bob", funding=1 * ETH)


class TestAccounts:
    def test_create_account_registers_key(self, chain, alice):
        assert alice.address in chain.known_keys

    def test_addresses_are_eth_style(self, alice):
        assert alice.address.startswith("0x")
        assert len(alice.address) == 42

    def test_faucet_credits(self, chain, alice):
        assert chain.balance_of(alice.address) == 10 * ETH

    def test_faucet_rejects_negative(self, chain, alice):
        with pytest.raises(ValueError):
            chain.faucet(alice.address, -1)

    def test_deterministic_account_from_seed(self, chain):
        a = chain.create_account(seed=b"same")
        b = chain.create_account(seed=b"same")
        assert a.address == b.address


class TestTransfers:
    def test_simple_transfer(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=2 * ETH)
        receipt = service.submit(alice, tx).result()
        assert receipt.status is TxStatus.SUCCESS
        assert chain.balance_of(bob.address) == 3 * ETH

    def test_transfer_charges_21000_gas(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        receipt = service.submit(alice, tx).result()
        assert receipt.gas_used == 21_000

    def test_sender_pays_value_plus_fee(self, chain, alice, bob, service):
        before = chain.balance_of(alice.address)
        tx = service.build(alice, "transfer", to=bob.address, value=ETH)
        receipt = service.submit(alice, tx).result()
        assert chain.balance_of(alice.address) == before - ETH - receipt.fee_paid

    def test_unsigned_submit_rejected(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        with pytest.raises(InvalidTransaction):
            chain.submit(tx)

    def test_wrong_signer_rejected(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        with pytest.raises(InvalidTransaction):
            chain.sign(bob, tx)

    def test_tampered_after_signing_rejected(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        chain.sign(alice, tx)
        tx.value = 5 * ETH
        with pytest.raises(InvalidTransaction):
            chain.submit(tx)

    def test_data_changed_in_place_after_signing_rejected(self, chain, alice, bob, service):
        """No attribute is written, so only a payload built at admission
        sees the change."""
        tx = service.build(alice, "transfer", to=bob.address, value=1, data={"memo": [1]})
        chain.sign(alice, tx)
        tx.data["memo"].append(2)
        with pytest.raises(InvalidTransaction, match="bad signature"):
            chain.submit(tx)
        assert chain.mempool_depth == 0

    def test_txid_after_admission_is_the_txid_at_signing(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1, data={"memo": [1]})
        chain.sign(alice, tx)
        at_signing = tx.txid
        assert chain.submit(tx) == at_signing
        drive(chain.queue, lambda: chain.receipt(at_signing).confirmed_at is not None, chain=chain)
        block = chain.blocks[chain.receipt(at_signing).block_number]
        assert [t.txid for t in block.transactions] == [at_signing]
        assert tx.txid == at_signing

    def test_resubmitting_an_included_transaction_is_a_duplicate(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1, data={"memo": [1]})
        receipt = service.submit(alice, tx).result()
        assert (tx.data, tx.signature) == (None, None)  # read for the last time
        with pytest.raises(InvalidTransaction, match="duplicate transaction"):
            chain.submit(tx)
        assert tx.txid == receipt.txid

    def test_field_write_resets_the_txid(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        chain.sign(alice, tx)
        signed = tx.txid
        tx.value = 2
        assert tx.txid != signed
        tx.value = 1
        assert tx.txid == signed

    def test_insufficient_funds_rejected(self, chain, bob, alice, service):
        tx = service.build(bob, "transfer", to=alice.address, value=100 * ETH)
        chain.sign(bob, tx)
        with pytest.raises(InsufficientFunds):
            chain.submit(tx)

    def test_duplicate_submit_rejected(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        chain.sign(alice, tx)
        chain.submit(tx)
        with pytest.raises(InvalidTransaction):
            chain.submit(tx)

    def test_unknown_sender_rejected(self, chain):
        stranger_chain = EthereumChain(profile="eth-devnet", seed=99, validator_count=4)
        stranger = stranger_chain.create_account(seed=b"stranger", funding=ETH)
        tx = ChainService(stranger_chain).build(stranger, "transfer", to=stranger.address, value=1)
        stranger_chain.sign(stranger, tx)
        with pytest.raises(InvalidTransaction):
            chain.submit(tx)


class TestBlocks:
    def test_genesis_block_exists(self, chain):
        assert chain.height == 0
        assert chain.blocks[0].parent_hash == "0" * 64

    def test_blocks_chain_by_parent_hash(self, chain, alice, bob, service):
        for _ in range(3):
            tx = service.build(alice, "transfer", to=bob.address, value=1)
            service.submit(alice, tx).result()
        for previous, current in zip(chain.blocks, chain.blocks[1:]):
            assert current.parent_hash == previous.block_hash

    def test_receipt_latency_positive(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        receipt = service.submit(alice, tx).result()
        assert receipt.latency is not None
        assert receipt.latency > 0

    def test_proposer_is_a_validator(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        service.submit(alice, tx).result()
        proposers = {block.proposer for block in chain.blocks[1:]}
        validator_addresses = set(chain.validators.validators)
        assert proposers <= validator_addresses

    def test_included_transactions_in_merkle_root(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        receipt = service.submit(alice, tx).result()
        block = chain.blocks[receipt.block_number]
        assert any(t.txid == receipt.txid for t in block.transactions)

    def test_tx_root_commits_to_included_txids(self, chain, alice, bob, service):
        """The header's root alone commits to the block body: a light
        client holding only headers can check any inclusion path."""
        for index in range(5):
            sender, receiver = (alice, bob) if index % 2 == 0 else (bob, alice)
            tx = service.build(sender, "transfer", to=receiver.address, value=index)
            service.submit(sender, tx).result()
        assert_tx_roots(chain)

    def test_tx_root_on_the_avm_family(self):
        from repro.chain.algorand import AlgorandChain

        chain = AlgorandChain(profile="algo-devnet", seed=17, participant_count=6)
        alice = chain.create_account(seed=b"alice", funding=100_000_000)
        service = ChainService(chain)
        for index in range(4):
            tx = service.build(alice, "transfer", to=alice.address, value=index)
            service.submit(alice, tx).result()
        assert_tx_roots(chain)


def assert_tx_roots(chain):
    nonempty = [block for block in chain.blocks if block.transactions]
    assert nonempty
    for block in chain.blocks:
        txids = [tx.txid.encode() for tx in block.transactions]
        assert block.tx_root == merkle_root(txids)
        tree = MerkleTree(txids)
        for index, txid in enumerate(txids):
            assert tree.proof(index).verify(txid, block.tx_root)


class TestTxHandle:
    def test_submit_async_returns_live_handle(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        handle = service.submit(alice, tx)
        assert handle.state is TxState.SUBMITTED
        assert not handle.done

    def test_handle_confirms_without_polling(self, chain, alice, bob, service):
        """Callbacks fire from the block-production event path."""
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        handle = service.submit(alice, tx)
        confirmed_at = []
        handle.add_done_callback(lambda h: confirmed_at.append(chain.queue.clock.now))
        drive(chain.queue, lambda: handle.done, chain=chain)
        assert handle.state is TxState.CONFIRMED
        assert confirmed_at == [handle.receipt.confirmed_at]

    def test_callback_added_after_done_fires_immediately(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        handle = service.submit(alice, tx)
        handle.result()
        fired = []
        handle.add_done_callback(fired.append)
        assert fired == [handle]

    def test_many_handles_interleave_on_one_queue(self, chain, alice, bob, service):
        handles = []
        for _ in range(4):
            tx = service.build(alice, "transfer", to=bob.address, value=1)
            handles.append(service.submit(alice, tx))
        assert chain.mempool_depth == 4
        drive(chain.queue, lambda: all(h.done for h in handles), chain=chain)
        blocks = {h.receipt.block_number for h in handles}
        assert len(blocks) == 1  # one block took all four

    def test_result_is_the_blocking_fallback(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        handle = service.submit(alice, tx)
        receipt = handle.result()
        assert receipt.status is TxStatus.SUCCESS
        assert handle.done

    def test_subscribe_to_confirmed_receipt_fires_immediately(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        receipt = service.submit(alice, tx).result()
        seen = []
        chain.subscribe_receipt(receipt.txid, seen.append)
        assert seen == [receipt]

    def test_subscribe_to_unknown_txid_raises(self, chain):
        with pytest.raises(ChainError):
            chain.subscribe_receipt("deadbeef", lambda receipt: None)


class TestNonceObservation:
    def test_chain_tracks_admitted_nonces(self, chain, alice, bob, service):
        assert chain.next_nonce_for(alice.address) == 0
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        service.submit(alice, tx).result()
        assert chain.next_nonce_for(alice.address) == 1

    def test_rejected_submission_does_not_advance_observed_nonce(self, chain, alice, bob, service):
        """The drift scenario: the local nonce advances on a rejection,
        but the chain-observed nonce (the resync source) does not."""
        tx = service.build(alice, "transfer", to=bob.address, value=100 * ETH)
        chain.sign(alice, tx)
        with pytest.raises(InsufficientFunds):
            chain.submit(tx)
        assert alice.nonce == 1  # drifted client-side
        assert chain.next_nonce_for(alice.address) == 0  # truth to resync from


class TestDriveDiagnostics:
    def test_dry_queue_reports_pending_state(self, chain):
        with pytest.raises(ChainError, match="ran dry"):
            drive(chain.queue, lambda: False, chain=chain)

    def test_step_exhaustion_reports_labels_and_mempool(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        chain.sign(alice, tx)
        chain.submit(tx)
        with pytest.raises(ChainError) as failure:
            drive(chain.queue, lambda: False, max_steps=3, chain=chain)
        message = str(failure.value)
        assert "3 steps" in message
        assert "eth-devnet-block" in message
        assert "mempool depth" in message


#: consensus and chain modules of each family, which only its chains need
FAMILY_MODULES = {
    "evm": {"repro.chain.ethereum.chain", "repro.chain.ethereum.consensus"},
    "avm": {"repro.chain.algorand.chain", "repro.chain.algorand.consensus"},
}


@pytest.mark.parametrize(("network", "family"), [(name, profile.family) for name, profile in PROFILES.items()])
def test_a_process_imports_only_the_chain_family_it_runs(network, family):
    # The lint gate's model checker runs both VMs; make_chain builds one family.
    code = (
        "import sys\n"
        "import repro.reach.absint.exec\n"
        "from repro.chain import make_chain\n"
        f"make_chain({network!r}, seed=1)\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    loaded = set(out.stdout.split())
    (other,) = set(FAMILY_MODULES) - {family}
    assert FAMILY_MODULES[family] <= loaded
    assert not FAMILY_MODULES[other] & loaded
