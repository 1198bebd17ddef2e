"""Mempool inclusion scheduling: eligibility rounds, the fee-ordered
ready list, and O(1) replace-by-nonce eviction with lazy pair deletion.

Uses the deterministic Ethereum devnet (zero congestion, zero jitter)
so eligibility arithmetic is exact: every admitted transaction becomes
includable at the next certified round.
"""

import pytest

from repro.chain import ChainService, InvalidTransaction, TxStatus, drive
from repro.chain.ethereum import EthereumChain

ETH = 10**18
GWEI = 10**9


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
    return chain.create_account(seed=b"bob", funding=10 * ETH)


def confirmed(chain, txid):
    return lambda: chain.receipts[txid].status is not TxStatus.PENDING


class TestEligibilityRounds:
    def test_admission_buckets_by_next_round(self, chain, alice, bob, service):
        # transfer-sized gas: below the 1M-gas size penalty threshold
        tx = service.build(alice, "transfer", to=bob.address, value=1, gas_limit=21_000)
        txid = chain.submit(chain.sign(alice, tx))
        entry = chain._mempool[txid]
        # zero congestion, zero size penalty: free at the very next round
        assert entry.eligible_round == chain._round + 1
        bucket = chain._eligible[entry.eligible_round]
        assert any(pair[1] is entry for pair in bucket)
        assert entry not in [pair[1] for pair in chain._ready]

    def test_gas_heavy_transaction_waits_extra_rounds(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        assert tx.gas_limit >= 1_000_000  # default limit trips the size bias
        txid = chain.submit(chain.sign(alice, tx))
        entry = chain._mempool[txid]
        assert entry.eligible_round == chain._round + 1 + chain._inclusion_penalty(tx)

    def test_inclusion_drains_bucket_and_mempool(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        txid = chain.submit(chain.sign(alice, tx))
        drive(chain.queue, confirmed(chain, txid), chain=chain)
        assert chain.receipts[txid].status is TxStatus.SUCCESS
        assert txid not in chain._mempool
        assert not chain._eligible
        assert not chain._ready

    def test_higher_priority_fee_included_first(self, chain, alice, bob, service):
        cheap = service.build(alice, "transfer", to=bob.address, value=1)
        rich = service.build(bob, "transfer", to=alice.address, value=1)
        rich.priority_fee_per_gas = 50 * GWEI
        rich.max_fee_per_gas += 50 * GWEI
        # submitted cheap-first; fee order must win over arrival order
        cheap_id = chain.submit(chain.sign(alice, cheap))
        rich_id = chain.submit(chain.sign(bob, rich))
        drive(chain.queue, confirmed(chain, cheap_id), chain=chain)
        block = chain.blocks[chain.receipts[rich_id].block_number]
        txids = [t.txid for t in block.transactions]
        assert txids.index(rich_id) < txids.index(cheap_id)

    def test_equal_fees_keep_submission_order(self, chain, alice, bob, service):
        first = service.build(alice, "transfer", to=bob.address, value=1)
        second = service.build(bob, "transfer", to=alice.address, value=1)
        first_id = chain.submit(chain.sign(alice, first))
        second_id = chain.submit(chain.sign(bob, second))
        drive(chain.queue, confirmed(chain, first_id), chain=chain)
        block = chain.blocks[chain.receipts[first_id].block_number]
        txids = [t.txid for t in block.transactions]
        assert txids.index(first_id) < txids.index(second_id)


class TestReplaceByNonce:
    def replacement_for(self, chain, account, tx, bump):
        replacement = ChainService(chain).build(account, "transfer", to=tx.to, value=tx.value)
        replacement.nonce = tx.nonce
        replacement.max_fee_per_gas = tx.max_fee_per_gas + bump
        return chain.sign(account, replacement)

    def test_replacement_evicts_pending_copy(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        old_id = chain.submit(chain.sign(alice, tx))
        new_id = chain.submit(self.replacement_for(chain, alice, tx, bump=GWEI))
        assert old_id not in chain._mempool
        assert chain._mempool_nonce[(alice.address, tx.nonce)] == new_id
        assert chain.receipts[old_id].error == "replaced"

    def test_underpriced_replacement_rejected(self, chain, alice, bob, service):
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        chain.submit(chain.sign(alice, tx))
        # distinct txid (different value) but fees that fail the
        # strict-outbid rule
        replacement = service.build(alice, "transfer", to=bob.address, value=2)
        replacement.nonce = tx.nonce
        with pytest.raises(InvalidTransaction, match="underpriced"):
            chain.submit(chain.sign(alice, replacement))

    def test_stale_ready_pair_is_skipped_not_executed(self, chain, alice, bob, service):
        """The evicted entry's pair stays in its eligibility bucket; the
        identity check at inclusion must drop it so the nonce executes
        exactly once."""
        tx = service.build(alice, "transfer", to=bob.address, value=1)
        old_id = chain.submit(chain.sign(alice, tx))
        new_id = chain.submit(self.replacement_for(chain, alice, tx, bump=GWEI))
        before = chain.balance_of(bob.address)
        drive(chain.queue, confirmed(chain, new_id), chain=chain)
        assert chain.receipts[new_id].status is TxStatus.SUCCESS
        assert chain.receipts[old_id].status is TxStatus.PENDING  # never included
        assert chain.balance_of(bob.address) == before + 1
        assert not chain._ready and not chain._eligible
