"""Tests for the Polygon layer-2 chain and checkpointing."""

import pytest

from repro.chain import ChainService, TxStatus
from repro.chain.ethereum import EthereumChain
from repro.chain.polygon import PolygonChain

ETH = 10**18


@pytest.fixture
def polygon():
    return PolygonChain(seed=9, validator_count=4, checkpoint_interval=8)


@pytest.fixture
def service(polygon) -> ChainService:
    return ChainService(polygon)


class TestPolygonChain:
    def test_uses_mumbai_profile(self, polygon):
        assert polygon.profile.name == "polygon-mumbai"
        assert polygon.profile.block_time == 2.0

    def test_transfers_work(self, polygon, service):
        alice = polygon.create_account(seed=b"alice", funding=10 * ETH)
        bob = polygon.create_account(seed=b"bob")
        tx = service.build(alice, "transfer", to=bob.address, value=ETH)
        receipt = service.submit(alice, tx).result()
        assert receipt.status is TxStatus.SUCCESS

    def test_fees_cheaper_than_goerli(self, polygon):
        goerli = EthereumChain(profile="goerli", seed=9, validator_count=4)
        p_fee, g_fee = (
            self.self_transfer_fee(chain, chain.create_account(seed=b"x", funding=10 * ETH))
            for chain in (polygon, goerli)
        )
        assert p_fee < g_fee

    @staticmethod
    def self_transfer_fee(chain, account):
        service = ChainService(chain)
        tx = service.build(account, "transfer", to=account.address, value=0)
        return service.submit(account, tx).result().fee_paid

    def test_checkpoints_emitted(self, polygon, service):
        alice = polygon.create_account(seed=b"alice", funding=10 * ETH)
        for _ in range(3):
            tx = service.build(alice, "transfer", to=alice.address, value=0)
            service.submit(alice, tx).result()
        polygon.queue.run_until(polygon.queue.clock.now + 2.0 * 20)
        assert polygon.checkpoints
        assert polygon.checkpointed_height() > 0

    def test_checkpoints_verify(self, polygon, service):
        alice = polygon.create_account(seed=b"alice", funding=10 * ETH)
        tx = service.build(alice, "transfer", to=alice.address, value=0)
        service.submit(alice, tx).result()
        polygon.queue.run_until(polygon.queue.clock.now + 2.0 * 20)
        for index in range(len(polygon.checkpoints)):
            assert polygon.verify_checkpoint(index)

    def test_checkpoints_reference_l1(self):
        l1 = EthereumChain(profile="eth-devnet", seed=1, validator_count=4)
        l2 = PolygonChain(seed=2, validator_count=4, checkpoint_interval=4, l1=l1, queue=l1.queue)
        alice = l2.create_account(seed=b"alice", funding=10 * ETH)
        l1.start()
        service = ChainService(l2)
        tx = service.build(alice, "transfer", to=alice.address, value=0)
        service.submit(alice, tx).result()
        l2.queue.run_until(l2.queue.clock.now + 30.0)
        assert l2.checkpoints
        assert all(cp.l1_block is not None for cp in l2.checkpoints)

    def test_checkpoints_are_contiguous(self, polygon, service):
        alice = polygon.create_account(seed=b"alice", funding=10 * ETH)
        tx = service.build(alice, "transfer", to=alice.address, value=0)
        service.submit(alice, tx).result()
        polygon.queue.run_until(polygon.queue.clock.now + 2.0 * 40)
        for previous, current in zip(polygon.checkpoints, polygon.checkpoints[1:]):
            assert current.first_block == previous.last_block + 1
