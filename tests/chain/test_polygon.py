"""Tests for the Polygon layer-2 chain."""

import pytest

from repro.chain import ChainService, TxStatus
from repro.chain.ethereum import EthereumChain
from repro.chain.polygon import PolygonChain

ETH = 10**18


@pytest.fixture
def polygon():
    return PolygonChain(seed=9, validator_count=4)


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
