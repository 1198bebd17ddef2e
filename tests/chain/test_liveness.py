"""Liveness under node disconnection (thesis section 1.4.2, challenge 3).

"Algorand has to continue to operate even if an adversary disconnects
some of the nodes" -- but only while enough stake stays online: the
agreement protocol assumes >2/3 of the monetary value is honest and
participating.
"""

import pytest

from repro.crypto.hashing import sha256
from repro.crypto.vrf import VRFKeyPair
from repro.chain import ChainService, TxStatus, drive
from repro.chain.algorand import AlgorandChain
from repro.chain.algorand.consensus import Sortition

ALGO = 10**6


def make_sortition(participants=12, stake=1_000):
    sortition = Sortition(expected_leaders=2.0, expected_committee=10.0)
    for index in range(participants):
        sortition.register(f"P{index}", VRFKeyPair.from_seed(f"live-{index}".encode()), stake=stake)
    return sortition


def certification_rate(sortition, rounds=40):
    certified = sum(
        1 for r in range(rounds) if sortition.run_round(r, sha256(b"live", bytes([r]))).certified
    )
    return certified / rounds


class TestSortitionLiveness:
    def test_fully_online_certifies(self):
        assert certification_rate(make_sortition()) > 0.7

    def test_quarter_offline_still_operates(self):
        sortition = make_sortition()
        for index in range(3):  # 25% of stake disconnects
            sortition.set_online(f"P{index}", False)
        assert certification_rate(sortition) > 0.4

    def test_two_thirds_offline_stalls(self):
        sortition = make_sortition()
        for index in range(9):  # 75% of stake disconnects
            sortition.set_online(f"P{index}", False)
        assert certification_rate(sortition) < 0.1

    def test_reconnection_restores_liveness(self):
        sortition = make_sortition()
        for index in range(9):
            sortition.set_online(f"P{index}", False)
        for index in range(9):
            sortition.set_online(f"P{index}", True)
        assert certification_rate(sortition) > 0.7

    def test_unknown_participant_rejected(self):
        with pytest.raises(KeyError):
            make_sortition().set_online("GHOST", False)


class TestChainLiveness:
    def test_transactions_survive_partial_outage(self):
        chain = AlgorandChain(profile="algorand-testnet", seed=141, participant_count=12)
        # A quarter of the stake goes dark.
        victims = list(chain.sortition.participants)[:3]
        for address in victims:
            chain.sortition.set_online(address, False)
        alice = chain.create_account(seed=b"alice", funding=100 * ALGO)
        bob = chain.create_account(seed=b"bob", funding=1 * ALGO)
        service = ChainService(chain)
        tx = service.build(alice, "transfer", to=bob.address, value=1_000)
        receipt = service.submit(alice, tx).result()
        assert receipt.status is TxStatus.SUCCESS

    def test_majority_outage_stalls_inclusion(self):
        chain = AlgorandChain(profile="algorand-testnet", seed=151, participant_count=12)
        # Nearly all stake goes dark: way past the 1/3 adversary bound.
        for address in list(chain.sortition.participants)[:11]:
            chain.sortition.set_online(address, False)
        alice = chain.create_account(seed=b"alice", funding=100 * ALGO)
        bob = chain.create_account(seed=b"bob", funding=1 * ALGO)
        tx = ChainService(chain).build(alice, "transfer", to=bob.address, value=1_000)
        chain.sign(alice, tx)
        txid = chain.submit(tx)
        deadline = chain.height + 40
        drive(chain.queue, lambda: chain.height > deadline, chain=chain)
        assert chain.receipt(txid).confirmed_at is None  # not within 40 blocks
        # Uncertified rounds were produced but carried nothing.
        assert all(not block.transactions for block in chain.blocks[1:])
