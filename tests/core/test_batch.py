"""The proof-batching layer: flush policy, anchoring, light verification.

One group on the EVM devnet: a creator deploys the location's contract,
three members route through the :class:`BatchAggregator`, and the batch
anchors as a single ``insert_batch`` transaction whose Merkle root the
members later light-verify against.
"""

from dataclasses import replace

import pytest

from repro.chain.ethereum import EthereumChain
from repro.core.batch import BatchAggregator
from repro.core.proof import ProofFailure
from repro.core.system import ProofOfLocationSystem

FUNDING = 10**18
REWARD = 5_000
LAT, LNG = 44.4949, 11.3426
MEMBERS = ["bruno", "carla", "dario"]


def build_system(seed=21):
    chain = EthereumChain(profile="eth-devnet", seed=seed, validator_count=4)
    system = ProofOfLocationSystem(chain=chain, reward=REWARD, max_users=4)
    for name in ["anna"] + MEMBERS:
        system.register_prover(name, LAT, LNG, funding=FUNDING)
    system.register_witness("walter", LAT, LNG + 0.0002)
    system.register_verifier("vera", funding=FUNDING)
    return system


def submit_creator(system):
    """Anna deploys the group's contract (first seat)."""
    request, proof, _cid = system.request_location_proof("anna", "walter", b"creator report")
    (outcome,) = system.submit_many([("anna", request, proof)])
    return outcome


def submit_members(system, aggregator, names=MEMBERS):
    """Route ``names`` through the aggregator; returns the last add()."""
    batch = None
    for name in names:
        request, proof, _cid = system.request_location_proof(name, "walter", b"member report")
        outcome, batch = system.submit_batched(name, request, proof, aggregator)
        assert outcome is ProofFailure.OK
    return batch


class TestFlushPolicy:
    def test_size_trigger_fires_exactly_at_capacity(self):
        system = build_system()
        submit_creator(system)
        aggregator = BatchAggregator(system, "vera", batch_size=3)
        olc = system.provers["anna"].olc

        assert submit_members(system, aggregator, MEMBERS[:2]) is None
        assert aggregator.pending(olc) == 2
        batch = submit_members(system, aggregator, MEMBERS[2:])
        assert batch is not None and batch.count == 3
        assert aggregator.pending(olc) == 0

    def test_age_trigger_flushes_stale_buffers(self):
        system = build_system()
        submit_creator(system)
        # max_age=0: any buffered record is immediately stale, so poll()
        # exercises the age comparison without simulating a long wait.
        aggregator = BatchAggregator(system, "vera", batch_size=10, max_age=0.0)
        submit_members(system, aggregator, MEMBERS[:1])
        flushed = aggregator.poll()
        assert [batch.count for batch in flushed] == [1]
        assert aggregator.poll() == []  # nothing left to age out

    def test_fresh_buffers_survive_poll(self):
        system = build_system()
        submit_creator(system)
        aggregator = BatchAggregator(system, "vera", batch_size=10, max_age=1e9)
        submit_members(system, aggregator, MEMBERS[:2])
        assert aggregator.poll() == []
        assert aggregator.pending(system.provers["anna"].olc) == 2

    def test_flush_all_drains_partial_buffers(self):
        system = build_system()
        submit_creator(system)
        aggregator = BatchAggregator(system, "vera", batch_size=10)
        submit_members(system, aggregator)
        (batch,) = aggregator.flush_all()
        assert batch.count == len(MEMBERS)
        assert aggregator.flush_all() == []

    def test_constructor_validation(self):
        system = build_system()
        with pytest.raises(ValueError, match="batch_size"):
            BatchAggregator(system, "vera", batch_size=0)
        with pytest.raises(ValueError, match="accredited"):
            BatchAggregator(system, "anna")


class TestAnchoring:
    def test_root_anchored_on_chain_and_paths_retained(self):
        system = build_system()
        outcome = submit_creator(system)
        aggregator = BatchAggregator(system, "vera", batch_size=3)
        batch = submit_members(system, aggregator)
        aggregator.drain()

        assert batch.handle.done
        anchored_hex = system._contract_at(outcome.olc).map_value("batch_map", batch.batch_id)
        assert anchored_hex == batch.root_hex
        root = bytes.fromhex(batch.root_hex)
        for record in batch.records:
            inclusion = system.provers[record.prover_name].batch_inclusions[batch.batch_id]
            assert inclusion.verify(record.leaf, root)

    def test_receipt_stats_cover_the_anchor_tx(self):
        system = build_system()
        submit_creator(system)
        aggregator = BatchAggregator(system, "vera", batch_size=3)
        submit_members(system, aggregator)
        aggregator.drain()
        assert aggregator.gas_min is not None and 0 < aggregator.gas_min <= aggregator.gas_max
        assert aggregator.fee_min is not None and 0 < aggregator.fee_min <= aggregator.fee_max

    def test_replayed_member_proof_rejected_before_buffering(self):
        system = build_system()
        submit_creator(system)
        aggregator = BatchAggregator(system, "vera", batch_size=10)
        request, proof, _cid = system.request_location_proof("bruno", "walter", b"report")
        outcome, _ = system.submit_batched("bruno", request, proof, aggregator)
        assert outcome is ProofFailure.OK
        replayed, batch = system.submit_batched("bruno", request, proof, aggregator)
        assert replayed is not ProofFailure.OK and batch is None
        assert aggregator.pending(system.provers["anna"].olc) == 1


class TestLightVerification:
    def _anchored(self):
        system = build_system()
        submit_creator(system)
        aggregator = BatchAggregator(system, "vera", batch_size=3)
        batch = submit_members(system, aggregator)
        aggregator.drain()
        return system, batch

    def test_all_members_light_verify(self):
        system, batch = self._anchored()
        outcomes = system.light_verify_many("vera", [batch])
        assert outcomes == [ProofFailure.OK] * batch.count

    def test_tampered_inclusion_path_rejected(self):
        system, batch = self._anchored()
        # Swap two members' retained paths: each now proves the other's
        # leaf position, so neither record hashes up to the root.
        first, second = batch.records[0], batch.records[1]
        provers = system.provers
        a = provers[first.prover_name].batch_inclusions[batch.batch_id]
        b = provers[second.prover_name].batch_inclusions[batch.batch_id]
        provers[first.prover_name].batch_inclusions[batch.batch_id] = b
        provers[second.prover_name].batch_inclusions[batch.batch_id] = a
        outcomes = system.light_verify_many("vera", [batch])
        assert outcomes.count(ProofFailure.HASH_MISMATCH) == 2
        assert outcomes.count(ProofFailure.OK) == batch.count - 2

    def test_unanchored_batch_id_rejected(self):
        system, batch = self._anchored()
        # A batch claiming an id the contract never saw has no anchored
        # root (and no retained paths) to verify against.
        ghost = replace(batch, batch_id=999)
        outcomes = system.light_verify_many("vera", [ghost])
        assert outcomes == [ProofFailure.HASH_MISMATCH] * batch.count
