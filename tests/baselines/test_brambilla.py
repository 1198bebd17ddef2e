"""Tests for the Brambilla-style P2P blockchain PoL baseline."""

import pytest

from repro.baselines.brambilla import BrambillaError, BrambillaNetwork, Peer
from repro.crypto.keys import KeyPair

LAT, LNG = 44.4949, 11.3426
NEAR = 0.0003  # ~33 m
FAR = 3.0  # ~330 km


def join(network: BrambillaNetwork, name: str, latitude: float, longitude: float, honest: bool = True) -> Peer:
    """Add a peer with a key derived from its name."""
    keypair = KeyPair.from_seed(f"brambilla/{name}".encode())
    peer = Peer(name=name, keypair=keypair, latitude=latitude, longitude=longitude, honest=honest)
    network.peers[name] = peer
    return peer


@pytest.fixture
def network():
    net = BrambillaNetwork(seed=9)
    join(net, "alice", LAT, LNG)
    join(net, "bob", LAT + NEAR, LNG)
    join(net, "carol", LAT + FAR, LNG)
    return net


class TestProtocol:
    def test_honest_proof_recorded(self, network):
        alice, bob = network.peers["alice"], network.peers["bob"]
        request = alice.make_request(network.head_hash)
        record = bob.respond(request)
        network.submit(record)
        block = network.run_round()
        assert len(block.pols) == 1
        assert block.pols[0].request.prover_key_hex == alice.key_hex

    def test_honest_witness_refuses_distant_prover(self, network):
        alice, carol = network.peers["alice"], network.peers["carol"]
        request = alice.make_request(network.head_hash)
        with pytest.raises(BrambillaError):
            carol.respond(request)

    def test_forged_signature_rejected(self, network):
        alice, bob = network.peers["alice"], network.peers["bob"]
        request = alice.make_request(network.head_hash)
        record = bob.respond(request)
        from dataclasses import replace

        forged = replace(record, witness_latitude=99.0)  # breaks the signature
        with pytest.raises(BrambillaError):
            network.submit(forged)

    def test_stale_request_rejected(self, network):
        alice, bob = network.peers["alice"], network.peers["bob"]
        request = alice.make_request("0" * 64 if network.head_hash != "0" * 64 else "1" * 64)
        record = bob.respond(request)
        with pytest.raises(BrambillaError):
            network.submit(record)

    def test_replay_across_blocks_rejected(self, network):
        alice, bob = network.peers["alice"], network.peers["bob"]
        request = alice.make_request(network.head_hash)
        record = bob.respond(request)
        network.submit(record)
        network.run_round()
        # "verifying that the proof-of-location inserted in a new block is
        # not already present in previous blocks"
        with pytest.raises(BrambillaError):
            network.submit(record)

    def test_chain_links_by_hash(self, network):
        alice, bob = network.peers["alice"], network.peers["bob"]
        for _ in range(3):
            request = alice.make_request(network.head_hash)
            network.submit(bob.respond(request))
            network.run_round()
        for previous, current in zip(network.chain, network.chain[1:]):
            assert current.previous_hash == previous.block_hash


class TestCollusionVulnerability:
    def test_distant_colluders_pass_every_network_check(self):
        """The thesis's critique, reproduced: the protocol has no physical
        channel, so two distant dishonest peers fabricate a valid proof."""
        net = BrambillaNetwork(seed=11)
        join(net, "mallory", LAT, LNG, honest=False)
        colluder = join(net, "colluder", LAT + FAR, LNG, honest=False)
        mallory = net.peers["mallory"]
        # Mallory claims a position 330 km from the colluding witness.
        request = mallory.make_request(net.head_hash)
        record = colluder.respond(request)  # a dishonest witness signs anyway
        net.submit(record)  # every network-level check passes
        block = net.run_round()
        assert len(block.pols) == 1  # the forged proof is now on-chain

    def test_contrast_with_the_decentralized_system(self):
        """The same collusion *distance* is physically impossible in the
        reproduction's architecture: Bluetooth bounds the prover-witness
        channel, so a witness 330 km away can never receive the request."""
        from repro.chain.ethereum import EthereumChain
        from repro.core.system import ProofOfLocationSystem
        from repro.core.actors import WitnessRefusal
        from repro.core.bluetooth import BluetoothError

        chain = EthereumChain(profile="eth-devnet", seed=191, validator_count=4)
        system = ProofOfLocationSystem(chain=chain, reward=1_000, max_users=2)
        system.register_prover("mallory", LAT, LNG, funding=10**18)
        system.register_witness("far-colluder", LAT + FAR, LNG)
        with pytest.raises((WitnessRefusal, BluetoothError)):
            system.request_location_proof("mallory", "far-colluder", b"forged")
