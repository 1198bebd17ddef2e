"""Tests for the APPLAUS-style centralized baseline."""

import pytest

from repro.baselines import ApplausSystem, ServerUnavailable
from repro.baselines.applaus import ApplausError, ApplausProof
from repro.core.bluetooth import BluetoothError

LAT, LNG = 44.4949, 11.3426
NEAR = 0.0002


@pytest.fixture
def system():
    applaus = ApplausSystem()
    applaus.register_user("alice", LAT, LNG)
    applaus.register_user("bob", LAT + NEAR, LNG)
    applaus.register_user("carol", LAT + 1.0, LNG)  # far away
    applaus.authority.authorize("inspector")
    return applaus


class TestProofGeneration:
    def test_mutual_generation_in_range(self, system):
        proof = system.generate_proof("alice", "bob")
        assert proof.prover_pseudonym == system.users["alice"].active_pseudonym
        assert proof.olc == system.users["alice"].olc

    def test_out_of_range_rejected(self, system):
        with pytest.raises(BluetoothError):
            system.generate_proof("alice", "carol")

    def test_proof_verifies_under_witness_pseudonym_key(self, system):
        proof = system.generate_proof("alice", "bob")
        witness_key = system.users["bob"].active_keypair.public
        assert witness_key.verify(proof.digest, proof.signature)

    def test_duplicate_registration_rejected(self, system):
        with pytest.raises(ApplausError):
            system.register_user("alice", LAT, LNG)


class TestPseudonyms:
    def test_ca_links_every_pseudonym(self, system):
        # The privacy cost: 3 users x 4 pseudonyms, all linkable by the CA.
        assert system.authority.linkable_pairs() == 12

    def test_unauthorized_verifier_denied(self, system):
        with pytest.raises(PermissionError):
            system.authority.pseudonyms_of("stranger", "alice")


class TestCentralServer:
    def test_upload_and_verify(self, system):
        proof = system.generate_proof("alice", "bob")
        system.submit_proof(proof)
        assert system.verify_identity("inspector", "alice") == [proof]

    def test_forged_proof_filtered(self, system):
        proof = system.generate_proof("alice", "bob")
        forged = ApplausProof(
            prover_pseudonym=proof.prover_pseudonym,
            witness_pseudonym=proof.witness_pseudonym,
            olc="8FQF9222+22",  # a different claimed location
            sequence=proof.sequence,
            digest=proof.digest,
            signature=proof.signature,
        )
        system.submit_proof(forged)
        assert system.verify_identity("inspector", "alice") == []

    def test_single_point_of_failure(self, system):
        proof = system.generate_proof("alice", "bob")
        system.submit_proof(proof)
        system.server.online = False
        with pytest.raises(ServerUnavailable):
            system.verify_identity("inspector", "alice")
        with pytest.raises(ServerUnavailable):
            system.submit_proof(proof)

    def test_unknown_identity(self, system):
        with pytest.raises(ApplausError):
            system.verify_identity("inspector", "nobody")
