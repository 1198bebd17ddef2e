"""Tests for the paper's extension features.

- verified-report persistence (gateway pinning);
- the known limitation the thesis explicitly leaves open
  (Prover-Witness collusion, section 2's caveat).
"""

import pytest

from repro.chain.ethereum import EthereumChain
from repro.core.proof import ProofFailure, ProofRequest, build_proof
from repro.core.system import ProofOfLocationSystem
from repro.ipfs import ContentNotAvailable

ETH = 10**18
LAT, LNG = 44.4949, 11.3426
REWARD = 5_000


def build_system(seed=71, max_users=2):
    chain = EthereumChain(profile="eth-devnet", seed=seed, validator_count=4)
    system = ProofOfLocationSystem(chain=chain, reward=REWARD, max_users=max_users)
    system.register_prover("anna", LAT, LNG, funding=ETH)
    system.register_prover("bruno", LAT, LNG, funding=ETH)
    system.register_witness("walter", LAT, LNG + 0.0002)
    system.register_verifier("vera", funding=ETH)
    return system


def file_both(system):
    """Anna deploys, Bruno attaches -> verify phase opens."""
    request_a, proof_a, _ = system.request_location_proof("anna", "walter", b"report-a")
    system.submit("anna", request_a, proof_a)
    request_b, proof_b, _ = system.request_location_proof("bruno", "walter", b"report-b")
    system.submit("bruno", request_b, proof_b)
    return request_a.olc


class TestReportPersistence:
    def test_verified_report_survives_uploader_gc(self):
        system = build_system(seed=73)
        olc = file_both(system)
        system.fund_contract("vera", olc, REWARD * 2)
        system.verify_and_reward("vera", olc, system.provers["anna"].did_uint)
        # Anna's node drops everything it held.
        system.ipfs.nodes["anna"].blocks.clear()
        reports = system.display_reports(olc)
        assert b"report-a" in reports[0]

    def test_unverified_report_can_disappear(self):
        system = build_system(seed=74)
        request, proof, cid = system.request_location_proof("anna", "walter", b"ephemeral")
        system.submit("anna", request, proof)
        system.ipfs.nodes["anna"].blocks.clear()
        with pytest.raises(ContentNotAvailable):
            system.ipfs.get(cid)


class TestKnownLimitations:
    def test_prover_witness_collusion_succeeds_as_the_thesis_admits(self):
        """Documented open problem: a *colluding* witness defeats the system.

        "We did not focus on the Prover-Prover or Prover-Witness
        collusions ... a reliable solution has not yet been proposed."
        A registered witness that skips its local checks can sign a
        location proof for a prover that is somewhere else entirely,
        and the verifier (who only checks keys and hashes) accepts it.
        """
        system = build_system(seed=75)
        anna = system.provers["anna"]
        # Anna claims a location 300 km away; the colluding witness signs
        # without running the proximity/authentication pipeline.
        from repro.geo import encode

        fake_olc = encode(LAT + 3.0, LNG + 3.0)
        request = ProofRequest(did=anna.did_uint, olc=fake_olc, nonce=123_456, cid="cid-fake")
        colluding_witness = system.witnesses["walter"]
        forged = build_proof(request, colluding_witness.keypair)
        outcome = system.verifiers["vera"].check_stored_record(
            forged.hashed_proof_hex,
            forged.signature_hex,
            anna.did_uint,
            fake_olc,
            123_456,
            "cid-fake",
        )
        # The attack SUCCEEDS -- faithfully reproducing the limitation.
        assert outcome is ProofFailure.OK
