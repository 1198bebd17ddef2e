"""The attack library: every cheat the architecture must defeat.

Each attack function drives a real attempt through the system and
returns an :class:`AttackOutcome` whose ``succeeded`` flag must be
False for the defence to hold.  Covered:

- **fake location** (the Uber/Foursquare scenario of section 1.1): the
  prover claims an OLC far from where it physically is;
- **replay** (section 2.3.1.1): an old proof is re-submitted;
- **self-signing**: the prover signs its own proof;
- **CID swap**: the prover files a different report than the proof
  attested;
- **out-of-range witness**: a proof request from beyond Bluetooth range;
- **stolen DID**: an attacker without the private key tries to pass the
  challenge-response authentication.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import KeyPair
from repro.core.actors import WitnessRefusal
from repro.core.bluetooth import BluetoothError
from repro.core.proof import ProofFailure, ProofRequest, build_proof
from repro.core.system import ProofOfLocationSystem


@dataclass(frozen=True)
class AttackOutcome:
    """Result of an attack attempt."""

    attack: str
    succeeded: bool
    detail: str


def fake_location_attack(system: ProofOfLocationSystem, prover_name: str, witness_name: str) -> AttackOutcome:
    """Claim a location ~300 km away from the radio-verified position."""
    prover = system.provers[prover_name]
    witness = system.witnesses[witness_name]
    cid = system.ipfs.add(prover_name, b"fabricated report from somewhere else")
    nonce = witness.issue_nonce()
    from repro.geo.olc import encode

    fake_olc = encode(prover.latitude + 3.0, prover.longitude + 3.0)  # far away
    request = ProofRequest(did=prover.did_uint, olc=fake_olc, nonce=nonce, cid=cid)
    try:
        witness.handle_request(
            request,
            prover_device=prover.device_id,
            channel=system.channel,
            registry=system.registry,
            prover_keypair=prover.keypair,
        )
    except WitnessRefusal as refusal:
        return AttackOutcome("fake-location", False, str(refusal))
    return AttackOutcome("fake-location", True, "witness signed a location it could not attest")


def replay_attack(
    system: ProofOfLocationSystem, prover_name: str, witness_name: str, verifier_name: str
) -> AttackOutcome:
    """Obtain one valid proof, then try to spend it twice.

    The witness consumes its nonce on first use, and the verifier keeps
    a seen-nonce register, so the replay dies at both layers.
    """
    request, proof, _cid = system.request_location_proof(prover_name, witness_name, b"legit report")
    witness = system.witnesses[witness_name]
    # Layer 1: re-present the same request to the witness.
    try:
        witness.handle_request(
            request,
            prover_device=system.provers[prover_name].device_id,
            channel=system.channel,
            registry=system.registry,
            prover_keypair=system.provers[prover_name].keypair,
        )
        return AttackOutcome("replay", True, "witness accepted a consumed nonce")
    except WitnessRefusal:
        pass
    # Layer 2: the verifier sees the same nonce twice.
    verifier = system.verifiers[verifier_name]
    first = verifier.check_stored_record(
        proof.hashed_proof_hex, proof.signature_hex, request.did, request.olc, request.nonce, request.cid
    )
    second = verifier.check_stored_record(
        proof.hashed_proof_hex, proof.signature_hex, request.did, request.olc, request.nonce, request.cid
    )
    if first is ProofFailure.OK and second is ProofFailure.REPLAY:
        return AttackOutcome("replay", False, "verifier rejected the second presentation")
    return AttackOutcome("replay", second is ProofFailure.OK, f"first={first}, second={second}")


def self_signed_proof_attack(
    system: ProofOfLocationSystem, prover_name: str, verifier_name: str
) -> AttackOutcome:
    """The prover signs its own proof instead of asking a witness."""
    prover = system.provers[prover_name]
    cid = system.ipfs.add(prover_name, b"self-attested report")
    request = ProofRequest(did=prover.did_uint, olc=prover.olc, nonce=777_001, cid=cid)
    forged = build_proof(request, prover.keypair)  # signed with the PROVER key
    verifier = system.verifiers[verifier_name]
    outcome = verifier.check_stored_record(
        forged.hashed_proof_hex,
        forged.signature_hex,
        request.did,
        request.olc,
        request.nonce,
        request.cid,
        prover_public=prover.keypair.public,
    )
    return AttackOutcome(
        "self-signed-proof",
        outcome is ProofFailure.OK,
        f"verifier said: {outcome.value}",
    )


def cid_swap_attack(
    system: ProofOfLocationSystem, prover_name: str, witness_name: str, verifier_name: str
) -> AttackOutcome:
    """Get a proof for one report, then submit a different report's CID."""
    request, proof, _cid = system.request_location_proof(prover_name, witness_name, b"innocent report")
    swapped_cid = system.ipfs.add(prover_name, b"malicious replacement report")
    verifier = system.verifiers[verifier_name]
    outcome = verifier.check_stored_record(
        proof.hashed_proof_hex,
        proof.signature_hex,
        request.did,
        request.olc,
        request.nonce,
        swapped_cid,  # <- the swap
    )
    return AttackOutcome("cid-swap", outcome is ProofFailure.OK, f"verifier said: {outcome.value}")


def out_of_range_attack(system: ProofOfLocationSystem, prover_name: str, witness_name: str) -> AttackOutcome:
    """Request a proof from a witness physically out of Bluetooth range."""
    prover = system.provers[prover_name]
    witness = system.witnesses[witness_name]
    cid = system.ipfs.add(prover_name, b"remote request")
    request = ProofRequest(did=prover.did_uint, olc=prover.olc, nonce=witness.issue_nonce(), cid=cid)
    try:
        witness.handle_request(
            request,
            prover_device=prover.device_id,
            channel=system.channel,
            registry=system.registry,
            prover_keypair=prover.keypair,
        )
    except (WitnessRefusal, BluetoothError) as refusal:
        return AttackOutcome("out-of-range", False, str(refusal))
    return AttackOutcome("out-of-range", True, "witness signed for a peer it could not hear")


def stolen_did_attack(system: ProofOfLocationSystem, victim_name: str, witness_name: str) -> AttackOutcome:
    """Impersonate another user's DID without holding its private key."""
    victim = system.provers[victim_name]
    witness = system.witnesses[witness_name]
    attacker_keypair = KeyPair.from_seed(b"attacker-without-victim-key")
    cid = system.ipfs.add("gateway", b"impersonated report")
    request = ProofRequest(did=victim.did_uint, olc=victim.olc, nonce=witness.issue_nonce(), cid=cid)
    try:
        witness.handle_request(
            request,
            prover_device=victim.device_id,  # radio position is fine; the key is not
            channel=system.channel,
            registry=system.registry,
            prover_keypair=attacker_keypair,
        )
    except WitnessRefusal as refusal:
        return AttackOutcome("stolen-did", False, str(refusal))
    return AttackOutcome("stolen-did", True, "witness authenticated the wrong key")


def run_all_attacks(
    system: ProofOfLocationSystem,
    prover_name: str,
    witness_name: str,
    far_witness_name: str,
    verifier_name: str,
) -> list[AttackOutcome]:
    """Run the whole battery; every outcome should have succeeded=False."""
    return [
        fake_location_attack(system, prover_name, witness_name),
        replay_attack(system, prover_name, witness_name, verifier_name),
        self_signed_proof_attack(system, prover_name, verifier_name),
        cid_swap_attack(system, prover_name, witness_name, verifier_name),
        out_of_range_attack(system, prover_name, far_witness_name),
        stolen_did_attack(system, prover_name, witness_name),
    ]
