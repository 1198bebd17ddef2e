"""The witness pipeline's refusals: their type, message and check order.

``Witness.handle_request`` runs figure 2.5's checks in a fixed order --
radio range, proximity, claimed area, nonce replay, nonce issuance, DID
authentication -- and the first failing check names the refusal.  A
request that fails several checks must keep reporting the first one.
"""

import pytest

from repro.chain.ethereum import EthereumChain
from repro.core.actors import WitnessRefusal
from repro.core.proof import ProofRequest
from repro.core.system import ProofOfLocationSystem
from repro.crypto.keys import KeyPair
from repro.geo.olc import encode

FUNDING = 10**18
LAT, LNG = 44.4949, 11.3426
NEAR = 0.0002  # about 16 m east at this latitude
MID = 0.0013  # about 100 m east: beyond the 50 m range, within 150 m


@pytest.fixture
def system():
    chain = EthereumChain(profile="eth-devnet", seed=5, validator_count=4)
    system = ProofOfLocationSystem(chain=chain, reward=5_000, max_users=4)
    system.register_witness("walter", LAT, LNG + NEAR)
    system.register_prover("anna", LAT, LNG, funding=FUNDING)
    system.register_prover("mario", LAT, LNG + NEAR + MID, funding=FUNDING)
    system.register_prover("faraway", LAT + 0.01, LNG, funding=FUNDING)
    return system


def request_of(system, prover_name, nonce=None, olc=None):
    prover = system.provers[prover_name]
    if nonce is None:
        nonce = system.witnesses["walter"].issue_nonce()
    return ProofRequest(did=prover.did_uint, olc=olc or prover.olc, nonce=nonce, cid="bafkreitest")


def refusal(system, request, device, keypair=None):
    if keypair is None:
        keypair = next(p for p in system.provers.values() if p.did_uint == request.did).keypair
    with pytest.raises(WitnessRefusal) as caught:
        system.witnesses["walter"].handle_request(
            request,
            prover_device=device,
            channel=system.channel,
            registry=system.registry,
            prover_keypair=keypair,
        )
    assert type(caught.value) is WitnessRefusal
    return str(caught.value)


def test_a_near_prover_gets_a_proof(system):
    request = request_of(system, "anna")
    proof = system.witnesses["walter"].handle_request(
        request, "anna", system.channel, system.registry, system.provers["anna"].keypair
    )
    assert proof.hashed_proof == request.digest()


def test_same_device(system):
    request = request_of(system, "anna")
    assert refusal(system, request, "walter") == "prover 'walter' is not within Bluetooth range"


def test_out_of_range(system):
    request = request_of(system, "faraway")
    assert refusal(system, request, "faraway") == "prover 'faraway' is not within Bluetooth range"


def test_range_flap_below_nominal_refuses_a_near_prover(system):
    system.channel.range_scale = 0.5  # 25 m: anna, 16 m away, is still in range
    request = request_of(system, "anna")
    system.witnesses["walter"].handle_request(
        request, "anna", system.channel, system.registry, system.provers["anna"].keypair
    )
    system.channel.range_scale = 0.2  # 10 m
    request = request_of(system, "anna")
    assert refusal(system, request, "anna") == "prover 'anna' is not within Bluetooth range"


def test_radio_reach_beyond_nominal_range_fails_proximity(system):
    system.channel.range_scale = 3.0  # 150 m of radio reach, 50 m nominal
    request = request_of(system, "mario")
    assert refusal(system, request, "mario") == "proximity check failed"


def test_claimed_location_elsewhere(system):
    elsewhere = encode(LAT + 1.0, LNG)
    request = request_of(system, "anna", olc=elsewhere)
    assert refusal(system, request, "anna") == (
        f"claimed location {elsewhere} does not cover the radio-verified position"
    )


def test_replayed_nonce(system):
    request = request_of(system, "anna")
    system.witnesses["walter"].handle_request(
        request, "anna", system.channel, system.registry, system.provers["anna"].keypair
    )
    assert refusal(system, request, "anna") == "nonce already used (replay attempt)"


def test_unissued_nonce(system):
    request = request_of(system, "anna", nonce=12345)
    assert refusal(system, request, "anna") == "nonce was not issued by this witness"


def test_failed_did_authentication_keeps_the_nonce(system):
    request = request_of(system, "anna")
    imposter = KeyPair.from_seed(b"imposter")
    assert refusal(system, request, "anna", keypair=imposter) == "DID authentication failed"
    assert request.nonce in system.witnesses["walter"].issued_nonces


def test_unregistered_did_fails_authentication(system):
    request = ProofRequest(
        did=12345, olc=system.provers["anna"].olc,
        nonce=system.witnesses["walter"].issue_nonce(), cid="bafkreitest",
    )
    assert refusal(system, request, "anna", keypair=system.provers["anna"].keypair) == (
        "DID authentication failed: no DID registered for UInt id 12345"
    )
    assert request.nonce in system.witnesses["walter"].issued_nonces


def test_the_first_failing_check_names_the_refusal(system):
    elsewhere = encode(LAT + 1.0, LNG)
    imposter = KeyPair.from_seed(b"imposter")
    # out of range, claimed elsewhere, unissued nonce, wrong key
    request = request_of(system, "faraway", nonce=12345, olc=elsewhere)
    assert refusal(system, request, "faraway", keypair=imposter) == (
        "prover 'faraway' is not within Bluetooth range"
    )
    # claimed elsewhere, unissued nonce, wrong key
    request = request_of(system, "anna", nonce=12345, olc=elsewhere)
    assert refusal(system, request, "anna", keypair=imposter) == (
        f"claimed location {elsewhere} does not cover the radio-verified position"
    )
    # replayed (so also no longer issued), wrong key
    used = request_of(system, "anna")
    system.witnesses["walter"].handle_request(
        used, "anna", system.channel, system.registry, system.provers["anna"].keypair
    )
    assert refusal(system, used, "anna", keypair=imposter) == "nonce already used (replay attempt)"
    # unissued nonce, wrong key
    request = request_of(system, "anna", nonce=12345)
    assert refusal(system, request, "anna", keypair=imposter) == "nonce was not issued by this witness"
