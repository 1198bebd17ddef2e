"""The attack gauntlet: every cheat from the threat model, defeated.

Recreates the scenarios the paper's introduction motivates -- Foursquare
fake check-ins, Uber driver GPS spoofing -- plus replay, self-signed
proofs, CID swaps and stolen DIDs, and shows the architecture rejecting
each one and the exact layer that caught it.

    python examples/attack_gauntlet.py
"""

from repro.chain.ethereum import EthereumChain
from repro.core.attacks import run_all_attacks
from repro.core.system import ProofOfLocationSystem

ETH = 10**18
LAT, LNG = 44.4949, 11.3426


def main() -> None:
    chain = EthereumChain(profile="eth-devnet", seed=13, validator_count=4)
    system = ProofOfLocationSystem(chain=chain, reward=5_000, max_users=4)
    system.register_prover("mallory", LAT, LNG, funding=ETH)
    system.register_witness("walter", LAT, LNG + 0.0002)
    system.register_witness("remota", LAT + 1.0, LNG + 1.0)  # 140 km away
    system.register_verifier("vera", funding=ETH)

    outcomes = run_all_attacks(
        system,
        prover_name="mallory",
        witness_name="walter",
        far_witness_name="remota",
        verifier_name="vera",
    )

    print(f"{'attack':20} {'outcome':10} defence")
    print("-" * 88)
    for outcome in outcomes:
        status = "SUCCEEDED" if outcome.succeeded else "defeated"
        print(f"{outcome.attack:20} {status:10} {outcome.detail}")

    defeated = sum(1 for outcome in outcomes if not outcome.succeeded)
    print(f"\n{defeated}/{len(outcomes)} attacks defeated.")
    if defeated != len(outcomes):
        raise SystemExit(1)

    # The thesis's admitted open problem -- a *colluding* witness -- is
    # not defended: the single-witness scheme accepts its forged proof.
    from repro.core.proof import ProofFailure, ProofRequest, build_proof
    from repro.geo import encode

    mallory = system.provers["mallory"]
    fake_olc = encode(LAT + 3.0, LNG + 3.0)
    request = ProofRequest(did=mallory.did_uint, olc=fake_olc, nonce=424_242, cid="cid-collusion")
    forged = build_proof(request, system.witnesses["walter"].keypair)

    single = system.verifiers["vera"].check_stored_record(
        forged.hashed_proof_hex, forged.signature_hex,
        mallory.did_uint, fake_olc, 424_242, "cid-collusion",
    )
    print(f"\nprover-witness collusion, single-witness scheme: {single.value}"
          f" -> the attack SUCCEEDS (the thesis's open problem; not defended)")
    assert single is ProofFailure.OK

if __name__ == "__main__":
    main()
