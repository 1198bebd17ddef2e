"""Pipelined submission paths through the PoL system facade."""

import pytest

from repro.chain.ethereum import EthereumChain
from repro.core.factory import FactoryError
from repro.core.system import PolSystemError, ProofOfLocationSystem

FUNDING = 10**18
LAT, LNG = 44.4949, 11.3426
NEAR = 0.0002


def build_system(seed=31, max_users=4):
    chain = EthereumChain(profile="eth-devnet", seed=seed, validator_count=4)
    system = ProofOfLocationSystem(chain=chain, reward=5_000, max_users=max_users)
    system.register_prover("anna", LAT, LNG, funding=FUNDING)
    system.register_prover("bruno", LAT, LNG, funding=FUNDING)
    system.register_witness("walter", LAT, LNG + NEAR)
    return system


def proof_for(system, prover_name):
    request, proof, _cid = system.request_location_proof(
        prover_name, "walter", f"report by {prover_name}".encode()
    )
    return request, proof


class TestSubmitAsync:
    def test_submission_is_a_future(self):
        system = build_system()
        request, proof = proof_for(system, "anna")
        pending = system.submit_async("anna", request, proof)
        assert not pending.done
        assert system.provers["anna"].in_flight == (pending,)
        with pytest.raises(PolSystemError):
            pending.outcome()  # still in flight
        pending.handle.wait()
        outcome = pending.outcome()
        assert outcome.was_deploy
        assert system.factory.instance_for(request.olc) is not None
        assert system.dht.lookup(request.olc).found

    def test_prover_tracking_settles(self):
        system = build_system()
        request, proof = proof_for(system, "anna")
        system.submit("anna", request, proof)
        prover = system.provers["anna"]
        assert prover.in_flight == ()
        assert prover.submissions_settled == 1


class TestSubmitMany:
    def test_racing_provers_share_one_contract(self):
        """Two pipelined provers at a fresh location: the second attaches
        behind the first's in-flight deploy instead of double-deploying."""
        system = build_system()
        anna_request, anna_proof = proof_for(system, "anna")
        bruno_request, bruno_proof = proof_for(system, "bruno")
        assert anna_request.olc == bruno_request.olc  # same 14 m cell

        outcomes = system.submit_many(
            [("anna", anna_request, anna_proof), ("bruno", bruno_request, bruno_proof)]
        )
        assert [o.was_deploy for o in outcomes] == [True, False]
        assert outcomes[0].deployed.ref == outcomes[1].deployed.ref
        assert len(system.factory) == 1
        assert system.factory.pending == {}
        # Both records are in the contract's Map.
        contract = outcomes[0].deployed
        anna_did = system.provers["anna"].did_uint
        bruno_did = system.provers["bruno"].did_uint
        assert contract.map_value("easy_map", anna_did) is not None
        assert contract.map_value("easy_map", bruno_did) is not None

    def test_double_deploy_reservation(self):
        """The factory refuses a second deploy while one is in flight."""
        system = build_system()
        request, proof = proof_for(system, "anna")
        account = system.accounts["anna"]
        system.factory.deploy_instance_async(request.olc, account, 1, "data")
        with pytest.raises(FactoryError, match="in flight"):
            system.factory.deploy_instance_async(request.olc, account, 2, "data")
