"""The grand tour: the system's extensions composed in one realistic scenario.

A single flow on the Algorand simulator exercising, together: the CA's
witness-key list, app reports filed and verified with rewards,
hypercube replication surviving a node failure, the IPFS
gateway replica surviving the uploader's data loss, and the public
display pipeline.
"""

import pytest

from repro.chain.algorand import AlgorandChain
from repro.core.proof import ProofFailure
from repro.core.system import ProofOfLocationSystem
from repro.app import CrowdsensingApp, ReportCategory

ALGO = 10**6
REWARD = 5_000
LAT, LNG = 44.4949, 11.3426


@pytest.fixture(scope="module")
def world():
    chain = AlgorandChain(profile="algo-devnet", seed=222, participant_count=6)
    system = ProofOfLocationSystem(chain=chain, reward=REWARD, max_users=2)
    system.register_prover("marta", LAT, LNG, funding=1_000 * ALGO)
    system.register_prover("luca", LAT, LNG, funding=1_000 * ALGO)
    system.register_witness("w1", LAT, LNG + 0.0002)
    system.register_witness("w2", LAT + 0.0002, LNG)
    system.register_verifier("comune", funding=10_000 * ALGO)
    app = CrowdsensingApp(system=system)
    return chain, system, app


def test_grand_tour(world):
    chain, system, app = world

    # -- proximity: both witnesses are in radio range ---------------------------
    marta = system.provers["marta"].device_id
    assert all(system.channel.in_range(marta, name) for name in ("w1", "w2"))

    # -- accreditation: the CA delivers both witness keys to the verifier ------
    keys = system.authority.witness_set("comune")
    for name in ("w1", "w2"):
        assert system.witnesses[name].keypair.public in keys

    # -- reports: deploy + attach, then verify with rewards ----------------------
    filed_marta = app.file_report(
        "marta", "w1", "Overflowing bins", "Not emptied for a week", ReportCategory.WASTE
    )
    filed_luca = app.file_report(
        "luca", "w2", "Oily pond", "Rainbow film on the water", ReportCategory.WATER_POLLUTION
    )
    assert filed_marta.submission.was_deploy and not filed_luca.submission.was_deploy

    system.fund_contract("comune", filed_marta.olc, REWARD * 2)
    outcomes = app.review_location("comune", filed_marta.olc)
    assert all(result is ProofFailure.OK for result in outcomes.values())

    # -- resilience: DHT node failure + uploader data loss cannot lose the reports
    responsible = system.dht.responsible_node(filed_marta.olc)
    system.dht.set_online(responsible.node_id, False)
    system.ipfs.nodes["marta"].blocks.clear()
    reports = app.display_reports(filed_marta.olc)
    assert {report.title for report in reports} == {"Overflowing bins", "Oily pond"}
