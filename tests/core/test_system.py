"""End-to-end system tests: the full PoL pipeline on the devnets."""

import pytest

from repro.chain.algorand import AlgorandChain
from repro.chain.ethereum import EthereumChain
from repro.core.actors import Witness
from repro.core.attacks import run_all_attacks
from repro.core.proof import ProofFailure
from repro.core.system import PolSystemError, ProofOfLocationSystem
from repro.crypto.keys import KeyPair
from repro.app import CrowdsensingApp, Report, ReportCategory

ETH = 10**18
FUNDING = 10**18
REWARD = 5_000

# Bologna city centre: everyone within Bluetooth range except "remota".
LAT, LNG = 44.4949, 11.3426
NEAR = 0.0002


def build_system(family="evm", seed=21, max_users=4):
    if family == "evm":
        chain = EthereumChain(profile="eth-devnet", seed=seed, validator_count=4)
    else:
        chain = AlgorandChain(profile="algo-devnet", seed=seed, participant_count=6)
    system = ProofOfLocationSystem(chain=chain, reward=REWARD, max_users=max_users)
    system.register_prover("anna", LAT, LNG, funding=FUNDING)
    # Bruno shares Anna's 14 m OLC cell, so his report attaches.
    system.register_prover("bruno", LAT, LNG, funding=FUNDING)
    system.register_witness("walter", LAT, LNG + NEAR)
    system.register_witness("wanda", LAT + NEAR, LNG + NEAR)
    system.register_witness("remota", LAT + 1.0, LNG + 1.0)  # out of radio range
    system.register_verifier("vera", funding=FUNDING)
    return system


@pytest.fixture(params=["evm", "avm"], scope="module")
def system(request):
    return build_system(request.param)


class TestOnboarding:
    def test_users_have_wallets_and_dids(self, system):
        assert "anna" in system.accounts
        assert system.provers["anna"].did.startswith("did:repro:")

    def test_witness_key_in_ca_list(self, system):
        walter_key = system.witnesses["walter"].keypair.public
        assert walter_key in system.authority.witness_set("vera")

    def test_unaccredited_verifier_denied_witness_list(self, system):
        with pytest.raises(PermissionError):
            system.authority.witness_set("anna")

    def test_duplicate_registration_rejected(self, system):
        with pytest.raises(PolSystemError):
            system.register_prover("anna", LAT, LNG, funding=1)


class TestFullPipeline:
    def test_end_to_end_report_flow(self):
        # Two seats: Anna (creator) + Bruno fill them, opening verification.
        system = build_system("evm", seed=33, max_users=2)
        app = CrowdsensingApp(system=system)
        olc = system.provers["anna"].olc

        # 1. Anna files a report, witnessed by Walter -> deploys the contract.
        filed_anna = app.file_report(
            "anna", "walter", "Oily river", "Oily spots on the Reno river", ReportCategory.WATER_POLLUTION
        )
        assert filed_anna.submission.was_deploy

        # 2. Bruno files at the same location -> attaches.
        filed_bruno = app.file_report(
            "bruno", "wanda", "Dumped waste", "Washing machine abandoned", ReportCategory.WASTE
        )
        assert filed_bruno.olc == olc
        assert not filed_bruno.submission.was_deploy

        # 3. The verifier funds the contract and reviews the location.
        system.fund_contract("vera", filed_anna.olc, REWARD * 2)
        anna_before = system.chain.balance_of(system.accounts["anna"].address)
        bruno_before = system.chain.balance_of(system.accounts["bruno"].address)
        outcomes = app.review_location("vera", filed_anna.olc)
        assert outcomes[system.provers["anna"].did_uint] is ProofFailure.OK
        assert outcomes[system.provers["bruno"].did_uint] is ProofFailure.OK
        assert system.chain.balance_of(system.accounts["anna"].address) == anna_before + REWARD
        assert system.chain.balance_of(system.accounts["bruno"].address) == bruno_before + REWARD

        # 4. The reports are now public: hypercube -> IPFS (figure 3.2).
        reports = app.display_reports(filed_anna.olc)
        titles = {report.title for report in reports}
        assert titles == {"Oily river", "Dumped waste"}

    def test_cross_chain_pipeline_parity(self):
        def run(family):
            system = build_system(family, seed=44, max_users=2)
            app = CrowdsensingApp(system=system)
            filed = app.file_report("anna", "walter", "Hole", "Deep pothole", ReportCategory.ROAD_DAMAGE)
            app.file_report("bruno", "wanda", "Hole2", "Another pothole", ReportCategory.ROAD_DAMAGE)
            system.fund_contract("vera", filed.olc, REWARD * 2)
            outcomes = app.review_location("vera", filed.olc)
            reports = app.display_reports(filed.olc)
            return (
                filed.submission.was_deploy,
                outcomes[system.provers["anna"].did_uint],
                sorted(report.title for report in reports),
            )

        assert run("evm") == run("avm")

    def test_verify_unknown_record_raises(self):
        system = build_system("evm", seed=55)
        app = CrowdsensingApp(system=system)
        filed = app.file_report("anna", "walter", "T", "D")
        with pytest.raises(PolSystemError):
            system.verify_and_reward("vera", filed.olc, 123456789)

    def test_display_empty_location(self, system):
        from repro.geo import encode

        assert system.display_reports(encode(10.0, 10.0)) == []


class TestFactory:
    def test_one_contract_per_location(self):
        system = build_system("evm", seed=66)
        app = CrowdsensingApp(system=system)
        app.file_report("anna", "walter", "A", "first report here")
        app.file_report("bruno", "wanda", "B", "second report nearby")
        # anna and bruno are within the same or adjacent 14 m cells; either
        # way the factory never deploys twice for one OLC.
        olcs = [olc for olc, _ in system.factory.all_instances()]
        assert len(olcs) == len(set(olcs))

    def test_code_registered_once(self):
        system = build_system("evm", seed=77)
        app = CrowdsensingApp(system=system)
        app.file_report("anna", "walter", "A", "d1")
        # Deploying again for a different location reuses the registered code.
        system.channel.register("bruno", LAT + 0.01, LNG + 0.01)
        system.provers["bruno"].latitude = LAT + 0.01
        system.provers["bruno"].longitude = LNG + 0.01
        system.channel.register("wanda", LAT + 0.01, LNG + 0.01 + NEAR)
        system.witnesses["wanda"].latitude = LAT + 0.01
        system.witnesses["wanda"].longitude = LNG + 0.01 + NEAR
        app.file_report("bruno", "wanda", "B", "d2")
        assert len(system.factory) == 2
        assert len(system.chain.code_registry) == 1  # the factory's gas saving


class TestAttacks:
    @pytest.mark.parametrize("family", ["evm", "avm"])
    def test_every_attack_defeated(self, family):
        system = build_system(family, seed=88)
        outcomes = run_all_attacks(
            system,
            prover_name="anna",
            witness_name="walter",
            far_witness_name="remota",
            verifier_name="vera",
        )
        assert len(outcomes) == 6
        for outcome in outcomes:
            assert not outcome.succeeded, f"{outcome.attack} succeeded: {outcome.detail}"


class TestWitnessNonces:
    """Replay-defence nonces: keyed, unique per witness, seed-exact."""

    @staticmethod
    def witness(seed: bytes):
        return Witness(
            name="w", keypair=KeyPair.from_seed(seed), did="did:repro:w", did_uint=1,
            latitude=LAT, longitude=LNG,
        )

    def test_same_key_draws_the_same_sequence(self):
        first, second = self.witness(b"walter"), self.witness(b"walter")
        assert [first.issue_nonce() for _ in range(50)] == [second.issue_nonce() for _ in range(50)]

    def test_nonces_never_repeat_for_one_witness(self):
        witness = self.witness(b"walter")
        nonces = [witness.issue_nonce() for _ in range(2000)]
        assert len(set(nonces)) == len(nonces)
        assert all(1 <= nonce <= 2**53 for nonce in nonces)

    def test_other_keys_draw_other_nonces(self):
        walter, remota = self.witness(b"walter"), self.witness(b"remota")
        assert {walter.issue_nonce() for _ in range(50)}.isdisjoint(
            remota.issue_nonce() for _ in range(50)
        )

    def test_an_issued_nonce_is_never_drawn_again(self):
        witness = self.witness(b"walter")
        expected = witness.issue_nonce()
        witness.nonce_counter = 0  # rewind: the draw must skip the live nonce
        assert witness.issue_nonce() != expected
