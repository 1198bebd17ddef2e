"""Tests for the DLEQ-based VRF used by Algorand-style sortition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import group
from repro.crypto.vrf import VRFError, VRFKeyPair, VRFProof, verify_vrf, vrf_output

# (key seed, message, gamma, c, s, output) computed with builtin ``pow``
# before the VRF moved onto the H comb: proofs must stay byte-identical.
GOLDEN = [
    (
        b"golden-a",
        b"",
        int(
            "5bd9e1841f8501e769cc9fed37b5cb6f9c0e30e2a060ce9d239ccbcefed9dc4e"
            "164890ab70e5a455425d353a2855095b47d2e23f2028959250e755fa05874200"
            "8c3917a7ec98af5ce1b9c51adce1c94970a56414f7751ac9d3380a7b5a361201"
            "076b614cb647e5c7d07b4334aa589aa0d64d3286e8238e1986991cbd14ad7ca7",
            16,
        ),
        0x659ca8b0415e58b8d0c9ed1190f70fbca610562c,
        0x39781be74604d932af8c142cc174419f64f7a323,
        "f9a38cb0a61dd45da0c3520698a167378ff1ed92c53393915678dc3f0ec0aa33",
    ),
    (
        b"golden-a",
        b"round-1",
        int(
            "11c699e449402b35940a23ae8b7c875963db7a95f1e21f601d3545dc4bbacd4c"
            "daa6bd5e54820f3a96b029a89a18071189f02bf1f27d5e786e5f6ba69352fdae"
            "2777b257fef9bc6500faf25ed73463178695e184e6c834f9beaa67ba6a869095"
            "f5cdd4d079de6c1bb8a2c11c290d6966a393317923c5592feefd43c0a81367ea",
            16,
        ),
        0x71ad775df85268d514b637fc5471190c87f7eeda,
        0x5ae83edd7bbba92d93d464690531d5a231572487,
        "7ba8867d3d7d9f30de85f1d1a8a70db89633ebcc0e1134125a86d74fb457d1a0",
    ),
    (
        b"golden-a",
        b"\x00" * 32,
        int(
            "4f787be6f18e47c37d2ab62a716ab2cdcbaeb944a7d027109740befc383b154b"
            "ec15b029793f53b3830762604e42b3d0c12c4218faa91c427bb995d3723e0f58"
            "2cda1ba0708a76a0a1db379382691c472b34edb040978f1480dec05a0d51fba7"
            "e80185093af756a01cdf1f3b1ce71a3b7f878476dc94d46bd83c32109d9a15f4",
            16,
        ),
        0x4a8cbde8127ade3adf67ef50bb99bb92559d473e,
        0x09f12d7876351c640edf480a8635e12eef76e490,
        "81f8bfebf1754d51dd18522a9cf24e1a69fdf7eea920a864a0a20e05c84a63a1",
    ),
    (
        b"golden-b",
        b"",
        int(
            "afb8d40b67a15881d495f7305112b86c1f7f15c164adacbf0367966361ab10fb"
            "46239a41f5594e08bdfc84e10a8a82564c6a22cfe7482273a07414456aca2513"
            "7990ec4ef5fcf4b46834be7e20df6e0550c8ebac741272b6cf45e527ce49538a"
            "42c97f2e592b598f1f5c6507bad5729164079750d3ff66fd3b792beca1effbdf",
            16,
        ),
        0x78ea277a578680d67ec6dd2c703673be84f19e85,
        0x2359a39938f94798b055ddcfed5b3919278120fe,
        "1c056cb202737adc9e38c4ac9726777c053f8a100e63782f5c4dac8e67f1b1c4",
    ),
    (
        b"golden-b",
        b"round-1",
        int(
            "5a31f6976e322095195a592a0633e61c6b1b40ab0fcf4a003e6f97222aca5527"
            "a6793febb88c7b58cb5347c1b8f86e4eb7f335ec37fc53fcc08c17ef2f6c989c"
            "599857ec38c4d07062e45e69e87a5df94edff5bd0f2b923ebac49bf43be292af"
            "a6fc94f140236f8dac312a23ef7d2a9db02d9e0fd603bc325aa5ae047a5bf3ef",
            16,
        ),
        0xe1b7681fd1615fcf18fd13bab8dd079d57bad334,
        0x9330c4c5769998067eb2ba4d8bd9de5702c501d3,
        "5efd24b0395e92d1adec53cdf4c08d6775a1089b450111b36b0ac536388ab6d2",
    ),
    (
        b"golden-b",
        b"\x00" * 32,
        int(
            "9191dbbc86f4bfb0c828db28fb7d2e3a7d60bbfeb4e257013aeb983ad26a682a"
            "c3830524e3dcda8d1e0388e88e0c61e82e9a18b1c21e151005a5e01cefbcaffb"
            "17e9b0d58106a9ade9d91c38ef40a1f198200add0fc7cb451c4994b6eb5f6850"
            "f68ad1c8d2236adfb22371cb3e2a074eee1bb0ad17f7863d74286876153ce3d8",
            16,
        ),
        0x2a4ee93a0fce2c2ee4fe8b50b33613f5e2de28e1,
        0xb16ff4db94931324cf9bf7c3b1fb47ab03d91ba6,
        "97c8af986636fef443dc2987cdfd04030afbedc3ed1885ab6846dce22d8511d9",
    ),
]


@pytest.fixture(scope="module")
def vrf() -> VRFKeyPair:
    return VRFKeyPair.from_seed(b"vrf-test")


class TestVRF:
    def test_evaluate_verify_roundtrip(self, vrf):
        proof = vrf.evaluate(b"round-1-seed")
        assert verify_vrf(vrf.public, b"round-1-seed", proof) == proof.output()

    def test_output_is_32_bytes(self, vrf):
        assert len(vrf.evaluate(b"seed").output()) == 32

    def test_deterministic_and_unique(self, vrf):
        p1 = vrf.evaluate(b"seed")
        p2 = vrf.evaluate(b"seed")
        assert p1.output() == p2.output()
        assert p1.gamma == p2.gamma

    def test_different_messages_different_outputs(self, vrf):
        assert vrf.evaluate(b"round-1").output() != vrf.evaluate(b"round-2").output()

    def test_different_keys_different_outputs(self):
        a = VRFKeyPair.from_seed(b"staker-a")
        b = VRFKeyPair.from_seed(b"staker-b")
        assert a.evaluate(b"seed").output() != b.evaluate(b"seed").output()

    def test_wrong_message_rejected(self, vrf):
        proof = vrf.evaluate(b"round-1")
        with pytest.raises(VRFError):
            verify_vrf(vrf.public, b"round-2", proof)

    def test_wrong_key_rejected(self, vrf):
        imposter = VRFKeyPair.from_seed(b"imposter")
        proof = vrf.evaluate(b"round-1")
        with pytest.raises(VRFError):
            verify_vrf(imposter.public, b"round-1", proof)

    def test_tampered_gamma_rejected(self, vrf):
        proof = vrf.evaluate(b"round-1")
        tampered = VRFProof(gamma=1, c=proof.c, s=proof.s)
        with pytest.raises(VRFError):
            verify_vrf(vrf.public, b"round-1", tampered)

    def test_out_of_range_scalars_rejected(self, vrf):
        proof = vrf.evaluate(b"round-1")
        with pytest.raises(VRFError):
            verify_vrf(vrf.public, b"round-1", VRFProof(gamma=proof.gamma, c=-1, s=proof.s))

    def test_tampered_in_range_s_rejected(self, vrf):
        proof = vrf.evaluate(b"round-1")
        tampered = VRFProof(gamma=proof.gamma, c=proof.c, s=(proof.s + 1) % group.Q)
        with pytest.raises(VRFError):
            verify_vrf(vrf.public, b"round-1", tampered)

    def test_gamma_from_another_keys_proof_rejected(self, vrf):
        # a valid group element, and a valid gamma for the message -- but
        # under another key, so the DLEQ transcript no longer binds
        proof = vrf.evaluate(b"round-1")
        other = VRFKeyPair.from_seed(b"other-staker").evaluate(b"round-1")
        spliced = VRFProof(gamma=other.gamma, c=proof.c, s=proof.s)
        with pytest.raises(VRFError):
            verify_vrf(vrf.public, b"round-1", spliced)

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=1, max_size=64))
    def test_property_roundtrip(self, message):
        kp = VRFKeyPair.from_seed(b"vrf-prop")
        proof = kp.evaluate(message)
        assert verify_vrf(kp.public, message, proof) == proof.output()


class TestGoldenVectors:
    @pytest.mark.parametrize("seed,message,gamma,c,s,output", GOLDEN)
    def test_evaluate_matches_pinned_proof(self, seed, message, gamma, c, s, output):
        proof = VRFKeyPair.from_seed(seed).evaluate(message)
        assert (proof.gamma, proof.c, proof.s) == (gamma, c, s)
        assert proof.output().hex() == output

    @pytest.mark.parametrize("seed,message,gamma,c,s,output", GOLDEN)
    def test_output_for_matches_evaluate(self, seed, message, gamma, c, s, output):
        kp = VRFKeyPair.from_seed(seed)
        # The lazy sortition path: the output from gamma alone.
        assert vrf_output(kp.gamma_for(message)) == kp.evaluate(message).output()
        assert vrf_output(kp.gamma_for(message)).hex() == output

    @pytest.mark.parametrize("seed,message,gamma,c,s,output", GOLDEN)
    def test_pinned_proof_verifies(self, seed, message, gamma, c, s, output):
        kp = VRFKeyPair.from_seed(seed)
        proof = VRFProof(gamma=gamma, c=c, s=s)
        assert verify_vrf(kp.public, message, proof).hex() == output

    def test_supplied_gamma_does_not_change_the_proof(self):
        seed, message, gamma, c, s, _ = GOLDEN[1]
        kp = VRFKeyPair.from_seed(seed)
        assert kp.gamma_for(message) == gamma
        proof = kp.evaluate(message, gamma=kp.gamma_for(message))
        assert (proof.gamma, proof.c, proof.s) == (gamma, c, s)
