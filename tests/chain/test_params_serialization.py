"""Tests for network profiles and transaction/code serialization."""

import pytest

from repro.chain.base import Transaction
from repro.chain.ethereum.evm import EvmCode, Instr, serialize_code
from repro.chain.params import PROFILES, NetworkProfile


class TestProfiles:
    def test_all_expected_profiles_present(self):
        assert {"ropsten", "goerli", "polygon-mumbai", "algorand-testnet", "eth-devnet", "algo-devnet"} <= set(
            PROFILES
        )

    def test_families(self):
        assert PROFILES["goerli"].family == "evm"
        assert PROFILES["algorand-testnet"].family == "avm"

    def test_base_unit(self):
        assert PROFILES["goerli"].base_unit == 10**18
        assert PROFILES["algorand-testnet"].base_unit == 10**6

    def test_token_and_eur_conversion(self):
        goerli = PROFILES["goerli"]
        assert goerli.to_tokens(5 * 10**17) == 0.5
        assert goerli.to_eur(10**18) == pytest.approx(1156.0)
        algorand = PROFILES["algorand-testnet"]
        assert algorand.to_eur(10**6) == pytest.approx(0.26)

    def test_thesis_measurement_day_rates(self):
        # Nov 17th 2022: 1 ETH = EUR 1156, 1 ALGO = EUR 0.26, 1 MATIC = EUR 0.85.
        assert PROFILES["goerli"].eur_per_token == 1156.0
        assert PROFILES["algorand-testnet"].eur_per_token == 0.26
        assert PROFILES["polygon-mumbai"].eur_per_token == 0.85

    def test_algorand_min_fee(self):
        assert PROFILES["algorand-testnet"].min_fee == 1_000  # 0.001 ALGO

    def test_devnets_deterministic(self):
        for name in ("eth-devnet", "algo-devnet"):
            profile = PROFILES[name]
            assert profile.overhead_sigma == 0.0
            assert profile.congestion_volatility == 0.0


class TestTransactionSerialization:
    def test_signing_payload_stable(self):
        tx = Transaction(sender="0xa", nonce=1, kind="transfer", to="0xb", value=5)
        assert tx.signing_payload() == tx.signing_payload()

    def test_payload_reflects_every_field(self):
        base = Transaction(sender="0xa", nonce=1, kind="transfer", to="0xb", value=5)
        variants = [
            Transaction(sender="0xc", nonce=1, kind="transfer", to="0xb", value=5),
            Transaction(sender="0xa", nonce=2, kind="transfer", to="0xb", value=5),
            Transaction(sender="0xa", nonce=1, kind="call", to="0xb", value=5),
            Transaction(sender="0xa", nonce=1, kind="transfer", to="0xb", value=6),
        ]
        payloads = {tx.signing_payload() for tx in [base] + variants}
        assert len(payloads) == 5

    def test_bytes_in_data_serializable(self):
        tx = Transaction(sender="0xa", nonce=1, kind="call", to="0xb", value=0, data={"blob": b"\x00\x01"})
        assert b"__bytes__" in tx.signing_payload()

    def test_unserializable_data_rejected(self):
        tx = Transaction(sender="0xa", nonce=1, kind="call", to="0xb", value=0, data={"f": object()})
        with pytest.raises(TypeError):
            tx.signing_payload()


class TestCodeSerialization:
    def test_instr_byte_size(self):
        assert Instr("STOP").byte_size() == 1
        assert Instr("PUSH", 1).byte_size() == 2
        assert Instr("PUSH", 2**16).byte_size() == 1 + 3
        assert Instr("PUSH", b"abcd").byte_size() == 2 + 4
        assert Instr("PUSH", "hello").byte_size() == 2 + 5

    def test_code_byte_size_sums_instrs(self):
        code = EvmCode(instrs=[Instr("PUSH", 1), Instr("STOP")], methods={})
        assert code.byte_size() == 3

    def test_serialize_code_deterministic(self):
        code = EvmCode(instrs=[Instr("PUSH", b"\x01"), Instr("LOG", ("E", 1)), Instr("STOP")], methods={})
        assert serialize_code(code) == serialize_code(code)
        assert b"PUSH" in serialize_code(code)
