"""Unit and property tests for Schnorr signatures and ElGamal encryption."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.simulation import run_traced_journeys
from repro.crypto import group, keys
from repro.crypto.fastexp import g_pow
from repro.crypto.keys import KeyPair, PublicKey, Signature


@pytest.fixture(scope="module")
def keypair() -> KeyPair:
    return KeyPair.from_seed(b"test-keypair")


class TestKeyGeneration:
    def test_generate_produces_valid_group_element(self):
        kp = KeyPair.generate()
        assert group.is_group_element(kp.public.y)

    def test_from_seed_is_deterministic(self):
        a = KeyPair.from_seed(b"alice")
        b = KeyPair.from_seed(b"alice")
        assert a.x == b.x
        assert a.public.y == b.public.y

    def test_different_seeds_give_different_keys(self):
        assert KeyPair.from_seed(b"alice").x != KeyPair.from_seed(b"bob").x

    def test_private_key_in_subgroup_order_range(self, keypair):
        assert 0 < keypair.x < group.Q

    def test_invalid_public_key_rejected(self):
        with pytest.raises(ValueError):
            PublicKey(y=0)
        with pytest.raises(ValueError):
            PublicKey(y=group.P - 1)  # order-2 element, not in subgroup


class TestSignatures:
    def test_sign_verify_roundtrip(self, keypair):
        sig = keypair.sign(b"hello world")
        assert keypair.public.verify(b"hello world", sig)

    def test_wrong_message_fails(self, keypair):
        sig = keypair.sign(b"hello world")
        assert not keypair.public.verify(b"hello mars", sig)

    def test_wrong_key_fails(self, keypair):
        other = KeyPair.from_seed(b"other")
        sig = keypair.sign(b"msg")
        assert not other.public.verify(b"msg", sig)

    def test_tampered_signature_fails(self, keypair):
        sig = keypair.sign(b"msg")
        bad = Signature(e=sig.e, s=(sig.s + 1) % group.Q)
        assert not keypair.public.verify(b"msg", bad)

    def test_zero_scalars_rejected(self, keypair):
        assert not keypair.public.verify(b"msg", Signature(e=0, s=0))

    def test_signature_deterministic(self, keypair):
        assert keypair.sign(b"m") == keypair.sign(b"m")

    def test_signature_serialization_roundtrip(self, keypair):
        sig = keypair.sign(b"serialize me")
        assert Signature.from_bytes(sig.to_bytes()) == sig

    def test_signature_from_bytes_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Signature.from_bytes(b"\x00" * 63)

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=0, max_size=256))
    def test_property_any_message_roundtrips(self, message):
        kp = KeyPair.from_seed(b"prop")
        assert kp.public.verify(message, kp.sign(message))


class TestEncryption:
    def test_encrypt_decrypt_roundtrip(self, keypair):
        ct = keypair.public.encrypt(b"secret challenge")
        assert keypair.decrypt(ct) == b"secret challenge"

    def test_wrong_key_garbles(self, keypair):
        other = KeyPair.from_seed(b"imposter")
        ct = keypair.public.encrypt(b"secret challenge")
        assert other.decrypt(ct) != b"secret challenge"

    def test_empty_plaintext(self, keypair):
        assert keypair.decrypt(keypair.public.encrypt(b"")) == b""

    def test_long_plaintext_multiple_blocks(self, keypair):
        message = bytes(range(256)) * 5
        assert keypair.decrypt(keypair.public.encrypt(message)) == message

    def test_ciphertexts_are_randomized(self, keypair):
        c1 = keypair.public.encrypt(b"same message")
        c2 = keypair.public.encrypt(b"same message")
        assert c1 != c2

    def test_invalid_header_rejected(self, keypair):
        with pytest.raises(ValueError):
            keypair.decrypt((0, b"junk"))

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=0, max_size=200))
    def test_property_roundtrip(self, plaintext):
        kp = KeyPair.from_seed(b"enc-prop")
        assert kp.decrypt(kp.public.encrypt(plaintext)) == plaintext


class TestPublicKeySerialization:
    def test_roundtrip(self, keypair):
        data = keypair.public.to_bytes()
        assert PublicKey.from_bytes(data) == keypair.public

    def test_fingerprint_stable_and_short(self, keypair):
        fp = keypair.public.fingerprint()
        assert fp == keypair.public.fingerprint()
        assert len(fp) == 40


class TestMemosAreUsedUpByTheirRead:
    """A memo entry serves one verify or decrypt; a repeat does the algebra."""

    @pytest.fixture
    def comb_calls(self, monkeypatch):
        calls = []

        def counted(exponent):
            calls.append(exponent)
            return g_pow(exponent)

        monkeypatch.setattr(keys, "g_pow", counted)
        return calls

    def test_own_signature_verifies_twice(self, keypair, comb_calls):
        signature = keypair.sign(b"verify me twice")
        del comb_calls[:]
        assert keypair.public.verify(b"verify me twice", signature)
        assert comb_calls == []  # the memo's answer, used up
        assert keypair.public.verify(b"verify me twice", signature)
        assert len(comb_calls) == 1  # the algebra: one comb exponentiation

    def test_message_changed_by_one_byte_fails_twice(self, keypair):
        message = b"one byte apart"
        signature = keypair.sign(message)
        changed = message[:-1] + bytes([message[-1] ^ 1])
        assert not keypair.public.verify(changed, signature)
        assert not keypair.public.verify(changed, signature)
        assert keypair.public.verify(message, signature)

    def test_decrypting_twice_gives_the_same_plaintext(self, keypair):
        ciphertext = keypair.public.encrypt(b"decrypt me twice")
        assert (keypair.public.y, ciphertext[0]) in keys._shared_here
        assert keypair.decrypt(ciphertext) == b"decrypt me twice"
        assert (keypair.public.y, ciphertext[0]) not in keys._shared_here
        assert keypair.decrypt(ciphertext) == b"decrypt me twice"

    @pytest.mark.parametrize("batch_size", [None, 16], ids=["unbatched", "batch16"])
    @pytest.mark.parametrize("network", ["goerli", "algorand-testnet"])
    def test_a_facade_campaign_uses_up_both_memos(self, network, batch_size):
        keys._signed_here.clear()
        keys._shared_here.clear()
        run_traced_journeys(network, 64, seed=1, batch_size=batch_size)
        assert keys._signed_here == {}
        assert keys._shared_here == {}
