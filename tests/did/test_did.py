"""Tests for DIDs, the registry, and challenge-response authentication."""

import pytest

from repro.crypto.keys import KeyPair
from repro.did import ChallengeResponseAuth, DidError, DidRegistry, make_did, parse_did
from repro.did.auth import AuthError
from repro.did.registry import DidResolutionError


@pytest.fixture
def registry():
    return DidRegistry()


@pytest.fixture
def alice():
    return KeyPair.from_seed(b"did-alice")


class TestDidSyntax:
    def test_make_did_shape(self, alice):
        did = make_did(alice.public)
        assert did.startswith("did:repro:")
        assert parse_did(did) == alice.public.fingerprint()

    def test_parse_rejects_other_methods(self):
        with pytest.raises(DidError):
            parse_did("did:btcr:xyz")
        with pytest.raises(DidError):
            parse_did("not-a-did")
        with pytest.raises(DidError):
            parse_did("did:repro:")


class TestRegistry:
    def test_create_and_resolve(self, registry, alice):
        document = registry.create(alice)
        assert registry.resolve(document.id) is document

    def test_double_registration_rejected(self, registry, alice):
        registry.create(alice)
        with pytest.raises(DidError):
            registry.create(alice)

    def test_unknown_did_does_not_resolve(self, registry):
        with pytest.raises(DidResolutionError):
            registry.resolve("did:repro:deadbeef")


class TestChallengeResponse:
    def test_owner_passes(self, registry, alice):
        document = registry.create(alice)
        auth = ChallengeResponseAuth(registry=registry)
        challenge = auth.issue_challenge(document.id)
        response = ChallengeResponseAuth.respond(challenge.ciphertext, alice)
        assert auth.check_response(challenge.challenge_id, response)

    def test_imposter_fails(self, registry, alice):
        document = registry.create(alice)
        auth = ChallengeResponseAuth(registry=registry)
        challenge = auth.issue_challenge(document.id)
        imposter = KeyPair.from_seed(b"imposter")
        response = ChallengeResponseAuth.respond(challenge.ciphertext, imposter)
        assert not auth.check_response(challenge.challenge_id, response)

    def test_challenge_is_single_use(self, registry, alice):
        document = registry.create(alice)
        auth = ChallengeResponseAuth(registry=registry)
        challenge = auth.issue_challenge(document.id)
        response = ChallengeResponseAuth.respond(challenge.ciphertext, alice)
        assert auth.check_response(challenge.challenge_id, response)
        with pytest.raises(AuthError):
            auth.check_response(challenge.challenge_id, response)

    def test_challenge_expires(self, registry, alice):
        document = registry.create(alice)
        auth = ChallengeResponseAuth(registry=registry, ttl=10.0)
        challenge = auth.issue_challenge(document.id, now=0.0)
        response = ChallengeResponseAuth.respond(challenge.ciphertext, alice)
        with pytest.raises(AuthError):
            auth.check_response(challenge.challenge_id, response, now=100.0)

