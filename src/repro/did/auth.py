"""DID challenge-response authentication (thesis figure 2.4).

Flow: the witness resolves the prover's DID document, encrypts a random
value to the document's public key, and sends the challenge; the DID
owner decrypts it with the private key and returns the plaintext.  A
correct response proves control of the DID.  Challenges are one-shot
and expire, which blocks replays of old responses.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field

from repro.crypto.keys import KeyPair
from repro.did.registry import DidRegistry


class AuthError(Exception):
    """Challenge issuance or verification failure."""


@dataclass(frozen=True, slots=True)
class Challenge:
    """An outstanding challenge (witness side)."""

    challenge_id: str
    did: str
    ciphertext: tuple[int, bytes]
    secret: bytes
    issued_at: float


@dataclass
class ChallengeResponseAuth:
    """The witness-side authentication engine."""

    registry: DidRegistry
    ttl: float = 120.0
    _outstanding: dict[str, Challenge] = field(default_factory=dict)

    def issue_challenge(self, did: str, now: float = 0.0) -> Challenge:
        """Resolve the DID and encrypt a fresh random value to its key."""
        document = self.registry.resolve(did)
        secret = secrets.token_bytes(32)
        ciphertext = document.public_key.encrypt(secret)
        challenge = Challenge(
            challenge_id=secrets.token_hex(16),
            did=did,
            ciphertext=ciphertext,
            secret=secret,
            issued_at=now,
        )
        self._outstanding[challenge.challenge_id] = challenge
        return challenge

    @staticmethod
    def respond(challenge_ciphertext: tuple[int, bytes], keypair: KeyPair) -> bytes:
        """Prover side: decrypt the challenge with the DID's private key."""
        return keypair.decrypt(challenge_ciphertext)

    def check_response(self, challenge_id: str, response: bytes, now: float = 0.0) -> bool:
        """Verify a response; challenges are single-use and expire."""
        challenge = self._outstanding.pop(challenge_id, None)
        if challenge is None:
            raise AuthError("unknown or already-used challenge")
        if now - challenge.issued_at > self.ttl:
            raise AuthError("challenge expired")
        return secrets.compare_digest(challenge.secret, response)
