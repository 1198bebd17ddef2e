"""Decentralized Identifiers (thesis section 1.6).

- :mod:`repro.did.document` -- DID syntax (``did:repro:<id>``) and DID
  documents (figure 1.8).
- :mod:`repro.did.registry` -- the verifiable data registry: create
  and resolve documents.
- :mod:`repro.did.auth` -- the challenge-response authentication of
  figure 2.4: the witness encrypts a random value to the DID's public
  key; only the private-key holder can answer.
"""

from repro.did.document import DidDocument, DidError, make_did, parse_did
from repro.did.registry import DidRegistry
from repro.did.auth import AuthError, ChallengeResponseAuth

__all__ = [
    "DidDocument",
    "DidError",
    "make_did",
    "parse_did",
    "DidRegistry",
    "ChallengeResponseAuth",
    "AuthError",
]
