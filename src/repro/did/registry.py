"""The verifiable data registry for DID documents.

"Through the DID resolution it is possible to reach the DID document,
stored in a verifiable data registry such as a blockchain" (section
1.6).  A run registers and resolves documents; nothing updates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.keys import KeyPair
from repro.did.document import DidDocument, DidError, make_did, parse_did, uint_did


class DidResolutionError(DidError):
    """The DID does not resolve to a registered document."""


@dataclass
class DidRegistry:
    """Create and resolve DID documents."""

    documents: dict[str, DidDocument] = field(default_factory=dict)
    resolutions: int = 0
    #: UInt-DID projection -> DID string, so the witness authentication
    #: path resolves a contract-level UInt DID in O(1).
    _uint_index: dict[int, str] = field(default_factory=dict)

    def create(self, keypair: KeyPair) -> DidDocument:
        """Register a new DID derived from ``keypair``'s public key."""
        did = make_did(keypair.public)
        if did in self.documents:
            raise DidError(f"{did} is already registered")
        document = DidDocument(id=did, public_key=keypair.public)
        self.documents[did] = document
        self._uint_index[uint_did(did)] = did
        return document

    def did_for_uint(self, short_did: int) -> str | None:
        """The DID behind a UInt projection, or None if unknown."""
        return self._uint_index.get(short_did)

    def resolve(self, did: str) -> DidDocument:
        """DID resolution: DID -> document (figure 2.4, step 1)."""
        parse_did(did)
        self.resolutions += 1
        document = self.documents.get(did)
        if document is None:
            raise DidResolutionError(f"{did} does not resolve")
        return document
