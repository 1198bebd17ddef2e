"""The verifiable data registry for DID documents.

"Through the DID resolution it is possible to reach the DID document,
stored in a verifiable data registry such as a blockchain" (section
1.6).  A run registers and resolves documents; nothing updates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.keys import KeyPair
from repro.did.document import DidDocument, DidError, make_did, parse_did


class DidResolutionError(DidError):
    """The DID does not resolve to a registered document."""


@dataclass
class DidRegistry:
    """Create and resolve DID documents."""

    documents: dict[str, DidDocument] = field(default_factory=dict)
    #: documents handed out by :meth:`resolve`
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
        taken = self._uint_index.get(document.uint)
        if taken is not None:
            raise DidError(
                f"the UInt projection of {did} is taken by {taken}; re-register with a new wallet"
            )
        self.documents[did] = document
        self._uint_index[document.uint] = did
        return document

    def did_for_uint(self, short_did: int) -> str | None:
        """The DID behind a UInt projection, or None if unknown."""
        return self._uint_index.get(short_did)

    def resolve(self, did: str) -> DidDocument:
        """DID resolution: DID -> document (figure 2.4, step 1).

        A registered DID was parsed when its document was made, so only
        a miss is checked: a malformed DID raises :class:`DidError`, a
        well-formed unknown one :class:`DidResolutionError`.
        """
        document = self.documents.get(did)
        if document is None:
            parse_did(did)
            raise DidResolutionError(f"{did} does not resolve")
        self.resolutions += 1
        return document
