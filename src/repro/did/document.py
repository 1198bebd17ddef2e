"""DID syntax and DID documents.

A DID here uses the ``did:repro`` method; the method-specific id is
derived from the subject's public key, which makes the binding
self-certifying.  The document keeps what the challenge-response flow
reads from figure 1.8: the ``id`` and the public key of its
verification method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.keys import PublicKey

DID_METHOD = "repro"


class DidError(ValueError):
    """Malformed DID or document."""


def make_did(public: PublicKey) -> str:
    """Derive the DID of a public key: ``did:repro:<fingerprint>``."""
    return f"did:{DID_METHOD}:{public.fingerprint()}"


def parse_did(did: str) -> str:
    """Validate a DID and return its method-specific id."""
    parts = did.split(":")
    if len(parts) != 3 or parts[0] != "did" or parts[1] != DID_METHOD or not parts[2]:
        raise DidError(f"not a valid did:{DID_METHOD} identifier: {did!r}")
    return parts[2]


def uint_did(did: str) -> int:
    """Project a DID string onto the UInt key space the contract Map supports.

    "We are aware that the UInt format does not represent a correct
    DID.  However, we do this only for testing purposes" (section
    4.1.1) -- the projection is the leading 53 bits of the
    method-specific id, collision-checked at registration by the
    registry.
    """
    specific = parse_did(did)
    return int(specific[:13], 16)


@dataclass(slots=True)
class DidDocument:
    """The resolvable description of a DID subject (figure 1.8)."""

    id: str
    public_key: PublicKey
    #: the UInt projection of ``id`` (:func:`uint_did`), which also
    #: validates it: a document's DID is parsed once, when it is made
    uint: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.uint = uint_did(self.id)
