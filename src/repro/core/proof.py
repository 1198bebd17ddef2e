"""Location proofs: build and verify (thesis section 2.3).

The proof binds together everything the verifier must be able to
attest (section 2.3.1.1): the prover's DID (identity), the OLC
location (so a Bologna proof cannot be filed under a Milan contract),
the witness-issued nonce (replay protection) and the report CID (so
the report content cannot be swapped afterwards):

    proof      = H(DID || OLC || nonce || CID)
    SignedProof = PrivateKey_wit(proof)            (eq. 2.1)

and the verifier checks both the hash recomputation and

    proof == PublicKey_wit(SignedProof)            (eq. 2.2)

against the Certification Authority's witness key list.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from enum import Enum

from repro.crypto.hashing import tagged_hash
from repro.crypto.keys import KeyPair, PublicKey, Signature


@dataclass(frozen=True, slots=True)
class ProofRequest:
    """What the prover broadcasts to a nearby witness (figure 2.5)."""

    did: int
    olc: str
    nonce: int
    cid: str
    timestamp: float = 0.0

    def digest(self) -> bytes:
        """``H(DID || location || nonce || CID)``."""
        return proof_digest(self.did, self.olc, self.nonce, self.cid)


def proof_digest(did: int, olc: str, nonce: int, cid: str) -> bytes:
    """``H(DID || location || nonce || CID)``, the hash a witness signs."""
    return tagged_hash(
        "repro/location-proof",
        did.to_bytes(8, "big"),
        olc.upper().encode(),
        nonce.to_bytes(8, "big"),
        cid.encode(),
    )


@dataclass(frozen=True, slots=True)
class LocationProof:
    """The signed certificate the witness returns."""

    hashed_proof: bytes
    signature: Signature
    witness_public: PublicKey
    timestamp: float = 0.0

    @property
    def hashed_proof_hex(self) -> str:
        """Hex form stored inside the smart contract record."""
        return self.hashed_proof.hex()

    @property
    def signature_hex(self) -> str:
        """Hex form of the signature for the contract record."""
        return self.signature.to_bytes().hex()


class ProofFailure(Enum):
    """Why a proof was rejected."""

    OK = "ok"
    UNKNOWN_WITNESS = "witness key is not in the Certification Authority list"
    BAD_SIGNATURE = "signature does not verify against the witness key"
    HASH_MISMATCH = "hash does not match H(DID || location || nonce || CID)"
    SELF_SIGNED = "prover key used as witness key"
    REPLAY = "nonce already seen by this verifier"


def build_proof(request: ProofRequest, witness_keypair: KeyPair, timestamp: float = 0.0) -> LocationProof:
    """Witness side: hash the request and sign it (eq. 2.1)."""
    digest = request.digest()
    return LocationProof(
        hashed_proof=digest,
        signature=witness_keypair.sign(digest),
        witness_public=witness_keypair.public,
        timestamp=timestamp,
    )


def _find_signer(
    hashed: bytes,
    signature: Signature,
    witness_keys: Collection[PublicKey],
    preferred: Collection[PublicKey] | None,
) -> PublicKey | None:
    """The witness-list scan of section 2.3.1.2, hint-accelerated.

    Identifying the signer means trying CA keys until one verifies --
    inherently O(|witness list|) signature checks, which turns the
    verifier into an O(users x witnesses) hotspot at scale.  ``preferred``
    keys (e.g. the witnesses known to operate in the record's OLC cell)
    are tried first; a preferred key only counts as the signer if it is
    also in ``witness_keys``, and a miss falls back to the full scan, so
    the accepted/rejected outcome is identical to the unhinted scan.
    """
    if preferred:
        signer = next((key for key in preferred if key.verify(hashed, signature)), None)
        if signer is not None and signer in witness_keys:
            return signer
    return next((key for key in witness_keys if key.verify(hashed, signature)), None)


def verify_record(
    hashed_proof_hex: str,
    signature_hex: str,
    did: int,
    olc: str,
    nonce: int,
    cid: str,
    witness_keys: Collection[PublicKey],
    prover_public: PublicKey | None = None,
    preferred: Collection[PublicKey] | None = None,
) -> ProofFailure:
    """Verify a proof as stored in the smart contract record.

    The record carries only the hash and the signature (figure 2.7);
    the verifier identifies the signing witness by trying the keys in
    the Certification Authority's list (section 2.3.1.2).  ``preferred``
    keys are tried first (same outcome, see :func:`_find_signer`).
    """
    try:
        hashed = bytes.fromhex(hashed_proof_hex)
        signature = Signature.from_bytes(bytes.fromhex(signature_hex))
    except (ValueError, TypeError):
        return ProofFailure.BAD_SIGNATURE
    signer = _find_signer(hashed, signature, witness_keys, preferred)
    if signer is None:
        if prover_public is not None and prover_public.verify(hashed, signature):
            return ProofFailure.SELF_SIGNED
        return ProofFailure.UNKNOWN_WITNESS
    if prover_public is not None and signer == prover_public:
        return ProofFailure.SELF_SIGNED
    expected = proof_digest(did, olc, nonce, cid)
    if expected != hashed:
        return ProofFailure.HASH_MISMATCH
    return ProofFailure.OK


def verify_proof(
    proof: LocationProof,
    did: int,
    olc: str,
    nonce: int,
    cid: str,
    witness_keys: Collection[PublicKey],
    prover_public: PublicKey | None = None,
) -> ProofFailure:
    """Verifier side: the two-step check of section 2.3.1.2.

    1. the signature must verify under a key in the CA's witness list
       (and not under the prover's own key);
    2. the stored hash must equal the recomputed
       ``H(DID || location || nonce || CID)``.
    """
    if prover_public is not None and proof.witness_public == prover_public:
        return ProofFailure.SELF_SIGNED
    if proof.witness_public not in witness_keys:
        return ProofFailure.UNKNOWN_WITNESS
    if not proof.witness_public.verify(proof.hashed_proof, proof.signature):
        return ProofFailure.BAD_SIGNATURE
    expected = proof_digest(did, olc, nonce, cid)
    if expected != proof.hashed_proof:
        return ProofFailure.HASH_MISMATCH
    return ProofFailure.OK
