"""Cryptographic substrate for the Proof-of-Location reproduction.

Pure-Python primitives used everywhere else in the library:

- :mod:`repro.crypto.hashing` -- SHA-256 helpers and domain-tagged hashes.
- :mod:`repro.crypto.group` -- a fixed prime-order Schnorr group.
- :mod:`repro.crypto.keys` -- key pairs with Schnorr signatures and
  hashed-ElGamal encryption (used for DID challenge-response auth).
- :mod:`repro.crypto.vrf` -- a DLEQ-based verifiable random function
  (used by the Algorand-style sortition).
- :mod:`repro.crypto.merkle` -- Merkle trees for block transaction roots.

These primitives are real (not stubs): signatures verify, encryption
round-trips, VRF proofs check, Merkle proofs validate.  They are *not*
intended for production security -- the group parameters favour test
speed over long-term hardness.
"""

from repro.crypto.hashing import sha256, sha256_hex, tagged_hash, hash_to_int
from repro.crypto.keys import KeyPair, PublicKey, Signature
from repro.crypto.merkle import MerkleTree, MerkleProof
from repro.crypto.vrf import VRFKeyPair, VRFProof, VRFError

__all__ = [
    "sha256",
    "sha256_hex",
    "tagged_hash",
    "hash_to_int",
    "KeyPair",
    "PublicKey",
    "Signature",
    "MerkleTree",
    "MerkleProof",
    "VRFKeyPair",
    "VRFProof",
    "VRFError",
]
