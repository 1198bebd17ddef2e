"""Verifiable Random Function via a Chaum-Pedersen DLEQ proof.

Algorand's Pure Proof-of-Stake selects each round's leader and committee
by *cryptographic sortition*: every account evaluates a VRF on the round
seed and learns **secretly** whether it was chosen, then reveals a proof
("credential") that anyone can check (thesis section 1.4.2.1).

Construction (Goldberg-style DH VRF on our Schnorr group):

- key pair ``(x, y = g**x)``
- base ``h_m = H ** hash_to_exponent(m)``, a hash-to-group element
- ``gamma = h_m ** x``  -- unique for a given ``(y, m)``
- a DLEQ proof that ``log_g(y) == log_{h_m}(gamma)``
- output ``beta = H(gamma)``

Uniqueness matters: a staker must not be able to grind different outputs
for the same round, which is why a plain signature would not do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import group
from repro.crypto.fastexp import g_pow, h_pow
from repro.crypto.hashing import tagged_hash
from repro.crypto.keys import KeyPair, PublicKey


class VRFError(Exception):
    """Raised when a VRF proof fails verification."""


@dataclass(frozen=True)
class VRFProof:
    """A VRF credential: ``gamma`` plus the DLEQ transcript ``(c, s)``."""

    gamma: int
    c: int
    s: int

    def output(self) -> bytes:
        """The 32-byte pseudorandom output ``beta = H(gamma)``."""
        return vrf_output(self.gamma)


@dataclass(frozen=True)
class VRFKeyPair:
    """A VRF-capable wrapper around a :class:`KeyPair`."""

    keypair: KeyPair

    @classmethod
    def generate(cls) -> "VRFKeyPair":
        """Generate a fresh VRF key pair."""
        return cls(keypair=KeyPair.generate())

    @classmethod
    def from_seed(cls, seed: bytes) -> "VRFKeyPair":
        """Derive deterministically from ``seed`` (reproducible tests)."""
        return cls(keypair=KeyPair.from_seed(seed))

    @property
    def public(self) -> PublicKey:
        """The public half, published as the account's participation key."""
        return self.keypair.public

    def evaluate(self, message: bytes, *, gamma: int | None = None) -> VRFProof:
        """Evaluate the VRF on ``message`` and produce a credential.

        ``gamma`` may carry this key's already computed
        :meth:`gamma_for` ``(message)`` -- sortition draws it to learn
        its seats and proves only the draws that are read later.  The
        nonce is derived deterministically, so the proof is the same
        with or without it.  Every exponentiation goes through a comb:
        ``H`` on multiples of ``hash_to_exponent(message)``, ``G`` for
        the nonce commitment.
        """
        x = self.keypair.x
        e = group.hash_to_exponent(message)
        if gamma is None:
            gamma = h_pow(e * x)  # == pow(h_pow(e), x, group.P)
        # Chaum-Pedersen: prove log_G(y) == log_base(gamma) without revealing x,
        # where base = h_pow(e).
        k = int.from_bytes(tagged_hash("repro/vrf-nonce", x.to_bytes(32, "big"), message), "big") % group.Q
        if k == 0:
            k = 1
        a1 = g_pow(k)  # fixed-base comb; == pow(group.G, k, group.P)
        a2 = h_pow(e * k)  # == pow(base, k, group.P)
        c = _dleq_challenge(self.public.y, h_pow(e), gamma, a1, a2, message)
        s = (k + c * x) % group.Q
        return VRFProof(gamma=gamma, c=c, s=s)

    def gamma_for(self, message: bytes) -> int:
        """``gamma = (H ** hash_to_exponent(message)) ** x``: one ``H``-comb exponentiation."""
        return h_pow(group.hash_to_exponent(message) * self.keypair.x)


def vrf_output(gamma: int) -> bytes:
    """The 32-byte pseudorandom output ``beta = H(gamma)``."""
    return tagged_hash("repro/vrf-output", gamma.to_bytes(128, "big"))


def verify_vrf(public: PublicKey, message: bytes, proof: VRFProof) -> bytes:
    """Check ``proof`` against ``(public, message)`` and return the output.

    Raises :class:`VRFError` if the credential is invalid.
    """
    if not group.is_group_element(proof.gamma):
        raise VRFError("gamma is not a group element")
    if not (0 <= proof.c < group.Q and 0 <= proof.s < group.Q):
        raise VRFError("proof scalars out of range")
    e = group.hash_to_exponent(message)
    base = h_pow(e)
    neg_c = group.Q - (proof.c % group.Q)
    a1 = (g_pow(proof.s) * pow(public.y, neg_c, group.P)) % group.P
    # base ** s == H ** (e * s): the fixed-base half rides the H comb
    a2 = (h_pow(e * proof.s) * pow(proof.gamma, neg_c, group.P)) % group.P
    c = _dleq_challenge(public.y, base, proof.gamma, a1, a2, message)
    if c != proof.c:
        raise VRFError("DLEQ transcript mismatch")
    return proof.output()


def _dleq_challenge(y: int, base: int, gamma: int, a1: int, a2: int, message: bytes) -> int:
    """Fiat-Shamir challenge binding the whole DLEQ transcript."""
    digest = tagged_hash(
        "repro/vrf-dleq",
        y.to_bytes(128, "big"),
        base.to_bytes(128, "big"),
        gamma.to_bytes(128, "big"),
        a1.to_bytes(128, "big"),
        a2.to_bytes(128, "big"),
        message,
    )
    return int.from_bytes(digest, "big") % group.Q
