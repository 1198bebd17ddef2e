"""Key pairs with Schnorr signatures and hashed-ElGamal encryption.

One key pair serves every identity in the system: blockchain accounts,
witnesses (who *sign* location proofs, thesis eq. 2.1/2.2), and DID
subjects (who *decrypt* authentication challenges, thesis fig. 2.4).

Signatures are classic Schnorr over the RFC 5114 group; encryption is
hashed ElGamal (KEM + XOR stream), so the same public key supports both
operations -- exactly the dual use the thesis's DID auth flow assumes.
"""

from __future__ import annotations

import hmac
import secrets
from dataclasses import dataclass

from repro.crypto import group
from repro.crypto.fastexp import g_pow
from repro.crypto.hashing import sha256, tagged_hash
from repro.obs.prof import staged


class SignatureError(Exception):
    """Raised when a signature fails verification."""


# -- in-process fast paths -----------------------------------------------------
#
# The simulation signs, encrypts, verifies and decrypts inside ONE
# process, so most checks re-derive something this process just
# computed.  Both memos below only short-circuit work whose outcome is
# forced by construction -- a signature produced by ``sign`` is valid,
# a KEM header produced by ``encrypt`` decrypts to the encryptor's
# shared secret -- so every result is bit-identical to the full
# algebraic path, which unknown (possibly forged) inputs still take.
# Bounded: at the cap the memo is cleared, costing a few re-derivations.

_SIGNED_CAP = 1 << 18
#: signatures this process produced: (y, message, e, s).  Keyed on the
#: message bytes themselves -- set hashing (siphash) is far cheaper than
#: the SHA-256 digest this used to key on, and the caller already holds
#: the message alive (it is the transaction's cached signing payload).
_signed_here: set[tuple[int, bytes, int, int]] = set()

_SHARED_CAP = 1 << 16
#: DH shared secrets this process derived while encrypting: (y, c1) -> y**k
_shared_here: dict[tuple[int, int], int] = {}

_DLOG_CAP = 1 << 20
#: discrete logs of keys this process generated: y -> x with y == g**x.
#: Knowing x turns every variable-base ``pow(y, e, P)`` into one
#: fixed-base comb pow ``g**(x*e mod q)`` -- same value, ~10x cheaper.
#: Keys parsed from wire bytes are absent and take the generic path.
_dlog_here: dict[int, int] = {}


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature ``(e, s)``."""

    e: int
    s: int

    def to_bytes(self) -> bytes:
        """Serialize as fixed-width big-endian ``e || s``."""
        return self.e.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        """Parse a signature produced by :meth:`to_bytes`."""
        if len(data) != 64:
            raise ValueError("signature must be 64 bytes")
        return cls(e=int.from_bytes(data[:32], "big"), s=int.from_bytes(data[32:], "big"))


@dataclass(frozen=True)
class PublicKey:
    """A subgroup element ``y = g**x`` plus verify/encrypt operations."""

    y: int

    def __post_init__(self) -> None:
        if not group.is_group_element(self.y):
            raise ValueError("public key is not a valid group element")

    @classmethod
    def _trusted(cls, y: int) -> "PublicKey":
        """Construct without the subgroup-membership check.

        Only for values *this process derived* as ``g ** x`` (key
        generation): membership holds by construction and the check is
        a full 160-bit exponentiation -- the single most expensive step
        of onboarding a user at scale.  Untrusted inputs (wire bytes,
        ciphertext headers) must keep going through ``PublicKey(y=...)``.
        """
        key = cls.__new__(cls)
        object.__setattr__(key, "y", y)
        return key

    def fingerprint(self) -> str:
        """Short stable identifier used in address derivation and logs."""
        return sha256(self.to_bytes()).hex()[:40]

    def to_bytes(self) -> bytes:
        """Serialize as a fixed-width big-endian integer."""
        return self.y.to_bytes(128, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        """Parse a public key produced by :meth:`to_bytes`."""
        return cls(y=int.from_bytes(data, "big"))

    @staged("crypto.verify")
    def verify(self, message: bytes, signature: Signature) -> bool:
        """Return True iff ``signature`` is valid for ``message``.

        This is the verifier-side check of thesis eq. 2.2: applying the
        witness public key to the signed proof must re-yield the hash.
        """
        if not (0 < signature.e < group.Q and 0 < signature.s < group.Q):
            return False
        if (self.y, message, signature.e, signature.s) in _signed_here:
            return True  # this process signed it; validity is by construction
        x = _dlog_here.get(self.y)
        if x is not None:
            # g**s * y**(q-e) == g**(s + x*(q-e) mod q): one comb pow
            r = g_pow((signature.s + x * (group.Q - signature.e)) % group.Q)
        else:
            r = (g_pow(signature.s) * pow(self.y, group.Q - signature.e, group.P)) % group.P
        e = _challenge(r, self.y, message)
        return e == signature.e

    def encrypt(self, plaintext: bytes) -> tuple[int, bytes]:
        """Hashed-ElGamal encrypt ``plaintext`` to this key.

        Returns ``(c1, c2)`` with ``c1 = g**k`` and
        ``c2 = plaintext XOR stream(H(y**k))``.  Used by witnesses to
        encrypt DID authentication challenges to provers.
        """
        k = secrets.randbelow(group.Q - 1) + 1
        c1 = g_pow(k)
        x = _dlog_here.get(self.y)
        shared = g_pow((x * k) % group.Q) if x is not None else pow(self.y, k, group.P)
        if len(_shared_here) >= _SHARED_CAP:
            _shared_here.clear()
        _shared_here[(self.y, c1)] = shared
        return c1, _xor_stream(shared, plaintext)


@dataclass(frozen=True)
class KeyPair:
    """A private key ``x`` bundled with its :class:`PublicKey`."""

    x: int
    public: PublicKey

    @classmethod
    def generate(cls) -> "KeyPair":
        """Generate a fresh random key pair."""
        return cls._from_private(secrets.randbelow(group.Q - 1) + 1)

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        """Derive a key pair deterministically from ``seed``.

        The simulators use seeded keys so that test runs are
        reproducible (e.g. ``KeyPair.from_seed(b"prover-7")``).
        """
        x = int.from_bytes(tagged_hash("repro/keypair-seed", seed), "big") % (group.Q - 1) + 1
        return cls._from_private(x)

    @classmethod
    def _from_private(cls, x: int) -> "KeyPair":
        y = g_pow(x)
        if len(_dlog_here) >= _DLOG_CAP:
            _dlog_here.clear()
        _dlog_here[y] = x
        return cls(x=x, public=PublicKey._trusted(y))

    @staged("crypto.sign")
    def sign(self, message: bytes) -> Signature:
        """Schnorr-sign ``message`` with a deterministic (RFC 6979-style) nonce.

        This is thesis eq. 2.1: the witness applies its private key to
        the hash of the prover's proof.
        """
        k = _deterministic_nonce(self.x, message)
        r = g_pow(k)
        e = _challenge(r, self.public.y, message)
        s = (k + self.x * e) % group.Q
        if len(_signed_here) >= _SIGNED_CAP:
            _signed_here.clear()
        _signed_here.add((self.public.y, message, e, s))
        return Signature(e=e, s=s)

    def decrypt(self, ciphertext: tuple[int, bytes]) -> bytes:
        """Decrypt a hashed-ElGamal ciphertext produced by :meth:`PublicKey.encrypt`."""
        c1, c2 = ciphertext
        # A header this process produced (encrypt, above) is g**k by
        # construction and its shared secret y**k == c1**x is already
        # known; wire-format headers take the full check + modexp.
        shared = _shared_here.get((self.public.y, c1))
        if shared is None:
            if not group.is_group_element(c1):
                raise ValueError("ciphertext header is not a valid group element")
            shared = pow(c1, self.x, group.P)
        return _xor_stream(shared, c2)


def _challenge(r: int, y: int, message: bytes) -> int:
    """Fiat-Shamir challenge ``e = H(r || y || m) mod q`` (never zero)."""
    digest = tagged_hash(
        "repro/schnorr-challenge",
        r.to_bytes(128, "big"),
        y.to_bytes(128, "big"),
        message,
    )
    e = int.from_bytes(digest, "big") % group.Q
    return e if e != 0 else 1


def _deterministic_nonce(x: int, message: bytes) -> int:
    """Derive a per-(key, message) nonce; avoids RNG misuse in replays."""
    # hmac.digest is the one-shot C path; same bytes as hmac.new(...).digest()
    digest = hmac.digest(x.to_bytes(32, "big"), tagged_hash("repro/nonce", message), "sha256")
    k = int.from_bytes(digest, "big") % group.Q
    return k if k != 0 else 1


def _xor_stream(shared: int, data: bytes) -> bytes:
    """XOR ``data`` with a SHA-256 counter stream keyed by ``shared``."""
    size = len(data)
    if size == 0:
        return b""
    key = tagged_hash("repro/elgamal-kdf", shared.to_bytes(128, "big"))
    stream = b"".join(
        sha256(key, block.to_bytes(8, "big")) for block in range(0, size, 32)
    )[:size]
    # byte-wise XOR as one big-int XOR (identical output, no Python loop)
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(size, "big")
