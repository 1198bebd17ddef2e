"""An APPLAUS-style centralized location-proof system (thesis 1.7.2).

"APPLAUS ... proposed a centralized scheme where, through a short-range
communication method, users mutually generate location proofs and
report them to a server."  Faithful elements:

- proofs are generated peer-to-peer between a prover and a witness over
  the Bluetooth channel (no infrastructure);
- each user holds a pool of pseudonyms, all registered with the CA;
- proofs are uploaded to an untrusted **central server**;
- a **Central Authority** knows the pseudonym -> real-identity mapping;
  a verifier queries the CA with a real identity, the CA translates to
  pseudonyms and fetches the proofs from the server.

Deliberately reproduced weaknesses (what the thesis's architecture
removes): the server is a single point of failure, and the CA can link
every pseudonym of every user -- quantified by the comparison bench.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field

from repro.crypto.hashing import tagged_hash
from repro.crypto.keys import KeyPair, PublicKey, Signature
from repro.geo.olc import encode as olc_encode
from repro.core.bluetooth import BluetoothChannel, BluetoothError


class ServerUnavailable(Exception):
    """The central server is down: the whole system is down."""


class ApplausError(Exception):
    """Protocol failure (range, unknown user, bad proof)."""


@dataclass(frozen=True)
class ApplausProof:
    """A mutually generated proof (figure 1.13): pseudonyms + signature."""

    prover_pseudonym: str
    witness_pseudonym: str
    olc: str
    sequence: int  # the witness's random number
    digest: bytes
    signature: Signature  # by the witness pseudonym key

    @staticmethod
    def compute_digest(prover_pseudonym: str, witness_pseudonym: str, olc: str, sequence: int) -> bytes:
        """The hash both sides compute over the exchanged fields."""
        return tagged_hash(
            "repro/applaus-proof",
            prover_pseudonym.encode(),
            witness_pseudonym.encode(),
            olc.upper().encode(),
            sequence.to_bytes(8, "big"),
        )


@dataclass
class PseudonymousUser:
    """A mobile user with a pseudonym pool (it proves under the first)."""

    name: str
    latitude: float
    longitude: float
    pseudonym_pool: list[KeyPair] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.pseudonym_pool:
            self.pseudonym_pool = [
                KeyPair.from_seed(f"applaus/{self.name}/pseudonym/{i}".encode()) for i in range(4)
            ]

    @property
    def active_keypair(self) -> KeyPair:
        """The currently used pseudonym key."""
        return self.pseudonym_pool[0]

    @property
    def active_pseudonym(self) -> str:
        """The current pseudonym identifier (the public-key fingerprint)."""
        return self.active_keypair.public.fingerprint()

    @property
    def olc(self) -> str:
        """Current location code."""
        return olc_encode(self.latitude, self.longitude)

    def all_pseudonyms(self) -> list[str]:
        """Every pseudonym this user may appear under."""
        return [kp.public.fingerprint() for kp in self.pseudonym_pool]


@dataclass
class CentralServer:
    """The untrusted proof store -- and the single point of failure."""

    online: bool = True
    proofs: dict[str, list[ApplausProof]] = field(default_factory=dict)  # pseudonym -> proofs
    uploads: int = 0

    def upload(self, proof: ApplausProof) -> None:
        """A prover reports a proof (figure 1.12's upload arrow)."""
        self._check_online()
        self.uploads += 1
        self.proofs.setdefault(proof.prover_pseudonym, []).append(proof)

    def fetch(self, pseudonym: str) -> list[ApplausProof]:
        """Retrieve the proofs filed under a pseudonym."""
        self._check_online()
        return list(self.proofs.get(pseudonym, []))

    def _check_online(self) -> None:
        if not self.online:
            raise ServerUnavailable("the central server is unreachable")


@dataclass
class CentralAuthority:
    """Knows every pseudonym of every real identity (the privacy cost)."""

    mapping: dict[str, list[str]] = field(default_factory=dict)  # identity -> pseudonyms
    key_directory: dict[str, PublicKey] = field(default_factory=dict)
    authorized_verifiers: set[str] = field(default_factory=set)

    def enroll(self, user: PseudonymousUser) -> None:
        """Registration: the CA records the full pseudonym pool."""
        self.mapping[user.name] = user.all_pseudonyms()
        for keypair in user.pseudonym_pool:
            self.key_directory[keypair.public.fingerprint()] = keypair.public

    def authorize(self, verifier_id: str) -> None:
        """Accredit a verifier to query the mapping."""
        self.authorized_verifiers.add(verifier_id)

    def pseudonyms_of(self, verifier_id: str, identity: str) -> list[str]:
        """Translate a real identity (after authenticating the verifier)."""
        if verifier_id not in self.authorized_verifiers:
            raise PermissionError(f"{verifier_id} is not authorized")
        if identity not in self.mapping:
            raise ApplausError(f"unknown identity {identity!r}")
        return list(self.mapping[identity])

    def linkable_pairs(self) -> int:
        """How many (identity, pseudonym) links the CA can make.

        The de-anonymization surface the thesis's DID design avoids: in
        APPLAUS this is *every* pseudonym of *every* user.
        """
        return sum(len(pseudonyms) for pseudonyms in self.mapping.values())


@dataclass
class ApplausSystem:
    """The assembled baseline: channel + users + server + CA."""

    channel: BluetoothChannel = field(default_factory=BluetoothChannel)
    server: CentralServer = field(default_factory=CentralServer)
    authority: CentralAuthority = field(default_factory=CentralAuthority)
    users: dict[str, PseudonymousUser] = field(default_factory=dict)

    def register_user(self, name: str, latitude: float, longitude: float) -> PseudonymousUser:
        """Enroll a user: device + pseudonym pool + CA registration."""
        if name in self.users:
            raise ApplausError(f"user {name!r} already registered")
        user = PseudonymousUser(name=name, latitude=latitude, longitude=longitude)
        self.users[name] = user
        self.channel.register(name, latitude, longitude)
        self.authority.enroll(user)
        return user

    def generate_proof(self, prover_name: str, witness_name: str) -> ApplausProof:
        """Mutual proof generation over Bluetooth (figure 1.13)."""
        prover = self.users[prover_name]
        witness = self.users[witness_name]
        if not self.channel.in_range(prover_name, witness_name):
            raise BluetoothError(f"{witness_name} is out of range of {prover_name}")
        sequence = secrets.randbelow(2**32)
        digest = ApplausProof.compute_digest(
            prover.active_pseudonym, witness.active_pseudonym, prover.olc, sequence
        )
        return ApplausProof(
            prover_pseudonym=prover.active_pseudonym,
            witness_pseudonym=witness.active_pseudonym,
            olc=prover.olc,
            sequence=sequence,
            digest=digest,
            signature=witness.active_keypair.sign(digest),
        )

    def submit_proof(self, proof: ApplausProof) -> None:
        """Report the proof to the central server."""
        self.server.upload(proof)

    def verify_identity(self, verifier_id: str, identity: str) -> list[ApplausProof]:
        """The figure 1.12 query path: verifier -> CA -> server.

        Returns the *valid* proofs of that identity; raises
        :class:`ServerUnavailable` if the server is down (the whole
        verification capability disappears with it).
        """
        pseudonyms = self.authority.pseudonyms_of(verifier_id, identity)
        valid: list[ApplausProof] = []
        for pseudonym in pseudonyms:
            for proof in self.server.fetch(pseudonym):
                witness_key = self.authority.key_directory.get(proof.witness_pseudonym)
                if witness_key is None:
                    continue
                expected = ApplausProof.compute_digest(
                    proof.prover_pseudonym, proof.witness_pseudonym, proof.olc, proof.sequence
                )
                if expected == proof.digest and witness_key.verify(proof.digest, proof.signature):
                    valid.append(proof)
        return valid
