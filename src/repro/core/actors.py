"""The system actors (thesis section 2.1).

- :class:`Prover` -- "a user, with a mobile device, who needs to
  validate his or her location";
- :class:`Witness` -- computes and issues location proofs after
  authenticating the prover's DID and checking physical proximity;
- :class:`Verifier` -- permissioned; validates the proofs stored in the
  contract and feeds the hypercube (the garbage-in gate);
- :class:`CertificationAuthority` -- accredits verifiers, collects
  witness public keys, and delivers the witness list the verification
  formula (eq. 2.2) is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import tagged_hash
from repro.crypto.keys import KeyPair, PublicKey
from repro.did.auth import AuthError, ChallengeResponseAuth
from repro.did.registry import DidRegistry
from repro.geo.olc import decode as olc_decode, encode as olc_encode
from repro.core.bluetooth import BluetoothChannel
from repro.core.proof import (
    LocationProof,
    ProofFailure,
    ProofRequest,
    build_proof,
    verify_proof,
    verify_record,
)


class WitnessRefusal(Exception):
    """The witness declined to issue a proof, with the reason."""


@dataclass
class CertificationAuthority:
    """Knows the pseudonym -> identity mapping; accredits roles.

    Accreditation is the witness-key *list* of section 2.1: witnesses
    register their public keys here, and only accredited verifiers get
    the list that eq. 2.2 is checked against.
    """

    witness_keys: list[PublicKey] = field(default_factory=list)
    verifiers: set[str] = field(default_factory=set)
    identities: dict[str, str] = field(default_factory=dict)  # pseudonym -> real identity
    # O(1) membership mirror of witness_keys plus a cached delivery set:
    # with tens of thousands of witnesses, scanning the list per
    # registration or per delivered verification is quadratic overall.
    _members: set[PublicKey] = field(default_factory=set, repr=False)
    _delivered: frozenset[PublicKey] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._members.update(self.witness_keys)

    def register_witness(self, public: PublicKey, real_identity: str = "") -> None:
        """A user communicates its public key to become a witness."""
        if public not in self._members:
            self._members.add(public)
            self.witness_keys.append(public)
            self._delivered = None
        if real_identity:
            self.identities[public.fingerprint()] = real_identity

    def accredit_verifier(self, verifier_id: str) -> None:
        """Permissioned verification: the CA indicates the verifiers."""
        self.verifiers.add(verifier_id)

    def is_verifier(self, verifier_id: str) -> bool:
        """Check a verifier accreditation."""
        return verifier_id in self.verifiers

    def witness_set(self, verifier_id: str) -> frozenset[PublicKey]:
        """Deliver the witness key list -- only to accredited verifiers.

        A cached frozenset for O(1) membership: verification only needs
        "is this key CA-listed?" and "which of these keys verifies?",
        neither of which depends on list order.
        The cache is rebuilt whenever the roster changes (including
        direct ``witness_keys`` mutation, detected by length).
        """
        if not self.is_verifier(verifier_id):
            raise PermissionError(f"{verifier_id} is not an accredited verifier")
        delivered = self._delivered
        if delivered is None or len(delivered) != len(self.witness_keys):
            delivered = self._delivered = frozenset(self.witness_keys)
        return delivered


@dataclass(slots=True)
class UserBase:
    """Shared identity state of provers and witnesses."""

    name: str
    keypair: KeyPair
    did: str
    did_uint: int  # the UInt form the contract Map is keyed by (section 4.1.1)
    latitude: float
    longitude: float

    @property
    def olc(self) -> str:
        """The user's current 10-digit Open Location Code."""
        return olc_encode(self.latitude, self.longitude)

    @property
    def device_id(self) -> str:
        """The Bluetooth device identifier."""
        return self.name


@dataclass(slots=True)
class Witness(UserBase):
    """Issues location proofs to authenticated, physically-near provers."""

    auth: ChallengeResponseAuth | None = None
    issued_nonces: set[int] = field(default_factory=set)
    used_nonces: set[int] = field(default_factory=set)
    proofs_issued: int = 0
    nonce_counter: int = field(default=0, init=False, repr=False)

    def issue_nonce(self) -> int:
        """Hand a fresh nonce to a requesting prover (replay defence).

        The nonce hashes a per-witness counter under the witness's
        private key, the idea behind the deterministic signing nonce in
        :mod:`repro.crypto.keys`: nobody without the key can predict it,
        it never repeats for this witness, and a seeded run draws the
        same nonces every time.
        """
        secret = self.keypair.x.to_bytes(32, "big")
        while True:
            self.nonce_counter += 1
            digest = tagged_hash("repro/witness-nonce", secret, self.nonce_counter.to_bytes(8, "big"))
            nonce = int.from_bytes(digest[:8], "big") % 2**53 + 1
            if nonce not in self.issued_nonces and nonce not in self.used_nonces:
                break
        self.issued_nonces.add(nonce)
        return nonce

    def handle_request(
        self,
        request: ProofRequest,
        prover_device: str,
        channel: BluetoothChannel,
        registry: DidRegistry,
        prover_keypair: KeyPair,
        now: float = 0.0,
    ) -> LocationProof:
        """The full witness pipeline of figure 2.5.

        1. physical proximity (Bluetooth range);
        2. the claimed OLC must cover the prover's radio-verified position;
        3. DID challenge-response authentication (figure 2.4);
        4. the nonce must be one this witness issued and never used;
        5. hash + sign (eq. 2.1).

        ``prover_keypair`` stands in for the prover's side of the
        challenge-response exchange (the decryption happens with the
        prover's key, never the witness's).
        """
        distance = channel.reach_m(self.device_id, prover_device)
        if distance is None:
            raise WitnessRefusal(f"prover {prover_device!r} is not within Bluetooth range")
        # Bluetooth attests the prover is near *me*; the claimed area
        # must therefore be near my own position.
        if distance > channel.range_m:
            raise WitnessRefusal("proximity check failed")
        area = olc_decode(request.olc)
        margin = max(area.height_degrees, 0.002)  # tolerate adjacent cells
        if not (
            area.latitude_low - margin <= self.latitude <= area.latitude_high + margin
            and area.longitude_low - margin <= self.longitude <= area.longitude_high + margin
        ):
            raise WitnessRefusal(
                f"claimed location {request.olc} does not cover the radio-verified position"
            )
        if request.nonce in self.used_nonces:
            raise WitnessRefusal("nonce already used (replay attempt)")
        if request.nonce not in self.issued_nonces:
            raise WitnessRefusal("nonce was not issued by this witness")
        if self.auth is None:
            self.auth = ChallengeResponseAuth(registry=registry)
        try:
            challenge = self.auth.issue_challenge(_did_of(registry, request.did), now=now)
            response = ChallengeResponseAuth.respond(challenge.ciphertext, prover_keypair)
            if not self.auth.check_response(challenge.challenge_id, response, now=now):
                raise WitnessRefusal("DID authentication failed")
        except AuthError as exc:
            raise WitnessRefusal(f"DID authentication failed: {exc}") from exc
        self.issued_nonces.discard(request.nonce)
        self.used_nonces.add(request.nonce)
        self.proofs_issued += 1
        return build_proof(request, self.keypair, timestamp=now)


@dataclass(slots=True)
class Prover(UserBase):
    """Requests proofs from nearby witnesses and files reports."""

    rewards_received: int = 0
    # Pipelined submissions this prover has started but not yet seen
    # settle (PendingSubmission objects; typed loosely to keep the
    # actor layer free of a system-facade import).  A tuple, so a
    # prover with nothing in flight holds the shared empty one.
    in_flight: tuple = ()
    submissions_settled: int = 0
    # Merkle inclusion paths for batched submissions, keyed by batch id
    # (MerkleProof objects; the prover's half of light verification --
    # the chain only holds the batch root).
    batch_inclusions: dict = field(default_factory=dict)

    def make_request(self, nonce: int, cid: str, timestamp: float = 0.0) -> ProofRequest:
        """Assemble the broadcast of figure 2.5."""
        return ProofRequest(did=self.did_uint, olc=self.olc, nonce=nonce, cid=cid, timestamp=timestamp)

    def track_submission(self, pending) -> None:
        """Remember a submission the prover has in flight."""
        self.in_flight += (pending,)

    def settle_submissions(self) -> list:
        """Drop (and return) the submissions that have since settled."""
        settled = [pending for pending in self.in_flight if pending.done]
        self.in_flight = tuple(pending for pending in self.in_flight if not pending.done)
        self.submissions_settled += len(settled)
        return settled

    def retain_inclusion(self, batch_id: int, proof) -> None:
        """Keep the Merkle inclusion path of a batched submission.

        Only the batch's root goes on-chain; the prover must retain the
        path to prove membership later (light verification).
        """
        self.batch_inclusions[batch_id] = proof


@dataclass
class Verifier:
    """Validates proofs from the contract and feeds the hypercube."""

    name: str
    keypair: KeyPair
    authority: CertificationAuthority
    seen_nonces: set[int] = field(default_factory=set)
    validated: int = 0
    rejected: int = 0

    def check_record(
        self,
        proof: LocationProof,
        did: int,
        olc: str,
        nonce: int,
        cid: str,
        prover_public: PublicKey | None = None,
    ) -> ProofFailure:
        """The verification of section 2.3.1.2 plus replay screening."""
        witness_keys = self.authority.witness_set(self.name)
        if nonce in self.seen_nonces:
            self.rejected += 1
            return ProofFailure.REPLAY
        outcome = verify_proof(proof, did, olc, nonce, cid, witness_keys, prover_public=prover_public)
        if outcome is ProofFailure.OK:
            self.seen_nonces.add(nonce)
            self.validated += 1
        else:
            self.rejected += 1
        return outcome

    def check_stored_record(
        self,
        hashed_proof_hex: str,
        signature_hex: str,
        did: int,
        olc: str,
        nonce: int,
        cid: str,
        prover_public: PublicKey | None = None,
        hint_keys: list[PublicKey] | None = None,
    ) -> ProofFailure:
        """Verify a record as retrieved from the contract Map.

        ``hint_keys`` orders the witness-list scan (keys likely to have
        signed -- e.g. the record's OLC cell's witnesses -- first); it
        never changes the outcome, only how many signature checks the
        scan burns before finding the signer.
        """
        witness_keys = self.authority.witness_set(self.name)
        if nonce in self.seen_nonces:
            self.rejected += 1
            return ProofFailure.REPLAY
        outcome = verify_record(
            hashed_proof_hex, signature_hex, did, olc, nonce, cid, witness_keys,
            prover_public=prover_public, preferred=hint_keys,
        )
        if outcome is ProofFailure.OK:
            self.seen_nonces.add(nonce)
            self.validated += 1
        else:
            self.rejected += 1
        return outcome


def _did_of(registry: DidRegistry, did_uint: int) -> str:
    """Look up the full DID string for a contract-level UInt DID."""
    did = registry.did_for_uint(did_uint)
    if did is None:
        raise AuthError(f"no DID registered for UInt id {did_uint}")
    return did
