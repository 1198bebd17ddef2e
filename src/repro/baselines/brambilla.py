"""A Brambilla-et-al.-style P2P blockchain Proof-of-Location baseline.

Thesis section 1.7.2, figures 1.14-1.16: peers exchange a signed
request/response pair

    Req_{i->j} = { K_i^pub, (lat, lng)_i, h(Block_{t-1}), timestamp }_{K_i^priv}
    Res_{j->i} = { Req_{i->j}, K_j^pub, (lat, lng)_j, timestamp }_{K_j^priv}

then "every peer puts all known valid unacknowledged proofs of location
into a block"; a pseudo-randomly chosen peer appends it, and peers
check "that the proof-of-location inserted in a new block is not
already present in previous blocks" (the replay defence).

Deliberately reproduced weakness, exactly as the thesis critiques:
"this solution is vulnerable to collusion attacks because the protocol
allows direct communication between provers" -- there is no physical
channel between the peers, so two *distant* colluders can complete the
exchange and their proof passes every network-level check.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from repro.crypto.hashing import sha256_hex
from repro.crypto.keys import KeyPair, PublicKey, Signature
from repro.geo.distance import haversine_km


#: how far an honest witness lets a claimed position be from its own.
PROXIMITY_KM = 0.1


class BrambillaError(Exception):
    """Protocol violation detected by honest peers."""


@dataclass(frozen=True)
class PolRequest:
    """The prover's signed request (figure 1.16a)."""

    prover_key_hex: str
    latitude: float
    longitude: float
    previous_block_hash: str
    timestamp: float
    signature_hex: str

    @staticmethod
    def payload(prover_key_hex: str, latitude: float, longitude: float, previous_block_hash: str, timestamp: float) -> bytes:
        """Canonical signed bytes."""
        return json.dumps(
            [prover_key_hex, latitude, longitude, previous_block_hash, timestamp],
            separators=(",", ":"),
        ).encode()

    def verify(self) -> bool:
        """Check the prover's signature."""
        try:
            public = PublicKey.from_bytes(bytes.fromhex(self.prover_key_hex))
            signature = Signature.from_bytes(bytes.fromhex(self.signature_hex))
        except (ValueError, TypeError):
            return False
        body = self.payload(
            self.prover_key_hex, self.latitude, self.longitude, self.previous_block_hash, self.timestamp
        )
        return public.verify(body, signature)


@dataclass(frozen=True)
class PolRecord:
    """Request + witness response = one proof of location (figure 1.16b)."""

    request: PolRequest
    witness_key_hex: str
    witness_latitude: float
    witness_longitude: float
    timestamp: float
    signature_hex: str

    @property
    def pol_id(self) -> str:
        """Stable identifier used for the already-in-chain check."""
        return sha256_hex(self.request.signature_hex.encode(), self.signature_hex.encode())

    def response_payload(self) -> bytes:
        """Canonical bytes the witness signed."""
        return json.dumps(
            [
                self.request.signature_hex,
                self.witness_key_hex,
                self.witness_latitude,
                self.witness_longitude,
                self.timestamp,
            ],
            separators=(",", ":"),
        ).encode()

    def verify(self) -> bool:
        """Both signatures must hold; note: NO proximity check exists."""
        if not self.request.verify():
            return False
        try:
            public = PublicKey.from_bytes(bytes.fromhex(self.witness_key_hex))
            signature = Signature.from_bytes(bytes.fromhex(self.signature_hex))
        except (ValueError, TypeError):
            return False
        return public.verify(self.response_payload(), signature)


@dataclass(frozen=True)
class PolBlock:
    """A block of proofs appended by the selected peer."""

    height: int
    previous_hash: str
    creator_key_hex: str
    pols: tuple[PolRecord, ...]

    @property
    def block_hash(self) -> str:
        """Commitment to the block contents."""
        return sha256_hex(
            self.height.to_bytes(8, "big"),
            self.previous_hash.encode(),
            self.creator_key_hex.encode(),
            *(pol.pol_id.encode() for pol in self.pols),
        )


@dataclass
class Peer:
    """One network participant."""

    name: str
    keypair: KeyPair
    latitude: float
    longitude: float
    honest: bool = True

    @property
    def key_hex(self) -> str:
        """The peer's public key in hex."""
        return self.keypair.public.to_bytes().hex()

    def make_request(self, previous_block_hash: str, timestamp: float = 0.0) -> PolRequest:
        """Build and sign a location request for the claimed position."""
        body = PolRequest.payload(self.key_hex, self.latitude, self.longitude, previous_block_hash, timestamp)
        return PolRequest(
            prover_key_hex=self.key_hex,
            latitude=self.latitude,
            longitude=self.longitude,
            previous_block_hash=previous_block_hash,
            timestamp=timestamp,
            signature_hex=self.keypair.sign(body).to_bytes().hex(),
        )

    def respond(self, request: PolRequest, timestamp: float = 0.0) -> PolRecord:
        """Witness side: sign a response.

        An *honest* peer refuses when the claimed position is more than
        :data:`PROXIMITY_KM` from its own; a dishonest (colluding) peer
        signs anyway -- the protocol itself cannot tell the difference,
        which is the vulnerability the thesis points out.
        """
        if self.honest:
            distance = haversine_km(self.latitude, self.longitude, request.latitude, request.longitude)
            if distance > PROXIMITY_KM:
                raise BrambillaError(
                    f"{self.name} refuses: claimed position is {distance:.1f} km away"
                )
        record = PolRecord(
            request=request,
            witness_key_hex=self.key_hex,
            witness_latitude=self.latitude,
            witness_longitude=self.longitude,
            timestamp=timestamp,
            signature_hex="",
        )
        signature = self.keypair.sign(record.response_payload())
        return PolRecord(
            request=request,
            witness_key_hex=self.key_hex,
            witness_latitude=self.latitude,
            witness_longitude=self.longitude,
            timestamp=timestamp,
            signature_hex=signature.to_bytes().hex(),
        )


@dataclass
class BrambillaNetwork:
    """The peer set, the shared chain, and the consensus round."""

    seed: int = 0
    peers: dict[str, Peer] = field(default_factory=dict)
    chain: list[PolBlock] = field(default_factory=list)
    pending: list[PolRecord] = field(default_factory=list)
    _rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        if not self.chain:
            self.chain = [PolBlock(height=0, previous_hash="0" * 64, creator_key_hex="genesis", pols=())]

    @property
    def head_hash(self) -> str:
        """The latest block's hash (bound into new requests)."""
        return self.chain[-1].block_hash

    def submit(self, record: PolRecord) -> None:
        """Broadcast a proof; peers validate signatures and freshness."""
        if not record.verify():
            raise BrambillaError("invalid signatures on the proof of location")
        if record.request.previous_block_hash != self.head_hash:
            raise BrambillaError("stale proof: not bound to the current chain head")
        if self._already_recorded(record):
            raise BrambillaError("proof of location already present in previous blocks")
        self.pending.append(record)

    def _already_recorded(self, record: PolRecord) -> bool:
        return any(pol.pol_id == record.pol_id for block in self.chain for pol in block.pols)

    def run_round(self) -> PolBlock:
        """A pseudo-randomly chosen peer appends the pending proofs.

        "The consensus algorithm is Proof of Stake using a pseudo-random
        to decide who will add the next block."
        """
        if not self.peers:
            raise BrambillaError("no peers online")
        creator = self._rng.choice(sorted(self.peers.values(), key=lambda p: p.name))
        valid = [record for record in self.pending if record.verify() and not self._already_recorded(record)]
        block = PolBlock(
            height=len(self.chain),
            previous_hash=self.head_hash,
            creator_key_hex=creator.key_hex,
            pols=tuple(valid),
        )
        # Honest majority accepts a well-formed block; we model acceptance.
        self.chain.append(block)
        self.pending = []
        return block
