"""Pure Proof-of-Stake: cryptographic sortition and BA-style certification.

Implements the round structure of thesis section 1.4.2.1:

1. every participant privately evaluates a VRF on the round seed and
   learns whether (and how many times, the parameter ``j``) it was
   selected -- :func:`sortition_seats`;
2. the selected leader with the lowest credential proposes the block;
3. a randomly-sorted committee certifies it; a block is final as soon
   as a 2/3 majority of committee seats approves (no forks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

from repro.crypto.hashing import tagged_hash
from repro.crypto.vrf import VRFKeyPair, VRFProof, verify_vrf, vrf_output


def sortition_seats(vrf_output: bytes, stake: int, total_stake: int, expected: float) -> int:
    """How many committee seats this account's VRF draw earned.

    Walks the binomial CDF ``B(stake, p)`` with ``p = expected /
    total_stake`` and finds the bucket that the VRF output (as a uniform
    fraction of [0,1)) falls into -- the construction from the Algorand
    paper (Gilad et al., SOSP'17).  Wealthy accounts may be "chosen
    frequently"; the returned ``j`` says how many times.
    """
    if stake <= 0 or total_stake <= 0:
        return 0
    p = min(expected / total_stake, 1.0)
    if p <= 0.0:
        return 0
    fraction = int.from_bytes(vrf_output[:16], "big") / float(1 << 128)
    # Binomial CDF walk with incremental pmf updates.
    q = 1.0 - p
    pmf = q**stake
    cdf = pmf
    j = 0
    while cdf <= fraction and j < stake:
        j += 1
        pmf *= (stake - j + 1) / j * (p / q)
        cdf += pmf
        if pmf < 1e-18 and j > expected * 4:
            break  # tail is numerically negligible
    return j


@dataclass
class Participant:
    """A consensus participant: VRF keys plus stake."""

    address: str
    vrf: VRFKeyPair
    stake: int
    online: bool = True
    blocks_led: int = 0
    votes_cast: int = 0


@dataclass(frozen=True)
class Credential:
    """A selected account's sortition draw, revealed as a VRF proof
    that everyone can verify.

    Selection and leader priority read only the VRF ``output``, and a
    block records only addresses, so the DLEQ ``proof`` is made on its
    first read (by ``reveal``) and then cached.
    """

    address: str
    seats: int
    output: bytes = field(repr=False)
    reveal: Callable[[], VRFProof] = field(repr=False, compare=False)

    @cached_property
    def proof(self) -> VRFProof:
        """The DLEQ proof behind ``output``."""
        return self.reveal()

    @property
    def priority(self) -> bytes:
        """Lowest-priority-wins ordering among selected leaders."""
        return tagged_hash("repro/leader-priority", self.output, self.address.encode())


@dataclass
class CertifiedRound:
    """The outcome of one consensus round."""

    round: int
    leader: Credential | None
    committee: list[Credential]
    approvals: int
    certified: bool


@dataclass
class Sortition:
    """Runs leader + committee selection for each round."""

    expected_leaders: float = 2.0
    expected_committee: float = 10.0
    participants: dict[str, Participant] = field(default_factory=dict)

    def register(self, address: str, vrf: VRFKeyPair, stake: int) -> Participant:
        """Bring an account online as a consensus participant."""
        if stake <= 0:
            raise ValueError("stake must be positive")
        participant = Participant(address=address, vrf=vrf, stake=stake)
        self.participants[address] = participant
        return participant

    def total_stake(self) -> int:
        """Sum of all registered stake (online or not).

        Selection probabilities weight against the full stake, so
        disconnected stake *reduces* the revealed committee instead of
        inflating the remaining participants' chances -- which is what
        makes the 1/3-adversary bound meaningful.
        """
        return sum(p.stake for p in self.participants.values())

    def draw_inputs(self) -> tuple:
        """Everything :meth:`run_round` reads besides the round and seed.

        The selection parameters and each participant's address, stake,
        online flag and VRF public key, as atoms: two sortitions with
        equal inputs draw the same round.
        """
        return (
            self.expected_leaders,
            self.expected_committee,
            tuple((p.address, p.stake, p.online, p.vrf.public.y) for p in self.participants.values()),
        )

    def set_online(self, address: str, online: bool) -> None:
        """Connect/disconnect a participant (the section 1.4.2 challenge:
        the protocol must "continue to operate even if an adversary
        disconnects some of the nodes")."""
        participant = self.participants.get(address)
        if participant is None:
            raise KeyError(address)
        participant.online = online

    def run_round(self, round_number: int, seed: bytes) -> CertifiedRound:
        """Select a leader and committee, then certify the proposal.

        Each participant draws the VRF *privately*: one ``gamma`` per
        role, whose output decides its seats.  Only the selected reveal
        credentials, and a credential's DLEQ proof is made only when it
        is read (a block reads none; :meth:`verify_credential` does) --
        the nonce is deterministic, so the late proof is the one an
        eager evaluation would have made.  Offline participants draw
        nothing, so heavy disconnection starves the committee and
        certification fails.
        """
        total = self.total_stake()
        leader_credentials: list[Credential] = []
        committee_credentials: list[Credential] = []
        online = [p for p in self.participants.values() if p.online]
        # Both selection messages depend only on the round, not the
        # participant: hash once, share across the whole population.
        round_tag = round_number.to_bytes(8, "big")
        leader_msg = tagged_hash("repro/sortition-leader", seed, round_tag)
        committee_msg = tagged_hash("repro/sortition-committee", seed, round_tag)
        draws = (
            (leader_msg, self.expected_leaders, leader_credentials),
            (committee_msg, self.expected_committee, committee_credentials),
        )
        for participant in sorted(online, key=lambda p: p.address):
            vrf = participant.vrf
            for message, expected, credentials in draws:
                gamma = vrf.gamma_for(message)
                output = vrf_output(gamma)
                seats = sortition_seats(output, participant.stake, total, expected)
                if seats > 0:
                    reveal = partial(vrf.evaluate, message, gamma=gamma)
                    credentials.append(Credential(participant.address, seats, output, reveal))

        leader = min(leader_credentials, key=lambda c: c.priority) if leader_credentials else None
        if leader is not None:
            self.participants[leader.address].blocks_led += 1

        # Certification: honest committee members vote for the leader's
        # proposal.  The vote threshold is fixed against the *expected*
        # committee size, so a starved committee (too much stake
        # offline) cannot certify -- the liveness/safety trade the
        # Algorand agreement protocol makes.
        approvals = 0
        if leader is not None:
            for credential in committee_credentials:
                self.participants[credential.address].votes_cast += 1
                approvals += credential.seats
        threshold = max(1, math.ceil(self.expected_committee * 0.6))
        certified = leader is not None and approvals >= threshold
        return CertifiedRound(
            round=round_number,
            leader=leader,
            committee=committee_credentials,
            approvals=approvals,
            certified=certified,
        )

    def verify_credential(self, credential: Credential, seed: bytes, round_number: int, role: str) -> bool:
        """Re-check a revealed credential (any node can do this)."""
        participant = self.participants.get(credential.address)
        if participant is None:
            return False
        tag = "repro/sortition-leader" if role == "leader" else "repro/sortition-committee"
        message = tagged_hash(tag, seed, round_number.to_bytes(8, "big"))
        try:
            output = verify_vrf(participant.vrf.public, message, credential.proof)
        except Exception:
            return False
        expected = self.expected_leaders if role == "leader" else self.expected_committee
        seats = sortition_seats(output, participant.stake, self.total_stake(), expected)
        return seats == credential.seats and seats > 0

