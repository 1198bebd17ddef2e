"""Proof-of-stake consensus for the EVM chains.

Models the post-Merge design the thesis describes (section 1.4.1.2): a
validator registry where each validator stakes 32 ETH, a randomly
selected proposer per 12-second slot, and a random committee that
attests to the proposed block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

STAKE_REQUIREMENT_ETH = 32


@dataclass
class Validator:
    """One staked validator."""

    address: str
    stake: int  # base units (wei)
    blocks_proposed: int = 0
    attestations: int = 0


@dataclass
class Attestation:
    """A committee member's vote on a proposed block."""

    validator: str
    block_number: int


@dataclass
class ValidatorSet:
    """The registry plus proposer/committee selection."""

    stake_requirement: int
    validators: dict[str, Validator] = field(default_factory=dict)
    committee_size: int = 8

    def register(self, address: str, stake: int) -> Validator:
        """Stake ``stake`` wei; requires at least the 32-ETH minimum."""
        if stake < self.stake_requirement:
            raise ValueError(
                f"validators must stake at least {self.stake_requirement} base units"
            )
        if address in self.validators:
            raise ValueError(f"{address} is already a validator")
        validator = Validator(address=address, stake=stake)
        self.validators[address] = validator
        return validator

    def active(self) -> list[Validator]:
        """Validators eligible for duties, in stable order."""
        return sorted(self.validators.values(), key=lambda v: v.address)

    def draw_inputs(self) -> tuple:
        """Everything a slot's proposer and committee draw reads besides
        its seed: the committee size and each validator's address and
        stake, as atoms."""
        return self.committee_size, tuple((v.address, v.stake) for v in self.validators.values())

    def select_proposer(self, seed: bytes) -> Validator:
        """Pick the slot's block proposer, seeded by the chain randomness."""
        eligible = self.active()
        if not eligible:
            raise RuntimeError("no active validators")
        rng = random.Random(seed)
        proposer = rng.choice(eligible)
        proposer.blocks_proposed += 1
        return proposer

    def select_committee(self, seed: bytes, exclude: str | None = None) -> list[Validator]:
        """Pick the attestation committee for a slot."""
        eligible = [v for v in self.active() if v.address != exclude]
        if not eligible:
            return []
        rng = random.Random(seed + b"committee")
        size = min(self.committee_size, len(eligible))
        return rng.sample(eligible, size)

    def attest(self, committee: list[Validator], block_number: int) -> list[Attestation]:
        """Committee votes for the proposal (every block is valid)."""
        votes = []
        for member in committee:
            member.attestations += 1
            votes.append(Attestation(validator=member.address, block_number=block_number))
        return votes

    def total_stake(self) -> int:
        """Sum of active stake."""
        return sum(v.stake for v in self.active())
