"""Workload generation (thesis sections 4.3 and 5.1).

The evaluation "tested the smart contract architecture with different
numbers of users: 8, 16, 24, and 32, and ... the corresponding numbers
of smart contracts: 2, 4, 6, and 8", four users per contract (creator
included), deployed over eight fixed Open Location Codes.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the eight deployment positions of section 5.1.2
THESIS_LOCATIONS = (
    "7H369F4W+Q8",
    "7H369F4W+Q9",
    "7H368FRV+FM",
    "7H368FWV+X6",
    "7H367FWH+9J",
    "7H368F5R+4V",
    "7H369FXP+FH",
    "7H369F2W+3R",
)

USERS_PER_CONTRACT = 4


@dataclass(frozen=True)
class ProverSpec:
    """One simulated prover: identity, location and role."""

    name: str
    did: int
    olc: str
    is_creator: bool


def generate_workload(user_count: int) -> list[ProverSpec]:
    """The thesis's generateProvers(): N provers over N/4 contracts.

    The first user at each location is that contract's creator; the
    following three are attachers, mirroring "every smart contract must
    have four users attached to it (contract creator included)".
    """
    if user_count < 1:
        raise ValueError("need at least one user")
    contract_count = (user_count + USERS_PER_CONTRACT - 1) // USERS_PER_CONTRACT
    if contract_count > len(THESIS_LOCATIONS):
        raise ValueError(
            f"{user_count} users need {contract_count} locations; "
            f"the thesis workload defines {len(THESIS_LOCATIONS)}"
        )
    provers = []
    for index in range(user_count):
        location_index = index // USERS_PER_CONTRACT
        provers.append(
            ProverSpec(
                name=f"prover-{index}",
                did=1_000 + index,
                olc=THESIS_LOCATIONS[location_index],
                is_creator=index % USERS_PER_CONTRACT == 0,
            )
        )
    return provers
