"""A hypercube node and the record format it stores.

Each node is responsible for a keyword set; the content of a node is
the record of thesis figure 2.9: the contract/application ID deployed
for a location, the Open Location Code, and the array of CIDs the
verifier appends after validation (the "garbage-in" gate).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class NodeContent:
    """One stored record (figure 2.9)."""

    contract_id: str
    olc: str
    cids: list[str] = field(default_factory=list)



@dataclass
class HypercubeNode:
    """One of the 2**r logical nodes."""

    node_id: int
    r: int
    storage: dict[str, NodeContent] = field(default_factory=dict)
    online: bool = True
    lookups_served: int = 0
    lookups_forwarded: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.node_id < (1 << self.r):
            raise ValueError(f"node id {self.node_id} out of range for r={self.r}")

    def neighbours(self) -> list[int]:
        """IDs of the r adjacent nodes (one flipped bit each)."""
        return [self.node_id ^ (1 << bit) for bit in range(self.r)]

    def store(self, keyword: str, content: NodeContent) -> None:
        """Store a record under a keyword this node is responsible for."""
        self.storage[keyword] = content

    def retrieve(self, keyword: str) -> NodeContent | None:
        """Local lookup."""
        return self.storage.get(keyword)
