"""The Tree-Graph: a block DAG with GHOST pivot-chain selection.

Conflux's consensus records *every* mined block: each block has one
parent edge (building a tree) plus referee edges to otherwise-orphaned
tips (making a DAG).  The canonical "pivot" chain follows, from the
genesis down, the child whose subtree is heaviest (GHOST); all blocks
are then serialized epoch by epoch.  Concurrent blocks therefore add
security weight instead of being wasted as stale forks -- the property
that lets Conflux run sub-second block intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class TreeGraphError(Exception):
    """Malformed DAG operation."""


@dataclass
class DagBlock:
    """One block in the Tree-Graph."""

    block_id: str
    parent: str | None
    referees: tuple[str, ...] = ()
    miner: str = ""
    timestamp: float = 0.0


@dataclass
class GhostDag:
    """The DAG plus GHOST pivot computation."""

    blocks: dict[str, DagBlock] = field(default_factory=dict)
    children: dict[str, list[str]] = field(default_factory=dict)
    genesis_id: str = "genesis"

    def __post_init__(self) -> None:
        if self.genesis_id not in self.blocks:
            self.blocks[self.genesis_id] = DagBlock(block_id=self.genesis_id, parent=None)
            self.children[self.genesis_id] = []

    def add_block(self, block_id: str, parent: str, referees: tuple[str, ...] = (), miner: str = "", timestamp: float = 0.0) -> DagBlock:
        """Append a mined block under ``parent``, refereeing other tips."""
        if block_id in self.blocks:
            raise TreeGraphError(f"block {block_id} already in the DAG")
        if parent not in self.blocks:
            raise TreeGraphError(f"parent {parent} unknown")
        for referee in referees:
            if referee not in self.blocks:
                raise TreeGraphError(f"referee {referee} unknown")
        block = DagBlock(block_id=block_id, parent=parent, referees=tuple(referees), miner=miner, timestamp=timestamp)
        self.blocks[block_id] = block
        self.children[block_id] = []
        self.children[parent].append(block_id)
        return block

    def subtree_weight(self, block_id: str) -> int:
        """Number of blocks in the subtree rooted at ``block_id``."""
        weight = 0
        stack = [block_id]
        while stack:
            current = stack.pop()
            weight += 1
            stack.extend(self.children[current])
        return weight

    def pivot_chain(self) -> list[str]:
        """The GHOST rule: from genesis, always descend into the
        heaviest subtree (ties break on lexicographic block id for
        determinism)."""
        chain = [self.genesis_id]
        current = self.genesis_id
        while self.children[current]:
            current = max(self.children[current], key=lambda c: (self.subtree_weight(c), c))
            chain.append(current)
        return chain

    def tips(self) -> list[str]:
        """Blocks with no children (candidates for referee edges)."""
        return sorted(block_id for block_id, kids in self.children.items() if not kids)

    def __len__(self) -> int:
        return len(self.blocks)
