"""Merkle trees for block transaction roots and proof batching.

Both chain simulators commit to their block's transaction list with a
Merkle root (``Block.tx_root``), and the proof batching layer
(``repro.core.batch``) anchors batches of location proofs as a single
on-chain root that provers light-verify their inclusion paths against.

The construction is *unbalanced* (promote-the-odd-node): an odd node at
any level is carried up unchanged instead of being paired with a copy
of itself.  Bitcoin's duplicate-last-node construction (the
CVE-2012-2459 class) makes ``[A, B, C]`` and ``[A, B, C, C]`` commit to
the same root, so two different proof sets verify against one anchored
commitment -- fatal once roots anchor batches of signed location
proofs.  Promotion makes the leaf list injective into the root (up to
hash collisions): ``[A, B, C]`` hashes ``H(H(A,B), leaf(C))`` while
``[A, B, C, C]`` hashes ``H(H(A,B), H(leaf(C),leaf(C)))``, and the
leaf/node domain separation keeps the two from colliding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import tagged_hash

_LEAF_TAG = "repro/merkle-leaf"
_NODE_TAG = "repro/merkle-node"

EMPTY_ROOT = tagged_hash(_NODE_TAG, b"")


@dataclass(frozen=True, slots=True)
class MerkleProof:
    """An inclusion path: sibling hashes from leaf to root.

    Each step is ``(sibling_digest, sibling_is_right)``.  The proof
    binds its position: ``leaf_index`` and ``leaf_count`` determine, at
    every level of the unbalanced tree, whether the running node is a
    left child (sibling to the right), a right child (sibling to the
    left), or the promoted odd node (no sibling, no path step) --
    :meth:`verify` checks the path's direction bits against that
    structure, so a valid proof cannot be replayed under a different
    claimed index or tree width.
    """

    leaf_index: int
    path: tuple[tuple[bytes, bool], ...]
    leaf_count: int

    def verify(self, leaf_data: bytes, root: bytes) -> bool:
        """Return True iff ``leaf_data`` hashes up to ``root`` along this
        path *and* the path's shape matches ``leaf_index``/``leaf_count``."""
        if self.leaf_count < 1 or not 0 <= self.leaf_index < self.leaf_count:
            return False
        digest = tagged_hash(_LEAF_TAG, leaf_data)
        position, width = self.leaf_index, self.leaf_count
        step = 0
        while width > 1:
            if position == width - 1 and width % 2:
                # The promoted odd node: carried up, no sibling consumed.
                position //= 2
            else:
                if step >= len(self.path):
                    return False
                sibling, sibling_is_right = self.path[step]
                if sibling_is_right != (position % 2 == 0):
                    return False  # direction bit contradicts the claimed index
                if sibling_is_right:
                    digest = tagged_hash(_NODE_TAG, digest, sibling)
                else:
                    digest = tagged_hash(_NODE_TAG, sibling, digest)
                position //= 2
                step += 1
            width = width // 2 + width % 2
        return step == len(self.path) and digest == root


class MerkleTree:
    """A binary Merkle tree over an ordered list of byte strings.

    Odd levels promote the trailing node unchanged (see the module
    docstring for why duplication is malleable), and leaves are
    domain-separated from internal nodes so a 64-byte leaf cannot be
    confused with a node pair.
    """

    def __init__(self, leaves: list[bytes]):
        self._leaves = list(leaves)
        self._levels: list[list[bytes]] = []
        self._build()

    def _build(self) -> None:
        if not self._leaves:
            self._levels = [[EMPTY_ROOT]]
            return
        level = [tagged_hash(_LEAF_TAG, leaf) for leaf in self._leaves]
        self._levels = [level]
        while len(level) > 1:
            paired = [
                tagged_hash(_NODE_TAG, level[i], level[i + 1])
                for i in range(0, len(level) - 1, 2)
            ]
            if len(level) % 2:
                paired.append(level[-1])
            level = paired
            self._levels.append(level)

    @property
    def root(self) -> bytes:
        """The 32-byte Merkle root (a fixed sentinel for an empty tree)."""
        return self._levels[-1][0]

    def __len__(self) -> int:
        return len(self._leaves)

    def proof(self, index: int) -> MerkleProof:
        """Build an inclusion proof for the leaf at ``index``."""
        if not 0 <= index < len(self._leaves):
            raise IndexError("leaf index out of range")
        path: list[tuple[bytes, bool]] = []
        position = index
        for level in self._levels[:-1]:
            width = len(level)
            if position == width - 1 and width % 2:
                # Promoted odd node: skips this level without a sibling.
                position //= 2
                continue
            if position % 2 == 0:
                path.append((level[position + 1], True))
            else:
                path.append((level[position - 1], False))
            position //= 2
        return MerkleProof(leaf_index=index, path=tuple(path), leaf_count=len(self._leaves))


def merkle_root(leaves: list[bytes]) -> bytes:
    """Convenience: the root of :class:`MerkleTree` over ``leaves``."""
    return MerkleTree(leaves).root
