"""The IPFS peer network: block stores and provider records.

"The IPFS is built through the use of a DHT which is used to map each
Content IDentifier to the IP address of the owner" (section 1.5).  The
provider index here plays that DHT's role; fetching re-verifies the
content against its CID (self-certification), so a malicious host
cannot substitute data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ipfs.cid import CidError, compute_cid, verify_cid


class ContentNotAvailable(Exception):
    """No reachable node hosts this CID (the unhosted-data drawback)."""


@dataclass(slots=True)
class IpfsNode:
    """One peer: a block store."""

    node_id: str
    blocks: dict[str, bytes] = field(default_factory=dict)

    def put(self, content: bytes, cid: str | None = None) -> str:
        """Store a block locally; returns its CID.

        ``cid`` is the block's CID when the caller has just verified it
        (a replica of a fetched block), so it is not derived again.
        """
        if cid is None:
            cid = compute_cid(content)
        self.blocks[cid] = content
        return cid

    def get(self, cid: str) -> bytes | None:
        """Local fetch."""
        return self.blocks.get(cid)


@dataclass
class IpfsNetwork:
    """The swarm: peers plus the provider index.

    A CID's provider record is a tuple of node ids in name order, the
    order :meth:`get` tries them in.
    """

    nodes: dict[str, IpfsNode] = field(default_factory=dict)
    providers: dict[str, tuple[str, ...]] = field(default_factory=dict)
    fetches: int = 0

    def add_node(self, node_id: str) -> IpfsNode:
        """Join a new peer."""
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already exists")
        node = IpfsNode(node_id=node_id)
        self.nodes[node_id] = node
        return node

    def add(self, node_id: str, content: bytes) -> str:
        """Upload content from a peer and announce the provider record."""
        cid = self.nodes[node_id].put(content)
        self._announce(cid, node_id)
        return cid

    def get(self, cid: str) -> bytes:
        """Fetch by CID from the first provider holding valid content.

        Providers are tried in name order, so the outcome never depends
        on hash order.  A provider that no longer holds the block, or
        whose block fails its CID, leaves the provider record.
        Raises :class:`CidError` when no provider had valid content and
        at least one returned corrupted content, else
        :class:`ContentNotAvailable` -- the persistence gap the thesis
        notes.
        """
        self.fetches += 1
        providers = self.providers.get(cid, ())
        corrupted: list[str] = []
        for tried, provider_id in enumerate(providers):
            node = self.nodes.get(provider_id)
            content = node.get(cid) if node is not None else None
            if content is not None and verify_cid(content, cid):
                if tried:
                    self.providers[cid] = providers[tried:]
                return content
            if content is not None:
                corrupted.append(provider_id)
        if providers:
            self.providers[cid] = ()
        if corrupted:
            raise CidError(f"provider(s) {', '.join(corrupted)} returned corrupted content for {cid}")
        raise ContentNotAvailable(cid)

    def replicate(self, cid: str, to_node_id: str) -> None:
        """Copy a block to another peer (how popular data survives)."""
        content = self.get(cid)
        self.nodes[to_node_id].put(content, cid)
        self._announce(cid, to_node_id)

    def _announce(self, cid: str, node_id: str) -> None:
        providers = self.providers.get(cid, ())
        if node_id not in providers:
            self.providers[cid] = tuple(sorted((*providers, node_id)))
