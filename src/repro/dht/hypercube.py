"""The hypercube DHT: routing, storage, and location-keyed records.

Keywords are Open Location Codes; the responsible node is selected by
the dual encoding of figure 1.3 (OLC -> r-bit string -> node key).
Look-ups route greedily along one-bit-different neighbours, so any
content is located within ``r`` hops -- the property the thesis credits
for fast queries (section 1.3).  Reads may start at any node; writes
route from node 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geo.rbit import olc_to_rbit, rbit_to_int
from repro.dht.node import HypercubeNode, NodeContent
from repro.obs.prof import staged
from repro.obs.recorder import NULL_RECORDER, NullRecorder


class HypercubeError(Exception):
    """Routing or storage failure."""


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a routed lookup."""

    found: bool
    content: NodeContent | None
    hops: int
    path: tuple[int, ...]


@dataclass
class HypercubeDHT:
    """A 2**r-node hypercube keyed by Open Location Codes.

    ``replication`` > 0 mirrors every record onto that many one-bit
    neighbours of the responsible node; look-ups fall back to the
    replicas when the responsible node is offline, so losing a node
    does not lose its locations (the decentralization argument of
    section 2.5, made concrete).
    """

    r: int = 8
    replication: int = 0
    nodes: dict[int, HypercubeNode] = field(default_factory=dict)
    #: records healed by read-repair (see :meth:`_heal`).
    read_repairs: int = 0
    recorder: NullRecorder = NULL_RECORDER

    def __post_init__(self) -> None:
        if not 1 <= self.r <= 24:
            raise ValueError("r must be between 1 and 24")
        if not 0 <= self.replication <= self.r:
            raise ValueError("replication cannot exceed the node degree r")
        if not self.nodes:
            self.nodes = {i: HypercubeNode(node_id=i, r=self.r) for i in range(1 << self.r)}

    def __len__(self) -> int:
        return len(self.nodes)

    # -- keyword addressing ----------------------------------------------------

    def responsible_node(self, olc: str) -> HypercubeNode:
        """The node whose keyword set covers this location."""
        return self.nodes[rbit_to_int(olc_to_rbit(olc, self.r))]

    def replica_nodes(self, olc: str) -> list[HypercubeNode]:
        """The responsible node's replicas (its first ``replication``
        one-bit neighbours, a deterministic placement everyone derives)."""
        primary = self.responsible_node(olc)
        return [self.nodes[n] for n in primary.neighbours()[: self.replication]]

    def set_online(self, node_id: int, online: bool) -> None:
        """Take a node off the network (or bring it back)."""
        self.nodes[node_id].online = online

    # -- routing ------------------------------------------------------------------

    def route(self, origin_id: int, target_id: int, max_hops: int | None = None) -> list[int]:
        """Greedy bit-fixing path from origin to target (inclusive).

        Offline nodes do not forward: routing detours through an
        alternate one-bit-differing neighbour (any differing bit still
        strictly reduces the Hamming distance, so the path length is
        unchanged) and raises :class:`HypercubeError` when every live
        candidate is down.  The target itself may be offline -- the
        caller (``lookup``) handles endpoint fallback to replicas.

        Raises :class:`HypercubeError` if the hop budget is exceeded --
        the bounded-query mechanism of the thesis's section 1.3.
        """
        if origin_id not in self.nodes or target_id not in self.nodes:
            raise HypercubeError("origin or target outside the hypercube")
        budget = max_hops if max_hops is not None else self.r
        path = [origin_id]
        current = self.nodes[origin_id]
        while current.node_id != target_id:
            if len(path) - 1 >= budget:
                raise HypercubeError(
                    f"hop budget {budget} exhausted routing {origin_id} -> {target_id}"
                )
            next_id = self._next_live_hop(current, target_id)
            if next_id is None:
                raise HypercubeError(
                    f"no online route from {current.node_id} toward {target_id}"
                )
            current.lookups_forwarded += 1
            current = self.nodes[next_id]
            path.append(current.node_id)
        return path

    def _next_live_hop(self, current: HypercubeNode, target_id: int) -> int | None:
        """The preferred live next hop, or None if all candidates are down.

        Tries the greedy highest-differing-bit neighbour first (the
        unfaulted path, byte-identical to plain bit-fixing when every
        node is up), then the remaining differing bits as detours.
        """
        difference = current.node_id ^ target_id
        for bit in range(difference.bit_length() - 1, -1, -1):
            if not difference & (1 << bit):
                continue
            candidate = current.node_id ^ (1 << bit)
            if candidate == target_id or self.nodes[candidate].online:
                return candidate
        return None

    # -- public API (figure 2.3 / section 2.5 flows) ---------------------------------

    @staged("dht.op")
    def lookup(self, olc: str, origin_id: int = 0) -> LookupResult:
        """Route to the responsible node and fetch the record for ``olc``.

        Falls back to the replicas (one extra hop each: they are direct
        neighbours) when the responsible node is offline.
        """
        target = self.responsible_node(olc)
        path = self.route(origin_id, target.node_id)
        if self.replication > 0:
            self._heal(olc.upper())
        if target.online:
            target.lookups_served += 1
            content = target.retrieve(olc.upper())
            return LookupResult(found=content is not None, content=content, hops=len(path) - 1, path=tuple(path))
        for replica in self.replica_nodes(olc):
            if not replica.online:
                continue  # skipped replicas are never contacted: no hop cost
            replica.lookups_served += 1
            content = replica.retrieve(olc.upper())
            return LookupResult(
                found=content is not None,
                content=content,
                hops=len(path),  # the serving replica is one hop off the target
                path=tuple(path) + (replica.node_id,),
            )
        raise HypercubeError(
            f"node {target.node_id} and all {self.replication} replicas are offline for {olc}"
        )

    def _heal(self, olc_key: str) -> None:
        """Read-repair: converge the online copies of one record.

        A write that lands while a holder (primary or replica) is
        offline leaves that holder stale or empty when it comes back.
        On every replicated lookup the online holders merge their CID
        lists (union, first-seen order) and missing copies are
        re-stored, so availability gaps heal on the read path instead
        of silently diverging -- the churn-tolerance MobChain and the
        P2P PoL line of work treat as table stakes.
        """
        holders = [self.responsible_node(olc_key)] + self.replica_nodes(olc_key)
        online = [node for node in holders if node.online]
        records = [(node, node.retrieve(olc_key)) for node in online]
        present = [record for _, record in records if record is not None]
        if not present:
            return  # nothing survives online; nothing to heal from
        merged: list[str] = []
        for record in present:
            for cid in record.cids:
                if cid not in merged:
                    merged.append(cid)
        contract_id = present[0].contract_id
        healed = 0
        for node, record in records:
            if record is None:
                node.store(olc_key, NodeContent(contract_id=contract_id, olc=olc_key, cids=list(merged)))
                healed += 1
            elif record.cids != merged:
                record.cids[:] = merged
                healed += 1
        if healed:
            self.read_repairs += healed
            if self.recorder.enabled:
                self.recorder.counter("dht_read_repairs_total", value=float(healed))

    def _write_targets(self, olc: str) -> list[HypercubeNode]:
        """Primary + replicas, skipping offline nodes (writes still land
        on the surviving copies)."""
        targets = [self.responsible_node(olc)] + self.replica_nodes(olc)
        online = [node for node in targets if node.online]
        if not online:
            raise HypercubeError(f"no online node can store {olc}")
        return online

    @staged("dht.op")
    def register_contract(self, olc: str, contract_id: str) -> LookupResult:
        """Insert the contract-ID record for a location (figure 2.3).

        The prover that deploys a new contract stores its ID so later
        provers at the same location attach instead of redeploying.
        """
        olc = olc.upper()
        target = self.responsible_node(olc)
        path = self.route(0, target.node_id)
        writers = self._write_targets(olc)
        existing = next((node.retrieve(olc) for node in writers if node.retrieve(olc) is not None), None)
        if existing is not None and existing.contract_id != contract_id:
            raise HypercubeError(f"location {olc} already has contract {existing.contract_id}")
        for node in writers:
            if node.retrieve(olc) is None:
                node.store(olc, NodeContent(contract_id=contract_id, olc=olc))
        content = writers[0].retrieve(olc)
        return LookupResult(found=True, content=content, hops=len(path) - 1, path=tuple(path))

    @staged("dht.op")
    def append_cid(self, olc: str, cid: str) -> LookupResult:
        """The verifier's garbage-in insert: append a validated CID."""
        olc = olc.upper()
        target = self.responsible_node(olc)
        path = self.route(0, target.node_id)
        writers = self._write_targets(olc)
        if all(node.retrieve(olc) is None for node in writers):
            raise HypercubeError(f"no contract registered for location {olc}")
        content = None
        for node in writers:
            record = node.retrieve(olc)
            if record is None:
                continue
            if cid not in record.cids:
                record.cids.append(cid)
            content = record
        return LookupResult(found=True, content=content, hops=len(path) - 1, path=tuple(path))

    # -- statistics -----------------------------------------------------------------

    def replication_health(self) -> int | None:
        """The worst-case live copy count across every stored location.

        For each distinct stored key, counts how many of its designated
        holders (primary + replicas) are online *and* actually hold the
        record; returns the minimum over all keys, or ``None`` when
        nothing is stored yet.  The watchtower samples this into the
        ``dht-replication`` SLO: a crash that drops a location below the
        replication floor shows up here until read-repair heals it.
        """
        keys: set[str] = set()
        for node in self.nodes.values():
            keys.update(node.storage)
        worst: int | None = None
        for olc in keys:
            holders = [self.responsible_node(olc)] + self.replica_nodes(olc)
            live = sum(1 for node in holders if node.online and olc in node.storage)
            if worst is None or live < worst:
                worst = live
        return worst
