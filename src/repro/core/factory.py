"""The factory pattern for per-location contracts (thesis section 2.4.1).

"The idea of the factory pattern is to have a contract (the factory)
that will carry the mission of creating other contracts ... spawning
instances using a single template."  The benefits the thesis lists all
hold here:

- *trust*: every instance is created from ONE registered template (the
  code hash is registered on-chain exactly once, so users audit one
  artifact);
- *gas saving*: the template's code registration is amortized across
  instances;
- *tracking*: the factory records every spawned instance and its
  location, so deployments can be monitored and enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.base import Account, BaseChain
from repro.reach.compiler import CompiledContract
from repro.reach.runtime import DeployedContract, OpHandle, ReachClient


class FactoryError(Exception):
    """Instance creation or lookup failure."""


@dataclass
class ContractFactory:
    """Spawns PoL contract instances from one audited template."""

    chain: BaseChain
    template: CompiledContract
    client: ReachClient = None  # type: ignore[assignment]
    instances: dict[str, DeployedContract] = field(default_factory=dict)  # olc -> instance
    pending: dict[str, OpHandle] = field(default_factory=dict)  # olc -> in-flight deploy

    def __post_init__(self) -> None:
        if self.client is None:
            self.client = ReachClient(self.chain)

    def instance_for(self, olc: str) -> DeployedContract | None:
        """The live instance for a location, if any."""
        return self.instances.get(olc.upper())

    def pending_deploy_for(self, olc: str) -> OpHandle | None:
        """The in-flight deploy for a location, if one is pipelined."""
        return self.pending.get(olc.upper())

    def deploy_instance(self, olc: str, creator: Account, did: int, data: str) -> DeployedContract:
        """Spawn the per-location instance (one contract per area).

        The creator is the first prover that arrives at a location with
        no existing contract (figure 2.3).
        """
        return self.deploy_instance_async(olc, creator, did, data).wait().value

    def deploy_instance_async(self, olc: str, creator: Account, did: int, data: str) -> OpHandle:
        """Start the per-location deploy without blocking.

        The location is *reserved* at submission time, so pipelined
        provers racing to the same fresh location observe the pending
        deploy (and attach behind it) instead of double-deploying --
        duplicate-contract safety no longer depends on serializing the
        whole ceremony.
        """
        olc = olc.upper()
        if olc in self.instances:
            raise FactoryError(f"location {olc} already has contract {self.instances[olc].ref}")
        if olc in self.pending:
            raise FactoryError(f"location {olc} already has a deploy in flight")
        handle = self.client.deploy_async(self.template, creator, [olc, did, data])
        self.pending[olc] = handle
        handle.add_done_callback(lambda settled: self._deploy_settled(olc, settled))
        return handle

    def _deploy_settled(self, olc: str, handle: OpHandle) -> None:
        self.pending.pop(olc, None)
        if handle.error is None:
            self.instances[olc] = handle.value

    def all_instances(self) -> list[tuple[str, str]]:
        """Every (location, contract id) the factory has spawned."""
        return sorted((olc, deployed.ref) for olc, deployed in self.instances.items())

    def __len__(self) -> int:
        return len(self.instances)
