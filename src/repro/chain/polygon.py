"""Polygon: a layer-2 parametrization of the EVM chain.

The thesis treats Polygon as "an overlay network that improves some
aspects of the Ethereum blockchain ... low fees and high transactions
per second" (section 1.4.1.4).  We model it as the same EVM engine with
the Mumbai profile (2 s blocks, gwei-scale fees, its own congestion
process).
"""

from __future__ import annotations

from repro.simnet import EventQueue
from repro.chain.ethereum.chain import EthereumChain
from repro.chain.params import NetworkProfile


class PolygonChain(EthereumChain):
    """The EVM chain on the Mumbai profile."""

    def __init__(
        self,
        profile: NetworkProfile | str = "polygon-mumbai",
        queue: EventQueue | None = None,
        seed: int = 0,
        validator_count: int = 16,
    ):
        super().__init__(profile=profile, queue=queue, seed=seed, validator_count=validator_count)
