"""Blockchain substrate: Ethereum-, Polygon- and Algorand-style chains.

The thesis evaluates one Reach contract on three live networks (Goerli,
Polygon Mumbai, Algorand testnet).  This package provides in-process
simulators for all three, sharing common account/transaction/block
machinery (:mod:`repro.chain.base`) but with genuinely different
execution engines and consensus:

- :mod:`repro.chain.ethereum` -- an EVM-style stack VM with the
  Yellow-Paper gas schedule, EIP-1559 base-fee dynamics and
  proof-of-stake slot/committee consensus.
- :mod:`repro.chain.polygon` -- a layer-2 parametrization of the EVM
  chain (2 s blocks, low fees).
- :mod:`repro.chain.algorand` -- an AVM/TEAL-style VM with Pure
  Proof-of-Stake: VRF sortition of leader + committee, immediate
  finality, flat minimum fees.
"""

from repro.chain.base import (
    Account,
    Block,
    BaseChain,
    ChainError,
    InsufficientFunds,
    InvalidTransaction,
    Receipt,
    Transaction,
    TransientChainError,
    TxHandle,
    TxState,
    TxStatus,
    drive,
)
from repro.chain.params import NetworkProfile, PROFILES
from repro.chain.service import ChainService, ManagedTxHandle


def make_chain(network: str, seed: int = 0, recorder=None) -> BaseChain:
    """Instantiate the simulator for a named testnet profile.

    The only place the chain *class* is picked: everything above (the
    Reach runtime, the PoL core, the bench harness) is family-agnostic.
    Passing a :class:`repro.obs.Recorder` attaches it to the chain's
    event queue, so every layer's instrumentation lands in one sink.
    Only the profile's family is imported.
    """
    from repro.simnet import EventQueue

    profile = PROFILES[network]
    queue = EventQueue(recorder=recorder)
    if network.startswith("polygon"):
        from repro.chain.polygon import PolygonChain

        return PolygonChain(profile=profile, queue=queue, seed=seed, validator_count=8)
    if profile.family == "evm":
        from repro.chain.ethereum.chain import EthereumChain

        return EthereumChain(profile=profile, queue=queue, seed=seed, validator_count=8)
    from repro.chain.algorand.chain import AlgorandChain

    return AlgorandChain(profile=profile, queue=queue, seed=seed, participant_count=10)


__all__ = [
    "Account",
    "Block",
    "BaseChain",
    "ChainError",
    "ChainService",
    "InsufficientFunds",
    "InvalidTransaction",
    "ManagedTxHandle",
    "Receipt",
    "Transaction",
    "TransientChainError",
    "TxHandle",
    "TxState",
    "TxStatus",
    "NetworkProfile",
    "PROFILES",
    "drive",
    "make_chain",
]
