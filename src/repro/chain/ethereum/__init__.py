"""Ethereum-style chain: EVM, Yellow-Paper gas schedule, EIP-1559, PoS.

Names load with their module on first use, so a process that only runs
the EVM (the lint gate's model checker) imports no chain or validators.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.chain.ethereum.chain import EthereumChain
    from repro.chain.ethereum.evm import EVM, EvmContract, Instr, VMError, VMRevert
    from repro.chain.ethereum.gas import GasSchedule, intrinsic_gas

_HOMES = {
    "EthereumChain": "chain",
    "EVM": "evm",
    "EvmContract": "evm",
    "Instr": "evm",
    "VMError": "evm",
    "VMRevert": "evm",
    "GasSchedule": "gas",
    "intrinsic_gas": "gas",
}

__all__ = list(_HOMES)


def __getattr__(name: str) -> Any:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value
