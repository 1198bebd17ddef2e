"""Algorand-style chain: AVM/TEAL execution + Pure Proof-of-Stake.

Names load with their module on first use, so a process that only runs
the AVM (the lint gate's model checker) imports no chain or sortition.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.chain.algorand.avm import AVM, Application, AvmError, AvmPanic
    from repro.chain.algorand.chain import AlgorandChain
    from repro.chain.algorand.consensus import Sortition, sortition_seats
    from repro.chain.algorand.teal import TealProgram, assemble

_HOMES = {
    "AVM": "avm",
    "Application": "avm",
    "AvmError": "avm",
    "AvmPanic": "avm",
    "AlgorandChain": "chain",
    "TealProgram": "teal",
    "assemble": "teal",
    "Sortition": "consensus",
    "sortition_seats": "consensus",
}

__all__ = list(_HOMES)


def __getattr__(name: str) -> Any:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value
