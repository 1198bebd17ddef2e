"""A blockchain-agnostic smart-contract language (a Reach work-alike).

The thesis's headline tooling claim is that *one* contract source can
run on Ethereum, Polygon and Algorand: "Reach is blockchain agnostic:
it is possible to run a Decentralized Application in different
blockchains without code change" (section 2.9.3).  This package
reproduces that pipeline end to end:

- :mod:`repro.reach.types` / :mod:`repro.reach.ast` -- the surface
  language: ``Participant``, ``API``, ``View``, ``Map``,
  ``parallelReduce``, ``publish``/``commit``, ``transfer``.
- :mod:`repro.reach.compiler` -- lowers a program to a flat IR.
- :mod:`repro.reach.backends.evm` -- IR to EVM instructions.
- :mod:`repro.reach.backends.teal` -- IR to TEAL source text.
- :mod:`repro.reach.absint` -- the one static checker: the lint gate
  every deploy path reads (balance safety, cost bounds, cross-backend
  equivalence, model-checked token conservation and phase progress),
  whose report renders the ``Checked N theorems`` banner of figures
  2.11 and 5.1.
- :mod:`repro.reach.runtime` -- deploy/attach/API-call adapters for the
  chain simulators, reproducing the per-network transaction counts the
  evaluation measured.  :class:`ReachClient` is the one client surface:
  the chapter-5 campaigns, the system facade and the repository
  benchmark all deploy and call contracts through it.
"""

from repro.reach.types import UInt, Bytes, Address, Fun
from repro.reach.ast import (
    Program,
    Participant,
    ApiGroup,
    ApiMethod,
    Phase,
    Map,
    arg,
    balance,
    caller,
    const,
    glob,
    pay_amount,
)
from repro.reach.compiler import compile_program, CompiledContract
from repro.reach.parser import parse_contract, parse_contract_file, ParseError
from repro.reach.runtime import ReachClient, DeployedContract

__all__ = [
    "UInt",
    "Bytes",
    "Address",
    "Fun",
    "Program",
    "Participant",
    "ApiGroup",
    "ApiMethod",
    "Phase",
    "Map",
    "arg",
    "balance",
    "caller",
    "const",
    "glob",
    "pay_amount",
    "compile_program",
    "CompiledContract",
    "parse_contract",
    "parse_contract_file",
    "ParseError",
    "ReachClient",
    "DeployedContract",
]
