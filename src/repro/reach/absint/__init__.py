"""Abstract interpretation over the compiled contract IR.

The one static checker: a worklist fixpoint engine over
basic-block CFGs (:mod:`engine`, :mod:`cfg`) with constant-propagation
and interval domains (:mod:`domains`), and three analyses on top:

- :mod:`cost` -- path-sensitive per-entry-point cost bounds: EVM gas
  intervals from the Yellow-Paper schedule and AVM opcode-budget
  intervals, tight enough for the bench layer to assert measured
  receipts against;
- :mod:`balance` -- interval tracking of the contract balance proving
  every ``transfer`` is funded by a dominating guard;
- :mod:`equiv` -- differential execution of the emitted EVM code and
  TEAL over shared IR-derived vectors, diffing observable effects;
- :mod:`modelcheck` -- bounded explicit-state protocol model checking:
  both artifacts executed over every adversarial interleaving (replays,
  front-run anchors, clock rushes, silent participants), proving the
  ``MC-SAFETY-*``/``MC-LIVE-*`` theorems or minimizing an ``MC-CEX``.

:mod:`lint` aggregates everything into the findings report behind the
``repro lint`` CLI, the runtime's deploy gate and the ``Checked N
theorems`` banner.
"""

from repro.reach.absint.balance import BalanceReport, analyze_balance
from repro.reach.absint.cost import CostReport, EntryCost, analyze_costs
from repro.reach.absint.domains import AbsVal, Interval
from repro.reach.absint.equiv import check_equivalence, drop_teal_store, neutralize_evm_sstore
from repro.reach.absint.lint import Finding, LintReport, lint_compiled
from repro.reach.absint.modelcheck import (
    MCConfig,
    ProtocolReport,
    check_protocol,
    weaken_replay_screen,
)

__all__ = [
    "AbsVal",
    "BalanceReport",
    "CostReport",
    "EntryCost",
    "Finding",
    "Interval",
    "LintReport",
    "MCConfig",
    "ProtocolReport",
    "analyze_balance",
    "analyze_costs",
    "check_equivalence",
    "check_protocol",
    "drop_teal_store",
    "lint_compiled",
    "neutralize_evm_sstore",
    "weaken_replay_screen",
]
