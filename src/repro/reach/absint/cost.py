"""Path-sensitive cost bounds per on-chain entry point.

For each entry point the analysis walks the *generated artifacts* (the
EVM instruction stream and the assembled TEAL), not the IR, so the
bounds price exactly what executes.  Two intervals per entry:

- **EVM gas**: the full receipt bound -- intrinsic calldata gas for the
  transaction payload, the selector-dispatch surcharge the chain
  adapter adds, the min/max VM gas over all successful paths (SLOAD
  warm vs. cold, SSTORE reset vs. set, per-path branches), minus the
  worst-case storage-clearing refund on the lower bound;
- **AVM ops**: dispatch-prefix opcode count (exact, a function of the
  method's position in the dispatch chain) plus min/max body opcodes,
  and the pooled budget transactions that opcode count implies.

The bench layer asserts measured receipts against these intervals, so
they are *sound for successful runs*: every committed call costs at
least ``lo`` and at most ``hi`` gas/ops, provided arguments stay within
the declared encoding caps below (generous for the DID/OLC payloads
the evaluation passes).

:meth:`CostReport.conservative_analysis` renders the same intervals as the
thesis's figure 5.1, Reach's post-verification resource report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from repro.chain.algorand.avm import DEFAULT_OPCODE_BUDGET, MAX_BUDGET_POOL
from repro.chain.algorand.teal import TealProgram, assemble
from repro.chain.ethereum.evm import EVM, EvmCode, Instr, serialize_code
from repro.chain.ethereum.gas import (
    DEFAULT_SCHEDULE,
    GasSchedule,
    code_deposit_gas,
    intrinsic_gas,
)
from repro.reach.absint.cfg import Edge, SuccessorFn, path_bounds
from repro.reach.absint.domains import Interval
from repro.reach.compiler import CompiledContract

#: declared caps on JSON-encoded argument sizes (calldata bytes); the
#: EVM intrinsic-gas upper bound is sound for arguments whose JSON
#: encoding stays within these
UINT_JSON_MAX = 20  # str(2**64 - 1)
ADDRESS_JSON_MAX = 44  # '"0x' + 40 hex chars + '"'
BYTES_JSON_MAX = 258  # 128 raw bytes hex-encoded, or a 256-char string

#: MAPKEY hashes slot32 || enc(key); keys are capped at 96 encoded
#: bytes, so the keccak payload spans at most 4 words
MAPKEY_MIN_WORDS = 2
MAPKEY_MAX_WORDS = 4

#: each logged value is capped at 64 encoded bytes (uints encode to 32)
LOG_VALUE_MAX_BYTES = 64

#: per-parameter-kind (min, max) JSON encoding length
_ARG_JSON_BOUNDS = {
    "uint": (1, UINT_JSON_MAX),
    "address": (2, ADDRESS_JSON_MAX),
    "bytes": (2, BYTES_JSON_MAX),
}


@dataclass(frozen=True)
class EntryCost:
    """Cost intervals for one entry point."""

    name: str
    evm_gas: Interval  # full receipt gas (intrinsic + dispatch + VM - refund)
    teal_ops: Interval  # dispatch prefix + body opcodes
    avm_pool: Interval  # pooled budget transactions implied by teal_ops
    dispatch_index: int  # position in the dispatch chain; -1 for the constructor

    @property
    def within_avm_budget(self) -> bool:
        """Whether the worst case fits the maximum pooled budget."""
        return self.avm_pool.hi is not None and self.avm_pool.hi <= MAX_BUDGET_POOL


@dataclass
class CostReport:
    """Per-entry-point cost intervals for one compiled contract."""

    contract: str
    entries: dict[str, EntryCost]

    @property
    def deploy_ceiling(self) -> int | None:
        """Worst-case gas of the EVM deploy ceremony, create plus publish0
        (None when either is unbounded)."""
        create, publish = self.entries["constructor"].evm_gas.hi, self.entries["publish0"].evm_gas.hi
        return None if create is None or publish is None else create + publish

    def _table(self, units: dict[str, int] | None = None) -> list[str]:
        """Header, one row per entry point (IR units beside the name when
        given) and the AVM pooled-budget warning."""
        units_head = "" if units is None else f" {'units':>6}"
        lines = [f"  {'entry point':34}{units_head} {'EVM gas':>24} {'AVM ops':>16} {'pool':>10}"]
        for entry in self.entries.values():
            units_col = "" if units is None else f" {units[entry.name]:>6}"
            lines.append(
                f"  {entry.name:34}{units_col} {str(entry.evm_gas):>24} "
                f"{str(entry.teal_ops):>16} {str(entry.avm_pool):>10}"
            )
        over = [e.name for e in self.entries.values() if not e.within_avm_budget]
        return lines + ([f"  WARNING: exceeds the AVM pooled budget: {over}"] if over else [])

    def render(self) -> str:
        """A fixed-width table of the bounds."""
        return "\n".join([f"Cost bounds for contract {self.contract!r}", *self._table()])

    def conservative_analysis(self, compiled: CompiledContract) -> str:
        """The figure-5.1 report for the contract these bounds were computed
        from: the lint gate's banner, artifact sizes, and per entry point its
        IR units and the cost intervals."""
        ceiling = self.deploy_ceiling
        lines = [
            f"Conservative analysis of contract {compiled.name!r}",
            f"  verification: {compiled.lint_report().banner()}",
            f"  EVM artifact: {compiled.evm_code.byte_size()} bytes "
            f"(deploy ceiling {'unbounded' if ceiling is None else ceiling} gas: constructor + publish0)",
            f"  TEAL artifact: {assemble(compiled.teal_source).byte_size()} bytes",
            "",
        ]
        units = {name: len(compiled.ir.functions[name].instrs) for name in self.entries}
        return "\n".join(lines + self._table(units))


# -- EVM side ------------------------------------------------------------------


def _evm_successors(instrs: list[Instr]) -> SuccessorFn:
    def successors(index: int) -> list[Edge]:
        instr = instrs[index]
        if instr.op in ("RETURN", "STOP", "REVERT"):
            return []
        if instr.op == "JUMP":
            return [(int(instr.arg), "jump")]
        if instr.op == "JUMPI":
            return [(index + 1, "fall"), (int(instr.arg), "jump")]
        if index + 1 >= len(instrs):
            return []
        return [(index + 1, "fall")]

    return successors


def _evm_cost_of(instrs: list[Instr], schedule: GasSchedule) -> Callable[[int], tuple[int, int]]:
    def cost_of(index: int) -> tuple[int, int]:
        instr = instrs[index]
        op = instr.op
        if op == "SLOAD":
            return (schedule.warm_access, schedule.cold_sload)
        if op == "SSTORE":
            # lo: warm slot, reset; hi: cold slot, zero -> nonzero set
            return (schedule.sreset, schedule.cold_sload + schedule.sset)
        if op in ("MAPKEY", "SHA3"):
            lo = schedule.keccak256 + MAPKEY_MIN_WORDS * schedule.keccak256word
            hi = schedule.keccak256 + MAPKEY_MAX_WORDS * schedule.keccak256word
            return (lo, hi)
        if op == "TRANSFER":
            return (schedule.callvalue, schedule.callvalue)
        if op == "LOG":
            _event, count = instr.arg
            base = schedule.log + schedule.logtopic
            return (base, base + schedule.logdata * LOG_VALUE_MAX_BYTES * count)
        flat = EVM._FLAT_COSTS.get(op)
        if flat is not None:
            value = getattr(schedule, flat)
            return (value, value)
        return (schedule.mid, schedule.mid)

    return cost_of


def _evm_body_bounds(code: EvmCode, entry: int, schedule: GasSchedule) -> tuple[int, int | None]:
    instrs = code.instrs
    return path_bounds(
        len(instrs),
        entry,
        _evm_successors(instrs),
        _evm_cost_of(instrs, schedule),
        terminal_ok=lambda index: instrs[index].op != "REVERT",
    )


def _call_intrinsic_bounds(name: str, params: tuple[str, ...], schedule: GasSchedule) -> tuple[int, int]:
    """Intrinsic-gas interval for a method-call payload.

    The chain adapter prices ``json.dumps({"selector": ..., "args":
    [...]})`` as calldata; JSON text has no zero bytes, so every byte
    costs ``G_txdatanonzero``.
    """
    base = len(json.dumps({"selector": name, "args": []}))
    extra_lo = extra_hi = 0
    if params:
        bounds = [_ARG_JSON_BOUNDS.get(kind, (2, BYTES_JSON_MAX)) for kind in params]
        separators = 2 * (len(params) - 1)  # ", " between list items
        extra_lo = sum(b[0] for b in bounds) + separators
        extra_hi = sum(b[1] for b in bounds) + separators
    return (
        schedule.transaction + schedule.txdatanonzero * (base + extra_lo),
        schedule.transaction + schedule.txdatanonzero * (base + extra_hi),
    )


def _with_refund_allowance(lo: int) -> int:
    """Lower a bound by the maximum storage-clearing refund (EIP-3529 cap)."""
    return lo - lo // 5


# -- AVM side ------------------------------------------------------------------

#: ops executed before the constructor body: txn ApplicationID, bnz
_AVM_CREATE_PREFIX = 2
#: ops on the dispatch path before any method comparison:
#: txn ApplicationID, bnz, txn NumAppArgs, bz
_AVM_DISPATCH_PREFIX = 4
#: ops per candidate method comparison: txna, byte, ==, bnz
_AVM_COMPARE_OPS = 4


def _teal_successors(program: TealProgram) -> SuccessorFn:
    instrs = program.instrs

    def successors(index: int) -> list[Edge]:
        instr = instrs[index]
        if instr.op in ("return", "err"):
            return []
        if instr.op == "b":
            return [(instr.args[0], "jump")]
        if instr.op in ("bz", "bnz"):
            return [(index + 1, "fall"), (instr.args[0], "jump")]
        if index + 1 >= len(instrs):
            return []
        return [(index + 1, "fall")]

    return successors


def _teal_body_bounds(program: TealProgram, entry: int) -> tuple[int, int | None]:
    instrs = program.instrs
    return path_bounds(
        len(instrs),
        entry,
        _teal_successors(program),
        lambda index: (1, 1),  # the AVM charges one budget unit per op
        terminal_ok=lambda index: instrs[index].op != "err",
    )


def _pool_interval(teal_ops: Interval) -> Interval:
    lo = max(1, -(-teal_ops.lo // DEFAULT_OPCODE_BUDGET))
    if teal_ops.hi is None:
        return Interval(lo, None)
    return Interval(lo, max(1, -(-teal_ops.hi // DEFAULT_OPCODE_BUDGET)))


# -- the analysis --------------------------------------------------------------


def analyze_costs(compiled: CompiledContract) -> CostReport:
    """Compute per-entry-point cost intervals for a compiled contract."""
    schedule = DEFAULT_SCHEDULE
    code: EvmCode = compiled.evm_code
    teal = assemble(compiled.teal_source)
    method_order = list(code.methods)

    entries: dict[str, EntryCost] = {}
    for name, function in compiled.ir.functions.items():
        if name == "constructor":
            payload = serialize_code(code) + json.dumps([]).encode()
            intrinsic = intrinsic_gas(payload, is_create=True, schedule=schedule)
            deposit = code_deposit_gas(code.byte_size(), schedule=schedule)
            vm_lo, vm_hi = _evm_body_bounds(code, code.init_entry, schedule)
            evm_lo = _with_refund_allowance(intrinsic + vm_lo) + deposit
            evm_hi = None if vm_hi is None else intrinsic + vm_hi + deposit
            ops_lo, ops_hi = _teal_body_bounds(teal, _AVM_CREATE_PREFIX)
            teal_interval = Interval(
                _AVM_CREATE_PREFIX + ops_lo,
                None if ops_hi is None else _AVM_CREATE_PREFIX + ops_hi,
            )
            dispatch_index = -1
        else:
            dispatch_index = method_order.index(name)
            intrinsic_lo, intrinsic_hi = _call_intrinsic_bounds(name, function.params, schedule)
            dispatch_gas = 3 * schedule.verylow * (dispatch_index + 1)
            vm_lo, vm_hi = _evm_body_bounds(code, code.methods[name], schedule)
            evm_lo = _with_refund_allowance(intrinsic_lo + dispatch_gas + vm_lo)
            evm_hi = None if vm_hi is None else intrinsic_hi + dispatch_gas + vm_hi
            label = "f_" + name.replace(".", "_")
            ops_lo, ops_hi = _teal_body_bounds(teal, teal.labels[label])
            prefix = _AVM_DISPATCH_PREFIX + _AVM_COMPARE_OPS * (dispatch_index + 1)
            teal_interval = Interval(
                prefix + ops_lo,
                None if ops_hi is None else prefix + ops_hi,
            )
        entries[name] = EntryCost(
            name=name,
            evm_gas=Interval(evm_lo, evm_hi),
            teal_ops=teal_interval,
            avm_pool=_pool_interval(teal_interval),
            dispatch_index=dispatch_index,
        )
    return CostReport(contract=compiled.name, entries=entries)


# -- the batching amortization theorem -----------------------------------------


@dataclass(frozen=True)
class BatchAmortization:
    """The static side of proof batching (``COST-BATCH-AMORTIZED``).

    Compares one ``insert_batch`` anchoring ``N`` proofs against ``N``
    individual submissions, each of which pays the attach ceremony's
    fixed handshake transfer (``handshake_gas``, one plain-transaction
    base) on top of its own call receipt interval.

    Two comparison semantics, stated honestly:

    - :meth:`dominates` -- *interval dominance*: the amortized per-proof
      interval sits pointwise below the unbatched per-proof interval
      (lo < lo and hi < hi).  Both bounds shrink monotonically in ``N``,
      so dominance at ``N`` extends to every larger batch.
    - :attr:`break_even` -- the *adversarial* claim (worst-case batch
      cheaper than ``N`` best-case singles); strictly stronger, so it
      kicks in at a larger ``N`` than dominance does.
    """

    batch_entry: str
    single_entry: str
    handshake_gas: int
    batch_gas: Interval  # full receipt interval of one insert_batch
    single_gas: Interval  # handshake + receipt interval of one single insert
    avm_batch_pool_flat: bool  # batch call fits one pooled-budget fee unit

    def per_proof(self, count: int) -> Interval:
        """The amortized per-proof gas interval for a batch of ``count``."""
        if count < 1:
            raise ValueError("a batch amortizes over at least one proof")
        hi = None if self.batch_gas.hi is None else -(-self.batch_gas.hi // count)
        return Interval(self.batch_gas.lo // count, hi)

    def dominates(self, count: int) -> bool:
        """Pointwise interval dominance of batching at ``count`` proofs."""
        amortized = self.per_proof(count)
        if amortized.hi is None or self.single_gas.hi is None:
            return False
        return (
            amortized.lo < self.single_gas.lo
            and amortized.hi < self.single_gas.hi
        )

    @property
    def dominates_from(self) -> int | None:
        """The smallest batch size (>= 2) with interval dominance."""
        for count in range(2, 1025):
            if self.dominates(count):
                return count
        return None

    @property
    def break_even(self) -> int | None:
        """Smallest ``N`` where even the adversarial comparison favours
        the batch: worst-case batch <= ``N`` x best-case singles."""
        if self.batch_gas.hi is None or self.single_gas.lo <= 0:
            return None
        return max(2, -(-self.batch_gas.hi // self.single_gas.lo))


def batch_amortization(costs: CostReport) -> BatchAmortization | None:
    """Derive the amortization comparison from a contract's cost report.

    Returns None when the contract has no batching entry point (the
    theorem is vacuous for it).  The AVM side needs no interval: a call
    whose pooled budget stays at one transaction costs the same flat
    ``min_fee * (1 + budget_txns)`` as a single insert, so anchoring
    ``N`` proofs for one call fee amortizes by construction --
    ``avm_batch_pool_flat`` records that the premise holds.
    """
    batch_entry, single_entry = "attacherAPI.insert_batch", "attacherAPI.insert_data"
    batch = costs.entries.get(batch_entry)
    single = costs.entries.get(single_entry)
    if batch is None or single is None:
        return None
    handshake = DEFAULT_SCHEDULE.transaction
    single_gas = Interval(
        handshake + single.evm_gas.lo,
        None if single.evm_gas.hi is None else handshake + single.evm_gas.hi,
    )
    return BatchAmortization(
        batch_entry=batch_entry,
        single_entry=single_entry,
        handshake_gas=handshake,
        batch_gas=batch.evm_gas,
        single_gas=single_gas,
        avm_batch_pool_flat=batch.avm_pool.hi == 1,
    )
