"""Cross-check measured receipts against the static cost bounds.

The abstract interpretation in :mod:`repro.reach.absint.cost` promises
per-entry-point gas/budget intervals that are *sound*: no execution may
cost more than the interval's upper bound.  This module closes the
loop: after a bench run, every measured receipt is compared against the
statically derived ceiling for its operation, so a cost-model
regression in either direction (analysis too tight, or VM charging
more than analyzed) fails loudly instead of skewing chapter-5 tables.

Operation shapes (mirroring the runtime's ceremonies):

- EVM deploy = create (constructor entry, deposit included) + publish0
  call; attach = a 21k handshake transfer + the insert_data call.
- AVM fees are flat per transaction; an app call pays
  ``min_fee * (1 + budget_txns)``.  Deploy = create + fund + opt-in +
  publish0; attach = opt-in + insert_data.  Rejected AVM transactions
  pay no fee, so the bound holds vacuously for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.params import NetworkProfile
from repro.reach.absint.cost import CostReport, analyze_costs
from repro.reach.compiler import CompiledContract
from repro.reach.runtime import ALGO_BUDGET_TXNS

#: the fixed handshake transfer the EVM attach ceremony prepends
EVM_HANDSHAKE_GAS = 21_000

#: fixed AVM deploy ceremony transactions besides publish0:
#: application create, the funding transfer, and the creator opt-in
AVM_DEPLOY_FLAT_TXNS = 3


@dataclass(frozen=True)
class BoundViolation:
    """One measured operation that escaped its static interval."""

    user: str
    operation: str  # "deploy" | "attach" | "insert_batch"
    metric: str  # "gas" | "fee" | "gas/proof"
    measured: int | float
    bound: int
    direction: str = "above"  # "above" a ceiling or "below" a floor

    def render(self) -> str:
        verb = "exceeds the static bound" if self.direction == "above" else "undercuts the static floor"
        return (
            f"{self.user}/{self.operation}: measured {self.metric} "
            f"{self.measured} {verb} {self.bound}"
        )


@dataclass
class BoundsReport:
    """The outcome of checking one simulation run against the bounds."""

    network: str
    contract: str
    checked: int = 0
    violations: list[BoundViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            f"Bounds check: {self.network} vs contract {self.contract!r} "
            f"({self.checked} operations)"
        ]
        if self.ok:
            lines.append("  every measured receipt is within its static bound")
        else:
            lines.extend(f"  VIOLATION {v.render()}" for v in self.violations)
        return "\n".join(lines)


def _avm_call_fee(costs: CostReport, entry: str, min_fee: int) -> int:
    """Worst-case flat fee of one app call to ``entry``.

    The runtime always groups ``ALGO_BUDGET_TXNS`` extra budget
    transactions; a contract whose static pool requirement is larger
    would need (and pay for) the bigger group, so the bound takes the
    max of the two.
    """
    pool_hi = costs.entries[entry].avm_pool.hi or 1
    return min_fee * (1 + max(pool_hi - 1, ALGO_BUDGET_TXNS))


def check_simulation_against_bounds(
    result, compiled: CompiledContract, profile: NetworkProfile
) -> BoundsReport:
    """Assert every receipt in ``result`` fits the absint cost intervals."""
    costs = analyze_costs(compiled)
    report = BoundsReport(network=result.network, contract=compiled.name)

    if profile.family == "evm":
        attach_hi = costs.entries["attacherAPI.insert_data"].evm_gas.hi
        deploy_bound = costs.deploy_ceiling
        attach_bound = None if attach_hi is None else EVM_HANDSHAKE_GAS + attach_hi
        for timing in result.timings:
            bound = deploy_bound if timing.operation == "deploy" else attach_bound
            report.checked += 1
            if bound is not None and timing.gas_used > bound:
                report.violations.append(
                    BoundViolation(
                        user=timing.name,
                        operation=timing.operation,
                        metric="gas",
                        measured=timing.gas_used,
                        bound=bound,
                    )
                )
        return report

    min_fee = profile.min_fee
    deploy_bound = AVM_DEPLOY_FLAT_TXNS * min_fee + _avm_call_fee(costs, "publish0", min_fee)
    attach_bound = min_fee + _avm_call_fee(costs, "attacherAPI.insert_data", min_fee)
    for timing in result.timings:
        bound = deploy_bound if timing.operation == "deploy" else attach_bound
        report.checked += 1
        if timing.fees > bound:
            report.violations.append(
                BoundViolation(
                    user=timing.name,
                    operation=timing.operation,
                    metric="fee",
                    measured=timing.fees,
                    bound=bound,
                )
            )
    return report


def check_batched_point(
    compiled: CompiledContract,
    profile: NetworkProfile,
    batch_count: int,
    measured: dict,
) -> BoundsReport:
    """Check measured ``insert_batch`` receipts against the amortization
    theorem's intervals (``COST-BATCH-AMORTIZED``).

    ``measured`` carries the batched run's receipt extremes as recorded
    by the aggregator's gauges: ``gas_min``/``gas_max`` (EVM family)
    and ``fee_min``/``fee_max`` (both families); ``batch_count`` is the
    number of proofs each anchoring transaction carried.  Checks, per
    family:

    - EVM: every receipt inside the entry's full interval *and* the
      amortized per-proof gas (``gas / batch_count``) inside the
      theorem's ``per_proof(batch_count)`` interval;
    - AVM: the flat call fee within ``[min_fee, worst-case pooled fee]``
      (the theorem's premise that one batch costs one call fee).
    """
    from repro.reach.absint.cost import batch_amortization

    costs = analyze_costs(compiled)
    report = BoundsReport(network=profile.name, contract=compiled.name)
    amortization = batch_amortization(costs)
    if amortization is None or not measured.get("batches"):
        return report

    def flag(metric, value, bound, direction):
        report.violations.append(
            BoundViolation(
                user="batch", operation="insert_batch", metric=metric,
                measured=value, bound=bound, direction=direction,
            )
        )

    if profile.family == "evm":
        interval = amortization.batch_gas
        per_proof = amortization.per_proof(batch_count)
        report.checked += 2
        if measured["gas_max"] > interval.hi:
            flag("gas", measured["gas_max"], interval.hi, "above")
        if measured["gas_min"] < interval.lo:
            flag("gas", measured["gas_min"], interval.lo, "below")
        gas_per_proof_hi = measured["gas_max"] / batch_count
        gas_per_proof_lo = measured["gas_min"] / batch_count
        report.checked += 2
        if gas_per_proof_hi > per_proof.hi:
            flag("gas/proof", gas_per_proof_hi, per_proof.hi, "above")
        if gas_per_proof_lo < per_proof.lo:
            flag("gas/proof", gas_per_proof_lo, per_proof.lo, "below")
        return report

    min_fee = profile.min_fee
    fee_bound = _avm_call_fee(costs, "attacherAPI.insert_batch", min_fee)
    report.checked += 2
    if measured["fee_max"] > fee_bound:
        flag("fee", measured["fee_max"], fee_bound, "above")
    if measured["fee_min"] < min_fee:
        flag("fee", measured["fee_min"], min_fee, "below")
    return report
