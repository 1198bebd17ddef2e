"""The findings report behind ``repro lint`` and the deploy gate.

The one static checker: its report is the only verdict on whether a
compiled contract may be deployed, and the source of Reach's
``Checked N theorems; No failures!`` banner (thesis figures 2.11 and
5.1).  It aggregates every analysis layer over one compiled contract:

- unprovable transfers and leaky halts from the balance analysis
  (``ABSINT-BAL-*``);
- AVM budget problems from the cost analysis (``COST-*``);
- cross-backend divergences (``EQ-DIVERGE``, errors);
- protocol theorems and lockstep divergences from the model checker
  (``MC-*``): token conservation (``MC-SAFETY-FUNDS``) and phase
  progress (``MC-LIVE-VERIFY``) among them.

Well-formedness (a creator, a publish step, ``UInt`` Map keys,
``Bytes(n)`` Map values, ``pays`` naming a ``UInt`` parameter) is not a
finding here: ``compile_program`` refuses such a program with a
:class:`~repro.reach.compiler.CompileError`, and ``repro lint`` reports
it as ``COMPILE-ERROR`` at the declaration's span.

Exit-code contract (pinned by tests and CI):

====  =====================================================
code  meaning
====  =====================================================
0     clean, or informational findings only
1     at least one error- or warning-severity finding
2     usage or internal failure (bad option, analyzer crash)
====  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: ordered by decreasing severity for sorting/rendering
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One reportable fact about a contract."""

    severity: str  # "error" | "warning" | "info"
    theorem: str  # stable id, e.g. "EQ-DIVERGE", "ABSINT-BAL-TRANSFER"
    message: str
    source: str = ""  # file path or contract name
    span: tuple[int, int] | None = None  # (line, col) in the source, when known
    #: optional machine-readable payload (e.g. the replayable schedule
    #: of an ``MC-CEX``); serialized verbatim by ``repro lint --json``.
    data: dict[str, object] | None = None

    def __post_init__(self) -> None:
        # Validate at construction so ranking/rendering can never hit
        # an unknown severity deep inside a report (SEVERITIES.index
        # used to raise ValueError at render time instead).
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown finding severity {self.severity!r} for {self.theorem}; "
                f"expected one of {SEVERITIES}"
            )

    def render(self) -> str:
        location = self.source
        if self.span is not None:
            location = f"{location}:{self.span[0]}:{self.span[1]}"
        return f"[{self.severity}] {self.theorem} {location}: {self.message}"


@dataclass
class LintReport:
    """Findings plus the cost bounds for one contract."""

    contract: str
    source: str = ""
    findings: list[Finding] = field(default_factory=list)
    costs: object = None  # CostReport | None

    @property
    def has_errors(self) -> bool:
        """True iff any finding is error severity."""
        return any(finding.severity == "error" for finding in self.findings)

    @property
    def failures(self) -> list[Finding]:
        """The error- and warning-severity findings."""
        return [finding for finding in self.findings if finding.severity != "info"]

    @property
    def exit_code(self) -> int:
        """0 clean/info-only, 1 errors or warnings (2 is the CLI's)."""
        return 1 if self.failures else 0

    def banner(self) -> str:
        """Reach's verdict line, one theorem per finding, then each failure."""
        failures = self.failures
        verdict = f"{len(failures)} failures:" if failures else "No failures!"
        lines = [f"Checked {len(self.findings)} theorems; {verdict}"]
        lines.extend(f"  {finding.render()}" for finding in failures)
        return "\n".join(lines)

    def render(self) -> str:
        """Human-readable report: findings, then the cost table."""
        header = f"Lint report for contract {self.contract!r}"
        if self.source:
            header += f" ({self.source})"
        lines = [header]
        if self.findings:
            ranked = sorted(self.findings, key=lambda f: SEVERITIES.index(f.severity))
            lines.extend(f"  {finding.render()}" for finding in ranked)
        else:
            lines.append("  no findings")
        if self.costs is not None:
            lines.append("")
            lines.extend("  " + line for line in self.costs.render().splitlines())
        return "\n".join(lines)


def lint_compiled(compiled, source: str = "", mc_depth: int | None = None) -> LintReport:
    """Run every analysis layer and collect the findings.

    ``mc_depth`` overrides the model checker's BFS depth bound (the
    CLI's ``--mc-depth``); ``None`` uses the :class:`MCConfig` default.
    """
    from repro.chain.algorand.avm import MAX_BUDGET_POOL
    from repro.reach.absint.balance import analyze_balance
    from repro.reach.absint.cost import analyze_costs
    from repro.reach.absint.equiv import check_equivalence
    from repro.reach.runtime import ALGO_BUDGET_TXNS

    source = source or compiled.name
    findings: list[Finding] = []

    # 1. balance safety
    balance = analyze_balance(compiled)
    for item in balance.findings:
        theorem = "ABSINT-BAL-TRANSFER" if item.severity == "error" else "ABSINT-BAL-HALT"
        findings.append(
            Finding(
                severity=item.severity,
                theorem=theorem,
                message=f"{item.owner}: {item.message}",
                source=source,
                span=item.span,
            )
        )

    # 2. cost bounds
    costs = analyze_costs(compiled)
    runtime_pool = 1 + ALGO_BUDGET_TXNS  # the call itself plus grouped budget txns
    for entry in costs.entries.values():
        if not entry.within_avm_budget:
            findings.append(
                Finding(
                    severity="error",
                    theorem="COST-BUDGET",
                    message=(
                        f"{entry.name}: worst case needs {entry.avm_pool} pooled budget "
                        f"transactions; the AVM caps pooling at {MAX_BUDGET_POOL}"
                    ),
                    source=source,
                )
            )
        elif entry.avm_pool.hi is not None and entry.avm_pool.hi > runtime_pool:
            findings.append(
                Finding(
                    severity="warning",
                    theorem="COST-POOL",
                    message=(
                        f"{entry.name}: worst case needs {entry.avm_pool} pooled budget "
                        f"transactions but the runtime groups only {runtime_pool}"
                    ),
                    source=source,
                )
            )

    # 2b. the batching amortization theorem: one insert_batch anchoring
    # N proofs must beat N individual inserts for every N >= 2.
    from repro.reach.absint.cost import batch_amortization

    amortization = batch_amortization(costs)
    if amortization is not None:
        if amortization.dominates(2) and amortization.avm_batch_pool_flat:
            findings.append(
                Finding(
                    severity="info",
                    theorem="COST-BATCH-AMORTIZED",
                    message=(
                        f"{amortization.batch_entry}: amortized per-proof gas "
                        f"{amortization.per_proof(16)} at N=16 vs unbatched "
                        f"{amortization.single_gas}; interval dominance holds for "
                        f"every N >= {amortization.dominates_from}, adversarial "
                        f"break-even at N = {amortization.break_even}; AVM batch "
                        f"call fits one pooled fee unit"
                    ),
                    source=source,
                )
            )
        else:
            findings.append(
                Finding(
                    severity="error",
                    theorem="COST-BATCH-AMORTIZED",
                    message=(
                        f"{amortization.batch_entry}: batching does not amortize -- "
                        f"per-proof {amortization.per_proof(2)} at N=2 fails to "
                        f"dominate the unbatched {amortization.single_gas}"
                        + ("" if amortization.avm_batch_pool_flat
                           else "; AVM batch call overflows one pooled fee unit")
                    ),
                    source=source,
                )
            )

    # 3. cross-backend equivalence
    for divergence in check_equivalence(compiled):
        findings.append(
            Finding(
                severity="error",
                theorem="EQ-DIVERGE",
                message=divergence,
                source=source,
            )
        )

    # 4. protocol model checking: bounded adversarial-interleaving
    # exploration of both emitted artifacts.  Proved safety/liveness
    # theorems report as [info]; every refuted theorem is an [error]
    # MC-CEX whose data payload carries the replayable schedule.
    from repro.reach.absint.modelcheck import MCConfig, check_protocol, protocol_findings

    protocol = check_protocol(compiled, MCConfig(depth=mc_depth) if mc_depth is not None else None)
    findings.extend(protocol_findings(protocol, source))

    return LintReport(contract=compiled.name, source=source, findings=findings, costs=costs)
