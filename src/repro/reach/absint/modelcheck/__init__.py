"""Bounded explicit-state protocol model checking for Reach contracts.

Where the other absint layers prove *per-path* facts (balance safety,
cost intervals, per-vector backend equivalence), this package proves
*protocol-level* theorems under adversarial orderings: it executes the
emitted EVM and TEAL artifacts over every interleaving of participant
steps, replayed API calls, front-run batch anchors, clock advances past
phase deadlines, and silently-absent participants, up to a configured
depth.  The moving parts:

- :mod:`universe` derives the adversarial action set, the replay
  screens and the consumer/batch map classification;
- :mod:`repro.reach.absint.exec` (shared with the equivalence check)
  wraps both production VMs behind one immutable-state stepping
  interface with canonical state digests;
- :mod:`props` holds the transition-local safety monitors
  (``MC-SAFETY-*``);
- :mod:`explore` runs the deduplicated BFS sweep and certifies bounded
  liveness (``MC-LIVE-*``);
- :mod:`cex` minimizes violation traces into replayable
  counterexamples (surfaced as ``MC-CEX`` findings, exportable to the
  :mod:`repro.faults.adversary` chaos harness);
- :mod:`mutate` seeds artifact-level protocol bugs for self-tests
  (the lint CLI's ``--mutate-reorder``).

:func:`check_protocol` is the entry point the lint gate calls; results
are cached per (artifact pair, config) exactly like the equivalence
layer, so repeated compiles of the same contract pay for one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.reach.absint.encode import artifact_key
from repro.reach.absint.exec import make_models
from repro.reach.absint.lint import Finding
from repro.reach.absint.modelcheck.cex import CexStep, CounterExample, minimize
from repro.reach.absint.modelcheck.explore import MCRun, explore
from repro.reach.absint.modelcheck.mutate import weaken_replay_screen
from repro.reach.absint.modelcheck.props import (
    ALL_THEOREMS,
    LIVENESS_THEOREM,
    SAFETY_THEOREMS,
)
from repro.reach.absint.modelcheck.universe import MCConfig, Universe, derive_universe
from repro.reach.compiler import CompiledContract

__all__ = [
    "ALL_THEOREMS",
    "CexStep",
    "CounterExample",
    "LIVENESS_THEOREM",
    "MCConfig",
    "MCRun",
    "ProtocolReport",
    "SAFETY_THEOREMS",
    "Universe",
    "check_protocol",
    "derive_universe",
    "protocol_findings",
    "weaken_replay_screen",
]


@dataclass(frozen=True)
class ProtocolReport:
    """The outcome of one model-checking run over both backends."""

    contract: str
    config: MCConfig
    evm: MCRun
    avm: MCRun
    counterexamples: tuple[CounterExample, ...]

    @property
    def space_match(self) -> bool:
        """Both backends explored the identical reachable state space."""
        return self.evm.space_digest == self.avm.space_digest

    @property
    def refuted(self) -> tuple[str, ...]:
        """Theorem ids with at least one counterexample, sorted."""
        return tuple(sorted({cex.theorem for cex in self.counterexamples}))

    @property
    def proved(self) -> tuple[str, ...]:
        """Theorem ids that survived the sweep on both backends."""
        refuted = set(self.refuted)
        return tuple(theorem for theorem in ALL_THEOREMS if theorem not in refuted)

    @property
    def ok(self) -> bool:
        return not self.counterexamples and self.space_match

    @property
    def bounded(self) -> bool:
        """A depth or state-count bound truncated the sweep."""
        return self.evm.truncated or self.avm.truncated

    def render(self) -> str:
        """One-paragraph human summary (the lint report embeds this)."""
        scope = "bounded" if self.bounded else "exhaustive"
        lines = [
            f"model check ({scope}, depth {self.config.depth}, K={self.config.k_live}): "
            f"{self.evm.states} states / {self.evm.transitions} transitions per backend, "
            f"spaces {'match' if self.space_match else 'DIVERGE'}"
        ]
        for theorem in self.proved:
            lines.append(f"  proved {theorem}")
        for cex in self.counterexamples:
            lines.append("  " + cex.journey().replace("\n", "\n  "))
        return "\n".join(lines)


#: sweep results keyed by (artifact hash, config) -- the same artifact
#: key as equiv._CACHE, so the deploy gate's repeated ``lint_report()``
#: calls across tests pay for one exploration.
_CACHE: dict[tuple[bytes, MCConfig], ProtocolReport] = {}


def check_protocol(compiled: CompiledContract, config: MCConfig | None = None) -> ProtocolReport:
    """Model-check one compiled contract on both backends.

    Deterministic end to end: the same artifacts and config always
    yield the same state count, theorem list, and counterexample
    traces (BFS over sorted action templates, canonical digests).
    """
    config = config or MCConfig()
    cache_key = (artifact_key(compiled), config)
    cached = _CACHE.get(cache_key)
    if cached is not None:
        return cached

    universe = derive_universe(compiled, config)
    phase_count = compiled.ir.phase_count
    evm_model, avm_model = make_models(compiled, universe.keys)
    evm_run = explore(evm_model, universe, config, phase_count)
    avm_run = explore(avm_model, universe, config, phase_count)

    # One minimized counterexample per refuted theorem.  Both backends
    # normally refute identically (their state spaces match); when only
    # one does, that backend's trace is the evidence -- and the space
    # divergence is reported alongside it.
    counterexamples: list[CounterExample] = []
    seen: set[str] = set()
    for model, run in ((evm_model, evm_run), (avm_model, avm_run)):
        for trace in run.violations:
            if trace.theorem in seen:
                continue
            seen.add(trace.theorem)
            counterexamples.append(minimize(model, universe, phase_count, trace))

    report = ProtocolReport(
        contract=compiled.name,
        config=config,
        evm=evm_run,
        avm=avm_run,
        counterexamples=tuple(counterexamples),
    )
    _CACHE[cache_key] = report
    return report


def _schedule_payload(cex: CounterExample) -> dict[str, object]:
    """The machine-readable schedule attached to an ``MC-CEX`` finding.

    The same neutral step tuples :mod:`repro.faults.adversary` consumes,
    JSON-safe (bytes args decoded latin-1), so ``repro lint --json``
    output regression-pins the replayable schedule format.
    """
    steps = []
    for actor, entry, args, value, expect in cex.schedule_steps():
        steps.append(
            {
                "actor": actor,
                "entry": entry,
                "args": [arg.decode("latin-1") if isinstance(arg, bytes) else arg for arg in args],
                "value": value,
                "expect": expect,
            }
        )
    return {"backend": cex.backend, "theorem": cex.theorem, "steps": steps}


def protocol_findings(report: ProtocolReport, source: str = "") -> list[Finding]:
    """Render a :class:`ProtocolReport` as lint findings.

    Proved theorems surface as deterministic ``[info]`` findings (the
    CI determinism check diffs these messages verbatim, state counts
    included); every refuted theorem is one ``[error] MC-CEX`` carrying
    the minimized journey in its message and the replayable schedule in
    its ``data`` payload.
    """
    findings: list[Finding] = []
    scope = "bounded" if report.bounded else "exhaustive"
    sweep = (
        f"{report.evm.states} states / {report.evm.transitions} transitions per backend, "
        f"{scope} to depth {report.config.depth}"
    )

    if not report.space_match:
        findings.append(
            Finding(
                severity="error",
                theorem="MC-SPACE-DIVERGE",
                message=(
                    f"reachable state spaces differ across backends: "
                    f"EVM {report.evm.states} states ({report.evm.space_digest.hex()[:16]}) "
                    f"vs AVM {report.avm.states} states ({report.avm.space_digest.hex()[:16]})"
                ),
                source=source,
            )
        )

    for cex in report.counterexamples:
        findings.append(
            Finding(
                severity="error",
                theorem="MC-CEX",
                message=f"{cex.theorem} refuted under adversarial scheduling\n{cex.journey()}",
                source=source,
                data=_schedule_payload(cex),
            )
        )

    refuted = set(report.refuted)
    for theorem in report.proved:
        if theorem == LIVENESS_THEOREM:
            if "MC-SAFETY-FUNDS" in refuted:
                # The explorer skips liveness certification once funds
                # conservation broke (distances over a broken ledger
                # are meaningless); claiming a proof would overstate it.
                continue
            detail = (
                f"every reachable state reaches a drained halt within "
                f"{report.config.k_live} fair steps (worst certified distance "
                f"{max(report.evm.live_max, report.avm.live_max)}); {sweep}"
            )
        else:
            detail = f"holds on every explored interleaving, EVM and AVM; {sweep}"
        findings.append(
            Finding(severity="info", theorem=theorem, message=detail, source=source)
        )
    return findings
