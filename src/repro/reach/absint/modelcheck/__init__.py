"""Bounded explicit-state protocol model checking for Reach contracts.

Where the other absint layers prove *per-path* facts (balance safety,
cost intervals, per-vector backend equivalence), this package proves
*protocol-level* theorems under adversarial orderings: it executes the
emitted EVM and TEAL artifacts in lockstep over every interleaving of
participant steps, replayed API calls, front-run batch anchors, clock
advances past phase deadlines, and silently-absent participants, up to
a configured depth.  The moving parts:

- :mod:`universe` derives the adversarial action set, the replay
  screens and the consumer/batch map classification;
- :mod:`repro.reach.absint.exec` (shared with the equivalence check)
  steps both production VMs together on immutable states and compares
  their outcomes and canonical state digests;
- :mod:`props` holds the transition-local safety monitors
  (``MC-SAFETY-*``);
- :mod:`explore` runs the one deduplicated lockstep BFS sweep and
  certifies bounded liveness (``MC-LIVE-*``) over its graph;
- :mod:`cex` minimizes violation traces into replayable
  counterexamples (surfaced as ``MC-CEX`` findings, exportable to the
  :mod:`repro.faults.adversary` chaos harness) and divergence traces
  into schedules ending at the first transition on which the backends
  disagree (``MC-SPACE-DIVERGE``);
- :mod:`mutate` seeds artifact-level protocol bugs for self-tests
  (the lint CLI's ``--mutate-reorder``).

:func:`check_protocol` is the entry point the lint gate calls; results
are cached per (artifact pair, config) exactly like the equivalence
layer, so repeated compiles of the same contract pay for one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.reach.absint.encode import artifact_key
from repro.reach.absint.exec import make_lockstep
from repro.reach.absint.lint import Finding
from repro.reach.absint.modelcheck.cex import CexStep, CounterExample, minimize
from repro.reach.absint.modelcheck.explore import MCRun, explore
from repro.reach.absint.modelcheck.mutate import weaken_replay_screen
from repro.reach.absint.modelcheck.props import (
    ALL_THEOREMS,
    DIVERGENCE,
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
    """The outcome of one lockstep model-checking run over both backends."""

    contract: str
    config: MCConfig
    run: MCRun
    counterexamples: tuple[CounterExample, ...]

    @property
    def diverged(self) -> bool:
        """The backends disagreed on some explored transition."""
        return any(cex.theorem == DIVERGENCE for cex in self.counterexamples)

    @property
    def refuted(self) -> tuple[str, ...]:
        """Theorem ids with at least one counterexample, sorted."""
        return tuple(sorted({cex.theorem for cex in self.counterexamples} - {DIVERGENCE}))

    @property
    def proved(self) -> tuple[str, ...]:
        """Theorem ids that survived the sweep; none when the backends
        disagree, since the sweep then skipped the diverging successors."""
        if self.diverged:
            return ()
        refuted = set(self.refuted)
        return tuple(theorem for theorem in ALL_THEOREMS if theorem not in refuted)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    @property
    def bounded(self) -> bool:
        """A depth or state-count bound truncated the sweep."""
        return self.run.truncated

    def render(self) -> str:
        """One-paragraph human summary (the lint report embeds this)."""
        scope = "bounded" if self.bounded else "exhaustive"
        lines = [
            f"model check ({scope}, depth {self.config.depth}, K={self.config.k_live}): "
            f"{self.run.states} states / {self.run.transitions} transitions per backend, "
            f"backends {'DIVERGE' if self.diverged else 'agree'}"
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
    """Model-check one compiled contract on both backends in lockstep.

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
    lockstep = make_lockstep(compiled, universe.keys)
    run = explore(lockstep, universe, config, phase_count)
    # One minimized counterexample per refuted theorem (and at most one
    # divergence), in theorem order.
    counterexamples = tuple(minimize(lockstep, universe, phase_count, trace) for trace in run.violations)
    report = ProtocolReport(contract=compiled.name, config=config, run=run, counterexamples=counterexamples)
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
    included); every refuted theorem is one ``[error] MC-CEX``, and a
    divergence one ``[error] MC-SPACE-DIVERGE``, each carrying the
    minimized journey in its message and the replayable schedule in its
    ``data`` payload.
    """
    findings: list[Finding] = []
    scope = "bounded" if report.bounded else "exhaustive"
    sweep = (
        f"{report.run.states} states / {report.run.transitions} transitions per backend, "
        f"{scope} to depth {report.config.depth}"
    )

    # The divergence sorts last by theorem id but reads first.
    for cex in sorted(report.counterexamples, key=lambda cex: cex.theorem != DIVERGENCE):
        if cex.theorem == DIVERGENCE:
            theorem, headline = DIVERGENCE, "the EVM and AVM artifacts disagree under adversarial scheduling"
        else:
            theorem, headline = "MC-CEX", f"{cex.theorem} refuted under adversarial scheduling"
        findings.append(
            Finding(
                severity="error",
                theorem=theorem,
                message=f"{headline}\n{cex.journey()}",
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
                f"{report.run.live_max}); {sweep}"
            )
        else:
            detail = f"holds on every explored interleaving, EVM and AVM; {sweep}"
        findings.append(
            Finding(severity="info", theorem=theorem, message=detail, source=source)
        )
    return findings
