"""Counterexample handling: minimize, render as a journey, export.

A raw violation from the explorer is an action-index path.  BFS parent
chains are already shortest-by-construction *to the violating state*,
but not every step on them is load-bearing -- a funds trace may carry
an irrelevant Map insert.  :func:`minimize` greedily drops steps and
keeps only those whose removal makes the violation disappear under
replay, so the journey a human reads (and the chaos regression the
faults harness replays) is the essential attack and nothing else.
Replays run both backends in lockstep: a safety theorem fires on the
EVM side of an agreeing step, and ``MC-SPACE-DIVERGE`` fires at the
first step on which the backends disagree -- so a minimized divergence
ends exactly at its diverging transition.

:meth:`CounterExample.schedule_steps` exports the trace in the neutral
``(actor, entry, args, value, expect)`` form that an ``MC-CEX`` lint
finding carries as its payload;
:class:`repro.faults.adversary.AdversarySchedule` reads that payload
back, which turns every refuted property into a runnable chaos
regression.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.reach.absint.exec import CREATOR, ActionTemplate, Lockstep
from repro.reach.absint.modelcheck.explore import Trace
from repro.reach.absint.modelcheck.props import DIVERGENCE, check_transition
from repro.reach.absint.modelcheck.universe import Universe


@dataclass(frozen=True)
class CexStep:
    """One replayable step of a counterexample."""

    action: ActionTemplate
    expect: str = "accepted"  # "diverges" on a divergence's last step
    note: str = ""  # theorem id when this is the violating step


@dataclass(frozen=True)
class CounterExample:
    """A minimized, replayable refutation of one theorem."""

    theorem: str
    message: str
    backend: str  # "evm" for a safety theorem, "evm+avm" for a divergence
    steps: tuple[CexStep, ...]

    def journey(self) -> str:
        """Render the trace as a numbered participant journey."""
        lines = [f"counterexample for {self.theorem} ({self.backend.upper()}, {len(self.steps)} steps):"]
        for number, step in enumerate(self.steps, start=1):
            action = step.action
            if action.kind == "clock":
                actor = "clock"
            elif action.caller == CREATOR:
                actor = "creator"
            else:
                actor = "adversary"
            marker = f"  << {step.note}" if step.note else ""
            lines.append(f"  {number}. [{actor}] {action.name} -> {step.expect}{marker}")
        lines.append(f"  violates {self.theorem}: {self.message}")
        return "\n".join(lines)

    def schedule_steps(self) -> tuple[tuple[str, str, tuple, int, str], ...]:
        """Neutral (actor, entry, args, value, expect) tuples."""
        exported = []
        for step in self.steps:
            action = step.action
            entry = "@clock" if action.kind == "clock" else action.fn
            exported.append((action.caller, entry, action.args, action.value, step.expect))
        return tuple(exported)


def replay_trace(
    lockstep: Lockstep,
    universe: Universe,
    phase_count: int,
    actions: tuple[ActionTemplate, ...],
    theorem: str,
) -> tuple[int, str] | None:
    """Replay actions from deploy on both backends; the index and message
    of the step firing ``theorem`` (a safety theorem misses once they diverge)."""
    pair = lockstep.deploy().pair
    for index, action in enumerate(actions):
        result = lockstep.step(pair, action)
        if result.divergence:
            return (index, "; ".join(result.divergence)) if theorem == DIVERGENCE else None
        for found, message in check_transition(universe, phase_count, pair.evm, action, result.evm):
            if found == theorem:
                return index, message
        pair = result.pair
    return None


def minimize(
    lockstep: Lockstep,
    universe: Universe,
    phase_count: int,
    trace: Trace,
) -> CounterExample:
    """Greedy delta-debug: drop every step the violation survives without."""
    actions = tuple(universe.templates[index] for index in trace.steps)
    backend = "evm+avm" if trace.theorem == DIVERGENCE else "evm"

    if trace.theorem == "MC-LIVE-VERIFY" or not actions:
        # Liveness refutations are about the *reached* state, not the
        # final transition; the BFS path is already shortest.
        steps = tuple(CexStep(action=action) for action in actions)
        return CounterExample(theorem=trace.theorem, message=trace.message, backend=backend, steps=steps)

    message = trace.message
    fired = replay_trace(lockstep, universe, phase_count, actions, trace.theorem)
    if fired is not None:
        actions = actions[: fired[0] + 1]
        message = fired[1]

    cursor = 0
    while cursor < len(actions) - 1:  # the final, violating step stays
        candidate = actions[:cursor] + actions[cursor + 1 :]
        fired = replay_trace(lockstep, universe, phase_count, candidate, trace.theorem)
        if fired is not None:
            actions = candidate[: fired[0] + 1]
            message = fired[1]
        else:
            cursor += 1

    expect = "diverges" if trace.theorem == DIVERGENCE else "accepted"
    steps = tuple(CexStep(action=action) for action in actions[:-1])
    steps += (CexStep(action=actions[-1], expect=expect, note=trace.theorem),)
    return CounterExample(theorem=trace.theorem, message=message, backend=backend, steps=steps)
