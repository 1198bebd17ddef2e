"""Property monitors: the safety theorems checked on every transition.

Each monitor observes one transition -- pre-state, action, VM outcome,
post-state -- and reports violations as ``(theorem id, message)``
pairs.  Safety here is *transition-local by construction*: funds
conservation is checked as an exact per-call balance delta (which sums
to the global ledger equation over any path), and the replay/anchor
properties compare the pre and post Map images directly.  That keeps
the monitors path-independent, so state-digest deduplication in the
explorer never hides a violation.

Theorem ids (stable, pinned by tests and CI greps):

==================  =========================================================
MC-SAFETY-FUNDS     balance == deposits - payouts, never negative, and a
                    halted contract holds zero
MC-SAFETY-REPLAY    a replayed screened create (key already present) must be
                    rejected by the compiled artifact
MC-SAFETY-BATCH     no double-anchored batch root: batch Map entries are
                    write-once, and a second (front-run) anchor for the same
                    batch id must lose
MC-SAFETY-ANCHOR    an accepted record stays anchorable: Map entries are
                    deleted only by their declared consumer entry points and
                    are never clobbered with a different value
MC-LIVE-VERIFY      bounded liveness (checked by the explorer, not here):
                    every reachable state reaches a drained halt within K
                    fair honest steps
MC-SPACE-DIVERGE    the EVM and AVM artifacts disagree on a transition
                    (found by the lockstep step, not here; no theorem is
                    proved while the backends disagree)
==================  =========================================================
"""

from __future__ import annotations

from repro.reach.absint.encode import UNSET, canon
from repro.reach.absint.exec import ActionTemplate, MCState, StepResult
from repro.reach.absint.modelcheck.universe import Universe

SAFETY_THEOREMS = (
    "MC-SAFETY-FUNDS",
    "MC-SAFETY-REPLAY",
    "MC-SAFETY-BATCH",
    "MC-SAFETY-ANCHOR",
)
LIVENESS_THEOREM = "MC-LIVE-VERIFY"
ALL_THEOREMS = SAFETY_THEOREMS + (LIVENESS_THEOREM,)
DIVERGENCE = "MC-SPACE-DIVERGE"


def halted(state: MCState, phase_count: int) -> bool:
    return state.phase() == phase_count + 1


def check_transition(
    universe: Universe,
    phase_count: int,
    pre: MCState,
    template: ActionTemplate,
    result: StepResult,
) -> list[tuple[str, str]]:
    """All safety violations witnessed by one executed transition."""
    if result.status != "ok":
        return []
    if template.kind == "clock":
        return []
    post = result.state
    violations: list[tuple[str, str]] = []

    # MC-SAFETY-FUNDS: exact conservation, non-negativity, drained halt.
    expected = pre.balance + template.value - result.paid_out
    if post.balance != expected:
        violations.append(
            (
                "MC-SAFETY-FUNDS",
                f"{template.name}: balance {post.balance} != "
                f"{pre.balance} + {template.value} paid in - {result.paid_out} paid out",
            )
        )
    if post.balance < 0:
        violations.append(("MC-SAFETY-FUNDS", f"{template.name}: balance went negative ({post.balance})"))
    if halted(post, phase_count) and post.balance != 0:
        violations.append(
            (
                "MC-SAFETY-FUNDS",
                f"{template.name}: contract halted holding {post.balance} undistributed units",
            )
        )

    # MC-SAFETY-REPLAY / MC-SAFETY-BATCH: screened creates must reject
    # when the key is already present.  A batch-slot replay is *also*
    # the double-anchor violation, reported under its own theorem.
    for screen in universe.screens_of(template.fn):
        key = template.args[screen.arg_index]
        if isinstance(key, int) and pre.map_value(screen.slot, key) is not None:
            theorem = "MC-SAFETY-BATCH" if screen.slot in universe.batch_slots else "MC-SAFETY-REPLAY"
            what = "re-anchored batch id" if theorem == "MC-SAFETY-BATCH" else "replayed create for key"
            violations.append(
                (theorem, f"{template.name}: accepted {what} {key} (screen on map slot {screen.slot})")
            )

    # MC-SAFETY-ANCHOR (+ the batch write-once half of MC-SAFETY-BATCH):
    # entries never vanish except through a consumer, never change value.
    if post.cells is pre.cells:
        return violations  # the call left every cell as it was
    consumer = universe.consumer_slots.get(template.fn, frozenset())
    for ((slot, key), value), (_entry, after) in zip(pre.map_cells(), post.map_cells()):
        if value is UNSET or after is value:
            continue
        if after is UNSET:
            if slot not in consumer:
                violations.append(
                    (
                        "MC-SAFETY-ANCHOR",
                        f"{template.name}: map slot {slot} key {key} deleted by a "
                        f"non-consumer entry point (anchored record lost)",
                    )
                )
        elif canon(after) != canon(value):
            theorem = "MC-SAFETY-BATCH" if slot in universe.batch_slots else "MC-SAFETY-ANCHOR"
            noun = "batch root" if theorem == "MC-SAFETY-BATCH" else "record"
            violations.append(
                (
                    theorem,
                    f"{template.name}: {noun} at map slot {slot} key {key} overwritten "
                    f"({canon(value)!r} -> {canon(after)!r})",
                )
            )
    return violations

