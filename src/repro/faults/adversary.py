"""Replay model-checker counterexamples as chaos regressions.

The model checker (:mod:`repro.reach.absint.modelcheck`) refutes
protocol theorems over an *abstract* twin of each backend VM.  This
module closes the loop: an :class:`AdversarySchedule` -- built from the
``data`` payload of an ``MC-CEX`` lint finding -- is replayed through
the full production stack (:class:`~repro.reach.runtime.ReachClient`
over a simulated network from :func:`repro.chain.make_chain`, with a
:class:`~repro.faults.plan.FaultPlan` retry policy armed), and the
refuted theorem's violation predicate is re-checked against real chain
state.  A refutation that reproduces here is a runnable regression, not
a model artifact; one that does not is a model/runtime divergence worth
its own bug report.

Schedule actors are the checker's symbolic addresses (creator /
adversary / reward wallet); the harness binds them to freshly funded
accounts on the target network.  ``@clock`` steps advance the event
queue past the contract's current phase deadline, exactly as the
checker's clock action does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.chain import make_chain
from repro.faults.inject import ChainFaultInjector
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:
    from repro.reach.compiler import CompiledContract

#: generous funding so the adversary is never short of fees mid-attack.
FUNDING = 10**18


@dataclass(frozen=True)
class AdversaryStep:
    """One transaction (or clock advance) of an adversarial schedule."""

    actor: str  # checker address placeholder (creator/adversary/wallet)
    entry: str  # IR entry point, or "@clock" for a deadline rush
    args: tuple[Any, ...] = ()
    value: int = 0
    expect: str = "accepted"  # "accepted" | "rejected"


@dataclass(frozen=True)
class AdversarySchedule:
    """A replayable attack: the theorem it refutes plus its steps."""

    theorem: str
    backend: str  # backend the checker minimized the trace on
    steps: tuple[AdversaryStep, ...]

    @classmethod
    def from_payload(cls, payload: dict) -> "AdversarySchedule":
        """Import the ``data`` dict of an ``MC-CEX`` lint finding."""
        steps = tuple(
            AdversaryStep(
                actor=step["actor"],
                entry=step["entry"],
                args=tuple(step["args"]),
                value=int(step["value"]),
                expect=step["expect"],
            )
            for step in payload["steps"]
        )
        return cls(theorem=str(payload["theorem"]), backend=str(payload["backend"]), steps=steps)


@dataclass
class AdversaryReport:
    """What happened when a schedule ran against the real stack."""

    theorem: str
    network: str
    reproduced: bool
    executed: int  # schedule steps that ran
    detail: str
    #: per-kind chain-fault tally when a non-empty plan was armed.
    injected: dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        verdict = "REPRODUCED" if self.reproduced else "not reproduced"
        return (
            f"adversary replay of {self.theorem} on {self.network}: {verdict} "
            f"after {self.executed} step(s) -- {self.detail}"
        )


def _decode_args(args: tuple[Any, ...], placeholders: dict[str, str]) -> list[Any]:
    """Checker args to runtime args: symbolic addresses bind."""
    decoded: list[Any] = []
    for arg in args:
        if isinstance(arg, str) and arg in placeholders:
            decoded.append(placeholders[arg])
        else:
            decoded.append(arg)
    return decoded


def run_adversary(
    compiled: "CompiledContract",
    schedule: AdversarySchedule,
    network: str = "goerli",
    seed: int = 7,
    plan: FaultPlan | None = None,
) -> AdversaryReport:
    """Replay ``schedule`` against ``compiled`` on a simulated network.

    The contract deploys through the normal client ceremony with the
    plan's retry policy armed (``FaultPlan.empty`` when none is given,
    so recovery machinery is active but nothing is injected), then each
    schedule step runs as a real transaction.  Returns whether the
    refuted theorem's violation predicate held on chain.

    The deploy gate is deliberately bypassed: the point of this harness
    is to run an artifact the linter already refuted, so the compiled
    contract's cached lint report is replaced with an empty one for the
    duration of the deploy.
    """
    from repro.reach.absint.lint import LintReport
    from repro.reach.absint.modelcheck.universe import CREATOR, OTHER, WALLET, find_screens
    from repro.reach.runtime import ReachCallError, ReachClient

    plan = plan or FaultPlan.empty(seed=seed)
    chain = make_chain(network, seed=seed)
    injector = None
    if plan.reject_submissions or plan.windows:
        injector = ChainFaultInjector(plan).install(chain)
    client = ReachClient(chain, policy=plan.policy)

    creator = chain.create_account(seed=b"mc-creator", funding=FUNDING)
    adversary = chain.create_account(seed=b"mc-adversary", funding=FUNDING)
    wallet = chain.create_account(seed=b"mc-wallet", funding=FUNDING)
    actors = {CREATOR: creator, OTHER: adversary, WALLET: wallet}
    placeholders = {WALLET: wallet.address, CREATOR: creator.address, OTHER: adversary.address}

    if not schedule.steps or schedule.steps[0].entry != "publish0":
        raise ValueError("adversary schedules must open with the creator's publish0")

    # The checker's gate: run the artifact the linter refuted.
    unguarded = replace(compiled, _lint=LintReport(contract=compiled.name))

    opening = schedule.steps[0]
    publish_args = _decode_args(opening.args, placeholders)
    deployed = client.deploy(unguarded, actors[opening.actor], publish_args)
    executed = 1

    phase_count = compiled.ir.phase_count
    screens = {
        screen.fn: screen for screen in find_screens(compiled.ir)
    }  # one screen per entry point in the shipped contracts
    keys_seen = {arg for step in schedule.steps for arg in step.args if isinstance(arg, int)}

    def map_image() -> dict[tuple[int, int], Any]:
        from repro.reach.runtime import _StateReader

        reader = _StateReader(client, deployed)
        image = {}
        for slot in compiled.ir.map_slots.values():
            for key in sorted(keys_seen):
                value = reader.map_get(slot, key)
                if value is not None:
                    image[(slot, key)] = value
        return image

    reproduced = False
    detail = "schedule ran to completion without witnessing the violation"

    for index, step in enumerate(schedule.steps[1:], start=2):
        final = index == len(schedule.steps)
        if step.entry == "@clock":
            deadline = deployed.global_value("_deadline")
            chain.queue.run_until(float(deadline) + 1.0)
            executed = index
            continue

        pre_image = map_image() if final else {}
        pre_balance = deployed.balance
        args = _decode_args(step.args, placeholders)
        accepted = True
        try:
            deployed.api(step.entry, *args, sender=actors[step.actor], pay=step.value)
        except ReachCallError:
            accepted = False
        executed = index

        if accepted and step.expect == "rejected":
            detail = f"step {index} ({step.entry}) was accepted but the schedule expected rejection"
            break
        if not accepted and step.expect == "accepted":
            detail = f"step {index} ({step.entry}) was rejected; the runtime enforces the screen"
            break

        if not final:
            continue

        # The violating step ran: re-check the theorem's predicate
        # against real chain state.
        if schedule.theorem in ("MC-SAFETY-REPLAY", "MC-SAFETY-BATCH"):
            screen = screens.get(step.entry)
            key = step.args[screen.arg_index] if screen else None
            was_present = screen is not None and (screen.slot, key) in pre_image
            reproduced = accepted and was_present
            detail = (
                f"{step.entry} accepted a screened create for key {key} already "
                f"anchored at map slot {screen.slot if screen else '?'}"
                if reproduced
                else "the screened key was absent before the final step"
            )
        elif schedule.theorem == "MC-SAFETY-ANCHOR":
            post_image = map_image()
            lost = sorted(set(pre_image) - set(post_image))
            clobbered = sorted(
                entry for entry, value in pre_image.items()
                if entry in post_image and post_image[entry] != value
            )
            reproduced = accepted and bool(lost or clobbered)
            detail = (
                f"{step.entry} destroyed anchored records: lost {lost}, clobbered {clobbered}"
                if reproduced
                else "every anchored record survived the final step"
            )
        elif schedule.theorem == "MC-SAFETY-FUNDS":
            halted = deployed.global_value("_phase") == phase_count + 1
            reproduced = halted and deployed.balance != 0
            detail = (
                f"contract halted holding {deployed.balance} undistributed units"
                if reproduced
                else f"balance {deployed.balance} (was {pre_balance}), "
                f"phase {deployed.global_value('_phase')}: conservation held"
            )
        else:  # MC-LIVE-VERIFY: the reached state is the witness
            reproduced = True
            detail = (
                "liveness refutation: schedule reached the non-progressing state "
                f"(phase {deployed.global_value('_phase')}, balance {deployed.balance})"
            )

    return AdversaryReport(
        theorem=schedule.theorem,
        network=network,
        reproduced=reproduced,
        executed=executed,
        detail=detail,
        injected=dict(injector.injected) if injector is not None else {},
    )
