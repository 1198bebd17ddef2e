"""The bounded explicit-state explorer and liveness certifier.

One :func:`explore` call runs one breadth-first search over both
backends at once.  Each node is one canonical digest holding the EVM
and the AVM state that produce it; each (state, action) pair goes
through :meth:`~repro.reach.absint.exec.Lockstep.step`, which runs
both artifacts and compares what they did.  A transition on which they
disagree is recorded as an ``MC-SPACE-DIVERGE`` trace ending at that
transition, and its successor is not explored.  Every agreeing
transition (including rejected attempts -- replay safety is a theorem
about rejections) is checked once by the safety monitors, on the EVM
side.  BFS parent pointers make every trace shortest by construction.

Tractability comes from four reductions:

1. **state-digest deduplication** -- interleavings that commute into
   the same protocol state collapse to one node;
2. **caller symmetry** -- the universe models one adversarial address,
   since no contract state is keyed by caller (see universe.py);
3. **no-progress pruning** -- accepted calls that leave the digest
   unchanged (and every rejected call) produce no new node;
4. **read-footprint memoization** -- a step whose action and reads
   (store cells, and the balance and the clock when the call uses
   them) match an earlier call's reuses that call's outcome instead of
   running the VM (see exec.py).  It saves time, not states: every
   transition is still stepped and checked.

There is no partial-order reduction: every entry point reads ``_phase``
in its prologue and every phase has an action that may write it, so no
enabled action is ever independent of all the others.

Bounded liveness (``MC-LIVE-VERIFY``) is certified once after the
sweep, over the shared graph: every explored state must reach a drained
halt (``_phase`` == halted, balance 0) within ``k_live`` fair steps.
Distances are computed by a backward BFS over the explored edges, then
a forward on-the-fly search over agreeing transitions (memoized against
the distance table) for frontier states the backward pass missed; the
forward searches overlap, and step each (state, action) pair once.  It
is skipped after a funds violation or a divergence: distances over a
broken ledger, or a graph missing the diverging edges, prove nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.crypto.hashing import sha256
from repro.reach.absint.exec import DEPLOY, Lockstep, MCState, Pair
from repro.reach.absint.modelcheck.props import DIVERGENCE, check_transition, halted
from repro.reach.absint.modelcheck.universe import MCConfig, Universe


@dataclass(frozen=True)
class Trace:
    """A violation with the action-index path that witnesses it."""

    theorem: str
    message: str
    steps: tuple[int, ...]  # indices into universe.templates, in order


@dataclass
class MCRun:
    """Everything the lockstep exploration produced."""

    states: int
    transitions: int
    violations: list[Trace]
    space_digest: bytes  # order-independent hash of the reachable digest set
    live_max: int = 0  # worst certified honest distance to the drained halt
    truncated: bool = False  # a bound (depth or max_states) was hit


def _enabled(state: MCState, universe: Universe, phase_count: int) -> list[int]:
    """Indices of the templates enabled in ``state``, in universe order."""
    phase = state.phase()
    if phase == phase_count + 1:
        return []  # halted: terminal
    clock = phase >= 1 and state.now <= state.deadline()
    return [
        index
        for index, template in enumerate(universe.templates)
        if (clock if template.kind == "clock" else template.phase == phase)
    ]


def explore(lockstep: Lockstep, universe: Universe, config: MCConfig, phase_count: int) -> MCRun:
    """Run the bounded lockstep sweep; deterministic end to end."""
    deployed = lockstep.deploy()
    if deployed.divergence:
        trace = Trace(theorem=DIVERGENCE, message="; ".join(deployed.divergence), steps=())
        return MCRun(states=0, transitions=0, violations=[trace], space_digest=sha256(b""))
    if deployed.evm.status != "ok":
        raise ValueError(f"constructor {deployed.evm.status} on both backends: {deployed.evm.error}")
    init_digest = lockstep.digest(deployed.evm.state)

    states: dict[bytes, Pair] = {init_digest: deployed.pair}
    depth: dict[bytes, int] = {init_digest: 0}
    parent: dict[bytes, tuple[bytes, int] | None] = {init_digest: None}
    edges: dict[bytes, list[tuple[int, bytes]]] = {}
    queue: deque[bytes] = deque([init_digest])
    violations: dict[str, Trace] = {}
    transitions = 0
    truncated = False

    def record(theorem: str, message: str, steps: tuple[int, ...]) -> None:
        if theorem not in violations:
            violations[theorem] = Trace(theorem=theorem, message=message, steps=steps)

    def path_to(digest: bytes) -> tuple[int, ...]:
        steps: list[int] = []
        cursor = digest
        while parent[cursor] is not None:
            cursor, index = parent[cursor]
            steps.append(index)
        return tuple(reversed(steps))

    for theorem, message in check_transition(universe, phase_count, lockstep.genesis, DEPLOY, deployed.evm):
        record(theorem, message, ())

    while queue:
        digest = queue.popleft()
        pair = states[digest]
        state = pair.evm
        if halted(state, phase_count):
            continue
        if depth[digest] >= config.depth:
            truncated = True
            continue

        enabled = _enabled(state, universe, phase_count)
        templates = [universe.templates[index] for index in enabled]
        for index, template, result in zip(enabled, templates, lockstep.step_all(pair, templates)):
            transitions += 1
            if result.divergence:
                record(DIVERGENCE, "; ".join(result.divergence), path_to(digest) + (index,))
                continue
            for theorem, message in check_transition(universe, phase_count, state, template, result.evm):
                record(theorem, message, path_to(digest) + (index,))
            successor_digest = result.digest
            if successor_digest is None or successor_digest == digest:
                continue  # rejected, or accepted but changed nothing observable
            edges.setdefault(digest, []).append((index, successor_digest))
            if successor_digest in states:
                continue
            if len(states) >= config.max_states:
                truncated = True
                continue
            states[successor_digest] = result.pair
            depth[successor_digest] = depth[digest] + 1
            parent[successor_digest] = (digest, index)
            queue.append(successor_digest)

    live_max = 0
    if "MC-SAFETY-FUNDS" not in violations and DIVERGENCE not in violations:
        live_max = _certify_liveness(
            lockstep, universe, config, phase_count, states, edges, path_to, record
        )

    space_digest = sha256(b"".join(sorted(states)))
    ordered = sorted(violations.values(), key=lambda trace: trace.theorem)
    return MCRun(
        states=len(states),
        transitions=transitions,
        violations=ordered,
        space_digest=space_digest,
        live_max=live_max,
        truncated=truncated,
    )


def _certify_liveness(
    lockstep: Lockstep,
    universe: Universe,
    config: MCConfig,
    phase_count: int,
    states: dict[bytes, Pair],
    edges: dict[bytes, list[tuple[int, bytes]]],
    path_to: Callable[[bytes], tuple[int, ...]],
    record: Callable[[str, str, tuple[int, ...]], None],
) -> int:
    """Prove every explored state reaches a drained halt within K steps."""
    dist: dict[bytes, int] = {
        digest: 0
        for digest, pair in states.items()
        if halted(pair.evm, phase_count) and pair.evm.balance == 0
    }

    # Backward BFS over the explored transition graph.
    reverse: dict[bytes, list[bytes]] = {}
    for src, outgoing in edges.items():
        for _index, dst in outgoing:
            reverse.setdefault(dst, []).append(src)
    frontier = deque(dist)
    while frontier:
        digest = frontier.popleft()
        for predecessor in reverse.get(digest, ()):
            if predecessor not in dist:
                dist[predecessor] = dist[digest] + 1
                frontier.append(predecessor)

    # The forward searches overlap, so each (state, action) pair is
    # stepped once for all of them: its agreeing successor's digest and
    # pair, and whether that is a drained halt, or None.
    stepped: dict[tuple[bytes, int], tuple[bytes, Pair, bool] | None] = {}

    def successor(pair: Pair, digest: bytes, index: int) -> tuple[bytes, Pair, bool] | None:
        key = (digest, index)
        if key not in stepped:
            result = lockstep.step(pair, universe.templates[index])
            found: tuple[bytes, Pair, bool] | None = None
            if result.digest is not None and not result.divergence:
                state = result.evm.state
                found = (result.digest, result.pair, halted(state, phase_count) and state.balance == 0)
            stepped[key] = found
        return stepped[key]

    def forward_certify(start: bytes) -> int | None:
        """On-the-fly lockstep BFS from an uncovered state, reusing ``dist``."""
        seen: set[bytes] = {start}
        wave: deque[tuple[Pair, bytes, int]] = deque([(states[start], start, 0)])
        while wave:
            pair, digest, steps = wave.popleft()
            known = dist.get(digest)
            if known is not None and steps + known <= config.k_live:
                return steps + known
            if steps >= config.k_live:
                continue
            for index in _enabled(pair.evm, universe, phase_count):
                found = successor(pair, digest, index)
                if found is None or found[0] in seen:
                    continue
                successor_digest, successor_pair, drained = found
                seen.add(successor_digest)
                if drained:
                    return steps + 1
                wave.append((successor_pair, successor_digest, steps + 1))
        return None

    live_max = 0
    for digest in states:
        certified = dist.get(digest)
        if certified is None or certified > config.k_live:
            certified = forward_certify(digest)
            if certified is not None:
                dist[digest] = certified
        if certified is None or certified > config.k_live:
            record(
                "MC-LIVE-VERIFY",
                f"state at depth {len(path_to(digest))} cannot reach a drained halt "
                f"within {config.k_live} fair steps",
                path_to(digest),
            )
            break
        live_max = max(live_max, certified)
    return live_max
