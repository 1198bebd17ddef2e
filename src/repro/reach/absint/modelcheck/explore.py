"""The bounded explicit-state explorer and liveness certifier.

One :func:`explore` call runs breadth-first search from the deployed
state over every enabled action template, deduplicating states by
canonical digest, checking the safety monitors on *every* executed
transition (including rejected attempts -- replay safety is a theorem
about rejections), and keeping BFS parent pointers so any violation
yields a shortest-by-construction counterexample trace.

Tractability comes from three reductions:

1. **state-digest deduplication** -- interleavings that commute into
   the same protocol state collapse to one node;
2. **caller symmetry** -- the universe models one adversarial address,
   since no contract state is keyed by caller (see universe.py);
3. **no-progress pruning** -- accepted calls that leave the digest
   unchanged (and every rejected call) produce no new node.

There is no partial-order reduction: every entry point reads ``_phase``
in its prologue and every phase has an action that may write it, so no
enabled action is ever independent of all the others.

Bounded liveness (``MC-LIVE-VERIFY``) is certified after the sweep:
every explored state must reach a drained halt (``_phase`` == halted,
balance 0) within ``k_live`` fair steps.  Distances are computed by a
backward BFS over the explored edges, then a forward on-the-fly search
(memoized against the distance table) for frontier states the backward
pass missed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.crypto.hashing import sha256
from repro.reach.absint.exec import BackendModel, MCState
from repro.reach.absint.modelcheck.props import check_state, check_transition, halted
from repro.reach.absint.modelcheck.universe import MCConfig, Universe


@dataclass(frozen=True)
class Trace:
    """A violation with the action-index path that witnesses it."""

    theorem: str
    message: str
    steps: tuple[int, ...]  # indices into universe.templates, in order


@dataclass
class MCRun:
    """Everything one backend's exploration produced."""

    backend: str
    states: int
    transitions: int
    violations: list[Trace]
    space_digest: bytes  # order-independent hash of the reachable digest set
    digests: frozenset[bytes] = field(repr=False, default=frozenset())
    live_max: int = 0  # worst certified honest distance to the drained halt
    truncated: bool = False  # a bound (depth or max_states) was hit

    @property
    def ok(self) -> bool:
        return not self.violations


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


def explore(model: BackendModel, universe: Universe, config: MCConfig, phase_count: int) -> MCRun:
    """Run the bounded sweep on one backend; deterministic end to end."""
    deployed = model.deploy()
    if deployed.status != "ok":
        raise ValueError(f"{model.backend} constructor {deployed.status}: {deployed.error}")
    init_digest = model.digest(deployed.state)

    states: dict[bytes, MCState] = {init_digest: deployed.state}
    # The same map by value: most accepted steps land on a state already
    # explored, and looking an (immutable) state up is far cheaper than
    # re-encoding and hashing it.  Equal states encode equally, since the
    # VM stores hold only ints, bytes and strs.
    known: dict[MCState, bytes] = {deployed.state: init_digest}
    depth: dict[bytes, int] = {init_digest: 0}
    parent: dict[bytes, tuple[bytes, int] | None] = {init_digest: None}
    edges: dict[bytes, list[tuple[int, bytes]]] = {}
    queue: deque[bytes] = deque([init_digest])
    violations: dict[str, Trace] = {}
    transitions = 0
    truncated = False

    def path_to(digest: bytes) -> tuple[int, ...]:
        steps: list[int] = []
        cursor = digest
        while parent[cursor] is not None:
            cursor, index = parent[cursor]
            steps.append(index)
        return tuple(reversed(steps))

    def record(theorem: str, message: str, steps: tuple[int, ...]) -> None:
        if theorem not in violations:
            violations[theorem] = Trace(theorem=theorem, message=message, steps=steps)

    for theorem, message in check_state(phase_count, deployed.state):
        record(theorem, message, ())

    while queue:
        digest = queue.popleft()
        state = states[digest]
        if halted(state, phase_count):
            continue
        if depth[digest] >= config.depth:
            truncated = True
            continue

        for index in _enabled(state, universe, phase_count):
            template = universe.templates[index]
            result = model.step(state, template)
            transitions += 1
            for theorem, message in check_transition(universe, phase_count, state, template, result):
                record(theorem, message, path_to(digest) + (index,))
            if result.status != "ok":
                continue
            successor_digest = known.get(result.state) or model.digest(result.state)
            if successor_digest == digest:
                continue  # accepted but changed nothing observable
            edges.setdefault(digest, []).append((index, successor_digest))
            if successor_digest in states:
                continue
            if len(states) >= config.max_states:
                truncated = True
                continue
            states[successor_digest] = result.state
            known[result.state] = successor_digest
            depth[successor_digest] = depth[digest] + 1
            parent[successor_digest] = (digest, index)
            queue.append(successor_digest)
            for theorem, message in check_state(phase_count, result.state):
                record(theorem, message, path_to(successor_digest))

    live_max = 0
    if "MC-SAFETY-FUNDS" not in violations:
        live_max = _certify_liveness(
            model, universe, config, phase_count, states, edges, parent, violations, record
        )

    digest_set = frozenset(states)
    space_digest = sha256(b"".join(sorted(digest_set)))
    ordered = sorted(violations.values(), key=lambda trace: trace.theorem)
    return MCRun(
        backend=model.backend,
        states=len(states),
        transitions=transitions,
        violations=ordered,
        space_digest=space_digest,
        digests=digest_set,
        live_max=live_max,
        truncated=truncated,
    )


def _certify_liveness(
    model: BackendModel,
    universe: Universe,
    config: MCConfig,
    phase_count: int,
    states: dict[bytes, MCState],
    edges: dict[bytes, list[tuple[int, bytes]]],
    parent: dict[bytes, tuple[bytes, int] | None],
    violations: dict[str, Trace],
    record,
) -> int:
    """Prove every explored state reaches a drained halt within K steps."""
    dist: dict[bytes, int] = {
        digest: 0
        for digest, state in states.items()
        if halted(state, phase_count) and state.balance == 0
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

    def forward_certify(start: bytes) -> int | None:
        """On-the-fly BFS from an uncovered state, reusing ``dist``."""
        seen: set[bytes] = {start}
        wave: deque[tuple[MCState, bytes, int]] = deque([(states[start], start, 0)])
        while wave:
            state, digest, steps = wave.popleft()
            known = dist.get(digest)
            if known is not None and steps + known <= config.k_live:
                return steps + known
            if steps >= config.k_live:
                continue
            for index in _enabled(state, universe, phase_count):
                result = model.step(state, universe.templates[index])
                if result.status != "ok":
                    continue
                successor_digest = model.digest(result.state)
                if successor_digest in seen:
                    continue
                seen.add(successor_digest)
                if halted(result.state, phase_count) and result.state.balance == 0:
                    return steps + 1
                wave.append((result.state, successor_digest, steps + 1))
        return None

    def path_to(digest: bytes) -> tuple[int, ...]:
        steps: list[int] = []
        cursor = digest
        while parent[cursor] is not None:
            cursor, index = parent[cursor]
            steps.append(index)
        return tuple(reversed(steps))

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
