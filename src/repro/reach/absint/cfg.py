"""Basic-block CFG construction over flat instruction lists.

Shared by the fixpoint engine (IR functions) and the cost analysis
(generated EVM instructions and assembled TEAL).  The builder is
generic: callers describe an instruction stream through a *successor
function* mapping an instruction index to its outgoing edges, and the
builder finds leaders, slices blocks and wires edges.

Edges are labelled so path-sensitive analyses can refine per edge:
``"fall"`` (sequential), ``"jump"`` (unconditional), ``"true"`` /
``"false"`` (the taken / not-taken legs of a conditional branch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.reach.ir import IRFunction

#: (successor index, edge label); an empty list terminates the path
Edge = tuple[int, str]
SuccessorFn = Callable[[int], list[Edge]]


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions."""

    start: int  # first instruction index
    end: int  # one past the last instruction index
    edges: list[tuple[int, str]] = field(default_factory=list)  # (target block start, label)


@dataclass
class CFG:
    """Blocks keyed by their start index, plus the entry block."""

    entry: int
    blocks: dict[int, BasicBlock]

    def reverse_postorder(self) -> list[int]:
        """Block starts in reverse postorder (a worklist-friendly order)."""
        order: list[int] = []
        _postorder(self.blocks, self.entry, set(), order)
        return list(reversed(order))


# The recursive walks below are module functions rather than closures: a
# closure that calls itself is a reference cycle, and every cold lint
# would leave its CFGs and instruction streams to the cycle collector.


def _postorder(blocks: dict[int, BasicBlock], start: int, seen: set[int], order: list[int]) -> None:
    """Append the blocks reachable from ``start`` to ``order`` in postorder."""
    seen.add(start)
    for target, _ in blocks[start].edges:
        if target not in seen:
            _postorder(blocks, target, seen, order)
    order.append(start)


def build_cfg(length: int, entry: int, successors: SuccessorFn) -> CFG:
    """Slice ``[entry, length)`` into basic blocks reachable from ``entry``."""
    # Leaders: the entry, every branch target, every post-branch index.
    leaders: set[int] = {entry}
    reachable: set[int] = set()
    frontier = [entry]
    while frontier:
        index = frontier.pop()
        if index in reachable or not 0 <= index < length:
            continue
        reachable.add(index)
        edges = successors(index)
        if len(edges) != 1 or edges[0][0] != index + 1:
            for target, _ in edges:
                leaders.add(target)
            if edges and any(target != index + 1 for target, _ in edges):
                leaders.add(index + 1)
        frontier.extend(target for target, _ in edges)

    blocks: dict[int, BasicBlock] = {}
    for start in sorted(leader for leader in leaders if leader in reachable):
        index = start
        while True:
            edges = successors(index)
            is_last = (
                not edges
                or len(edges) != 1
                or edges[0][0] != index + 1
                or index + 1 in leaders
            )
            if is_last:
                block = BasicBlock(start=start, end=index + 1)
                block.edges = [(target, label) for target, label in edges]
                blocks[start] = block
                break
            index += 1
    return CFG(entry=entry, blocks=blocks)


def ir_successors(function: IRFunction) -> SuccessorFn:
    """The successor function for one IR entry point."""
    labels = function.label_targets()
    instrs = function.instrs

    def successors(index: int) -> list[Edge]:
        op = instrs[index]
        if op.op == "RET":
            return []
        if op.op == "JUMP":
            return [(labels[op.arg], "jump")]
        if op.op == "JUMPF":
            # fallthrough = condition true, target = condition false
            return [(index + 1, "true"), (labels[op.arg], "false")]
        if index + 1 >= len(instrs):
            return []
        return [(index + 1, "fall")]

    return successors


def build_ir_cfg(function: IRFunction) -> CFG:
    """The CFG of one lowered entry point."""
    return build_cfg(len(function.instrs), 0, ir_successors(function))


def path_bounds(
    length: int,
    entry: int,
    successors: SuccessorFn,
    cost_of: Callable[[int], tuple[int, int]],
    terminal_ok: Callable[[int], bool] | None = None,
) -> tuple[int, int | None]:
    """Min/max total cost over all paths from ``entry`` to a terminator.

    ``cost_of`` gives each instruction's ``(lo, hi)`` cost.  Works on
    any DAG-shaped stream (the DSL has no intra-method loops; both
    backends only branch forward).  A cycle, should one ever appear,
    degrades gracefully: the max bound becomes None (unbounded) and the
    min bound ignores the back edge.

    ``terminal_ok`` filters which terminators count as path ends (e.g.
    excluding ``err``-rejection paths when bounding successful runs);
    by default every terminator counts.
    """
    result = _PathBounds(length, successors, cost_of, terminal_ok).bounds(entry)
    if result is None:
        return (0, 0)
    return result


@dataclass
class _PathBounds:
    """The memoized depth-first walk behind :func:`path_bounds`."""

    length: int
    successors: SuccessorFn
    cost_of: Callable[[int], tuple[int, int]]
    terminal_ok: Callable[[int], bool] | None
    memo: dict[int, tuple[int, int | None]] = field(default_factory=dict)
    in_progress: set[int] = field(default_factory=set)

    def bounds(self, index: int) -> tuple[int, int | None] | None:
        """(lo, hi) from ``index`` to any terminal; None if no terminal."""
        memo, in_progress = self.memo, self.in_progress
        if index in memo:
            return memo[index]
        if index in in_progress:  # a cycle: no finite bound through here
            return (0, None)
        if not 0 <= index < self.length:
            return None
        in_progress.add(index)
        lo_cost, hi_cost = self.cost_of(index)
        edges = self.successors(index)
        if not edges:
            in_progress.discard(index)
            if self.terminal_ok is not None and not self.terminal_ok(index):
                return None
            result = (lo_cost, hi_cost)
            memo[index] = result
            return result
        child_bounds = [self.bounds(target) for target, _ in edges]
        child_bounds = [b for b in child_bounds if b is not None]
        in_progress.discard(index)
        if not child_bounds:
            return None
        lo = lo_cost + min(b[0] for b in child_bounds)
        if any(b[1] is None for b in child_bounds) or hi_cost is None:
            hi = None
        else:
            hi = hi_cost + max(b[1] for b in child_bounds)
        memo[index] = (lo, hi)
        return (lo, hi)
