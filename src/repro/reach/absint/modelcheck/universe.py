"""The action universe: every adversarial move the explorer can make.

A model-checking run explores *all* interleavings of a finite set of
:class:`ActionTemplate`\\ s -- concrete (entry point, caller, arguments,
pay value) tuples derived from the contract's AST and IR.  The universe
is deliberately adversarial: it includes replayed calls (the same
screened create twice), front-run anchors (two different batch roots
competing for one batch id), wrong-caller attempts at creator-gated
entry points, and a ``@clock`` pseudo-action that rushes the consensus
time past the phase deadline so timeout paths interleave with live
traffic.  Silent participants need no template at all -- *not* taking
an action is every prefix of the exploration tree.

Argument domains are kept minimal-but-distinguishing (two Map keys, two
pay amounts, two batch roots) so the bounded state space stays small
while still separating "replay of the same key" from "a second honest
user" and "the same root re-anchored" from "a front-runner's different
root".

The universe also carries the static artifacts the other model-checker
layers need: the replay *screens* found in the IR (the
``ARG; MHAS; NOT; REQUIRE`` guard pattern) and the *consumer* functions
allowed to delete Map entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator

from repro.reach import ast as A
from repro.reach.absint.exec import CREATOR, OTHER, ActionTemplate
from repro.reach.compiler import CompiledContract
from repro.reach.ir import IRContract, IRFunction

#: payout target for Address-typed arguments
WALLET = "0x" + "77" * 20


@dataclass(frozen=True)
class MCConfig:
    """Bounds for one model-checking run (all deterministic)."""

    depth: int = 12  # BFS depth bound (actions per trace)
    k_live: int = 16  # bounded-liveness horizon
    keys: tuple[int, ...] = (1, 2)  # Map key domain
    max_states: int = 20_000  # hard state-count safety valve


#: the pseudo-action that advances consensus time past ``_deadline``
CLOCK = ActionTemplate(name="@clock", fn="", caller="", args=(), value=0, phase=None, kind="clock")


@dataclass(frozen=True)
class Screen:
    """A replay screen: ``require(!map.has(arg(i)))`` guarding a create."""

    fn: str
    arg_index: int
    slot: int


@dataclass
class Universe:
    """Everything derived once per contract for a checking run."""

    templates: tuple[ActionTemplate, ...]
    screens: tuple[Screen, ...] = ()
    consumer_slots: dict[str, frozenset[int]] = field(default_factory=dict)
    batch_slots: frozenset[int] = frozenset()
    keys: tuple[int, ...] = (1, 2)

    def screens_of(self, fn: str) -> list[Screen]:
        return [screen for screen in self.screens if screen.fn == fn]


# -- IR pattern scans ----------------------------------------------------------


def find_screens(ir: IRContract) -> tuple[Screen, ...]:
    """Find every ``ARG; MHAS; NOT; REQUIRE`` replay screen in the IR."""
    screens: list[Screen] = []
    for fn in ir.functions.values():
        ops = fn.instrs
        for i in range(len(ops) - 3):
            if (
                ops[i].op == "ARG"
                and ops[i + 1].op == "MHAS"
                and ops[i + 2].op == "NOT"
                and ops[i + 3].op == "REQUIRE"
            ):
                screens.append(Screen(fn=fn.name, arg_index=ops[i].arg, slot=ops[i + 1].arg))
    return tuple(screens)


def find_consumers(ir: IRContract) -> dict[str, frozenset[int]]:
    """Map each function to the Map slots it may legitimately delete."""
    consumers: dict[str, frozenset[int]] = {}
    for fn in ir.functions.values():
        slots = frozenset(op.arg for op in fn.instrs if op.op == "MDEL")
        if slots:
            consumers[fn.name] = slots
    return consumers


def batch_slots_of(ir: IRContract) -> frozenset[int]:
    """Slots of Maps whose declared name marks them as batch anchors."""
    return frozenset(slot for name, slot in ir.map_slots.items() if "batch" in name)


def _creator_gated(fn: IRFunction) -> bool:
    """True when the entry point compares the caller to ``_creator``."""
    return any(op.op == "GLOAD" and op.arg == "_creator" for op in fn.instrs)


# -- argument domains ----------------------------------------------------------


def _key_arg_indices(body: tuple[A.Stmt, ...] | tuple[A.Expr, ...]) -> set[int]:
    """Argument indices used as Map keys anywhere in ``body``."""
    return {
        node.key.index
        for node in _nodes(body)
        if isinstance(node, (A.MapGetOr, A.MapContains, A.MapSet, A.MapDelete)) and isinstance(node.key, A.ArgRef)
    }


def _anchored_bytes_indices(body: tuple[A.Stmt, ...] | tuple[A.Expr, ...]) -> set[int]:
    """Args written verbatim into any Map (the clobber/front-run surface).

    Batch roots are the headline case (two roots competing for one
    batch id), but *any* map-stored payload needs a two-value domain:
    a single value cannot distinguish "replay wrote the same record"
    from "a conflicting write clobbered an anchored record".
    """
    return {
        node.value.index for node in _nodes(body) if isinstance(node, A.MapSet) and isinstance(node.value, A.ArgRef)
    }


def _nodes(body: tuple[A.Stmt, ...] | tuple[A.Expr, ...]) -> Iterator[object]:
    """Every statement and expression in ``body``, nested ones included."""
    stack: list[object] = list(body)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(_children(node))


def _children(node: object) -> Iterator[object]:
    if isinstance(node, A.BinOp):
        yield node.left
        yield node.right
    elif isinstance(node, A.UnOp):
        yield node.operand
    elif isinstance(node, A.MapGetOr):
        yield node.key
        yield node.default
    elif isinstance(node, (A.MapContains, A.MapDelete)):
        yield node.key
    elif isinstance(node, A.MapSet):
        yield node.key
        yield node.value
    elif isinstance(node, A.SetGlobal):
        yield node.value
    elif isinstance(node, A.If):
        yield node.cond
        yield from node.then
        yield from node.orelse
    elif isinstance(node, A.Require):
        yield node.cond
    elif isinstance(node, A.Transfer):
        yield node.to
        yield node.amount
    elif isinstance(node, A.Log):
        yield from node.values
    elif isinstance(node, A.Return):
        if node.value is not None:
            yield node.value


def _pay_scale(ir: IRContract) -> int:
    """The contract's native money scale: its largest integer global."""
    amounts = [value for value in ir.globals_init.values() if isinstance(value, int) and value > 0]
    return max(amounts, default=100)


def _arg_domains(
    fn: IRFunction,
    key_indices: set[int],
    anchored_indices: set[int],
    config: MCConfig,
    scale: int,
    opening: bool,
) -> list[tuple[object, ...]]:
    """Per-parameter candidate values, smallest distinguishing sets.

    ``opening`` marks the one-shot publish: it happens exactly once at
    the root of the tree, so a single key and a single payload suffice
    there -- the adversarial second value only matters on actions that
    can race an existing entry.
    """
    domains: list[tuple[object, ...]] = []
    for index, kind in enumerate(fn.params):
        if kind == "uint":
            if index in key_indices:
                domains.append((config.keys[0],) if opening else tuple(config.keys))
            elif index == fn.pay_index:
                domains.append((scale, max(1, scale // 2)))
            else:
                domains.append((1,))
        elif kind == "address":
            domains.append((WALLET,))
        else:  # bytes
            if index in anchored_indices and not opening:
                domains.append((b"root:A", b"root:B"))
            else:
                domains.append((b"D",))
    return domains


# -- universe construction -----------------------------------------------------


def _render(fn: IRFunction, caller: str, args: tuple, value: int) -> str:
    shown = []
    for raw in args:
        if isinstance(raw, bytes):
            shown.append(raw.decode("latin-1"))
        elif isinstance(raw, str) and raw.startswith("0x"):
            shown.append(raw[:6] + "..")
        else:
            shown.append(str(raw))
    tag = "" if caller != CREATOR else "!"  # creator-called actions marked
    pay = f" pays {value}" if value else ""
    return f"{fn.name}({', '.join(shown)}){pay}{tag}"


def derive_universe(compiled: CompiledContract, config: MCConfig | None = None) -> Universe:
    """Build the full adversarial action universe for one contract."""
    config = config or MCConfig()
    ir = compiled.ir
    program = compiled.program
    scale = _pay_scale(ir)

    key_args: dict[str, set[int]] = {"publish0": _key_arg_indices(program.publish_body)}
    anchored_args: dict[str, set[int]] = {"publish0": _anchored_bytes_indices(program.publish_body)}
    for qualified, _phase_index, method in program.all_methods():
        key_args[qualified] = _key_arg_indices(method.body)
        anchored_args[qualified] = _anchored_bytes_indices(method.body)

    templates: list[ActionTemplate] = []
    for fname in sorted(ir.functions):
        fn = ir.functions[fname]
        if fname == "constructor":
            continue  # deploy is the fixed initial transition, not a move
        kind = "publish" if fname == "publish0" else ("timeout" if fname.startswith("timeout_") else "api")
        gated = _creator_gated(fn)
        callers = (CREATOR, OTHER) if gated else (OTHER,)
        domains = _arg_domains(
            fn, key_args.get(fname, set()), anchored_args.get(fname, set()), config, scale,
            opening=kind == "publish",
        )
        for caller in callers:
            for args in product(*domains) if domains else ((),):
                value = args[fn.pay_index] if fn.pay_index is not None else 0
                templates.append(
                    ActionTemplate(
                        name=_render(fn, caller, tuple(args), value),
                        fn=fname,
                        caller=caller,
                        args=tuple(args),
                        value=value,
                        phase=fn.phase,
                        kind=kind,
                    )
                )
    templates.append(CLOCK)

    return Universe(
        templates=tuple(templates),
        screens=find_screens(ir),
        consumer_slots=find_consumers(ir),
        batch_slots=batch_slots_of(ir),
        keys=tuple(config.keys),
    )
