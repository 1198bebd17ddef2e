"""Cross-backend equivalence: seeded vectors stepped in lockstep.

For every entry point, a shared family of IR-derived vectors -- fresh
state, active phase, seeded Map entries, wrong phase, pay mismatch,
zero balance, extreme uints -- seeds one state plus one call, and
:class:`~repro.reach.absint.exec.Lockstep` runs the emitted EVM code
and the assembled TEAL on it: each vector is a depth-1 root of the same
lockstep step the model checker explores with, on its own
:class:`~repro.reach.absint.encode.StateLayout`.  A vector diverges when
the two backends differ in accept or reject, scalar state, Map entries,
outgoing value transfers, emitted events or the return value, all
canonically encoded so connector representation differences (ints vs.
``itob`` bytes, boxes vs. hashed storage slots) never count.

Any disagreement is an ``EQ-DIVERGE`` error in the lint report, which
every deploy path refuses: the two backends would put real users in
different states for the same call.  Results are cached by artifact
content, so re-linting a recompiled contract costs one dictionary
lookup.

:func:`drop_teal_store` and :func:`neutralize_evm_sstore` build
seeded-fault artifacts for testing that the check actually catches
lost writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.chain.ethereum.evm import EvmCode, Instr
from repro.reach.absint.domains import U64_MAX
from repro.reach.absint.encode import StateLayout, artifact_key, scalar_names
from repro.reach.absint.exec import CREATOR, OTHER, ActionTemplate, Lockstep, MCState, Pair, assemble_teal
from repro.reach.compiler import CompiledContract
from repro.reach.ir import IRContract, IRFunction

_BALANCE = 1_000_000
_SEEDED_KEYS = (1, 2)
_SEEDED_VALUE = b"OLC9FX"

#: artifact-content hash -> divergence list
_CACHE: dict[bytes, list[str]] = {}


@dataclass(frozen=True)
class _Vector:
    """One execution vector for one entry point: a state plus a call,
    the call named ``<entry point> [<label>]``.

    ``layout`` tracks every scalar and each Map slot at the vector's
    candidate keys (its uint arguments plus the seeded keys).
    """

    layout: StateLayout
    state: MCState
    call: ActionTemplate


# -- vector construction -------------------------------------------------------


def _sample_arg(kind: str, extreme: bool) -> Any:
    if kind == "uint":
        return U64_MAX if extreme else 5
    if kind == "address":
        return OTHER
    return b"did:sample:42"


def _make_args(function: IRFunction, extreme: bool = False) -> tuple[Any, ...]:
    return tuple(_sample_arg(kind, extreme) for kind in function.params)


def _vectors_for(function: IRFunction, ir: IRContract) -> list[_Vector]:
    slots = ir.map_slots.values()
    base_globals: dict[str, Any] = {"_creator": CREATOR, "_deadline": 100, **ir.globals_init}
    active_globals: dict[str, Any] = {"_creator": CREATOR, "_deadline": 100}
    for gname, initial in ir.globals_init.items():
        active_globals[gname] = 3 if isinstance(initial, int) else initial

    phase = function.phase if function.phase is not None else 0
    args = _make_args(function)
    pay = function.pay_index
    value = args[pay] if pay is not None else 0
    caller = CREATOR if function.name == "publish0" else OTHER

    def vec(
        label: str,
        *,
        caller: str = caller,
        value: int = value,
        args: tuple[Any, ...] = args,
        phase: int = phase,
        globals_base: dict[str, Any] = base_globals,
        scalars: dict[str, Any] | None = None,
        seed_maps: bool = False,
        balance: int = _BALANCE,
        # Timeouts require NOW >= _deadline; APIs don't care, so one
        # late timestamp serves every entry point.
        timestamp: int = 5_000,
    ) -> _Vector:
        if scalars is None:
            scalars = {**globals_base, "_phase": phase}
        keys = sorted({key for key in args if isinstance(key, int)} | set(_SEEDED_KEYS))
        layout = StateLayout(scalar_names(ir), [(slot, key) for slot in slots for key in keys])
        seeded = {(slot, key): _SEEDED_VALUE for slot in slots for key in _SEEDED_KEYS} if seed_maps else {}
        state = MCState.of(layout, scalars, seeded, balance, timestamp)
        name = f"{function.name} [{label}]"
        call = ActionTemplate(name, function.name, caller, args, value, function.phase, kind="api")
        return _Vector(layout=layout, state=state, call=call)

    if function.name == "constructor":
        return [vec("create", caller=CREATOR, value=0, args=(), scalars={}, balance=0, timestamp=1_000)]
    vectors = [
        vec("fresh"),
        vec("active", globals_base=active_globals),
        vec("seeded-map", seed_maps=True),
        vec("wrong-phase", phase=phase + 1),
        vec("zero-balance", balance=0),
    ]
    if function.name == "publish0":
        vectors.append(vec("not-creator", caller=OTHER))
    if pay is not None:
        vectors.append(vec("pay-mismatch", value=value + 1))
    if any(kind == "uint" for kind in function.params):
        extreme = _make_args(function, extreme=True)
        extreme_value = extreme[pay] if pay is not None else 0
        vectors.append(vec("extreme-uint", args=extreme, value=extreme_value))
    if function.name.startswith("timeout_"):
        vectors.append(vec("before-deadline", timestamp=50))
    return vectors


# -- the check -----------------------------------------------------------------


def check_equivalence(compiled: CompiledContract) -> list[str]:
    """Step every vector on both backends; return divergence messages."""
    cache_key = artifact_key(compiled)
    if cache_key in _CACHE:
        return _CACHE[cache_key]
    # Assembled once for every vector; an artifact that does not
    # assemble is a machine error on each of them, not a crash.
    program = assemble_teal(compiled.teal_source)
    divergences: list[str] = []
    ir = compiled.ir
    for function in ir.functions.values():
        for vector in _vectors_for(function, ir):
            lockstep = Lockstep(compiled, program, vector.layout)
            divergences.extend(lockstep.step(Pair(vector.state, vector.state), vector.call).divergence)
    _CACHE[cache_key] = divergences
    return divergences


# -- seeded-fault helpers (for tests and the lint CLI) -------------------------


def drop_teal_store(teal_source: str, n: int = 0) -> str:
    """Remove the ``n``-th store instruction from a TEAL artifact.

    Models a miscompiled backend losing a state write; the equivalence
    check must flag the result.
    """
    lines = teal_source.splitlines()
    seen = 0
    for index, line in enumerate(lines):
        if line.strip() in ("app_global_put", "box_put"):
            if seen == n:
                del lines[index]
                return "\n".join(lines) + "\n"
            seen += 1
    raise ValueError(f"artifact has no store instruction #{n}")


def neutralize_evm_sstore(code: EvmCode, n: int = 0) -> EvmCode:
    """Replace the ``n``-th SSTORE with a JUMPDEST (indices preserved)."""
    instrs = list(code.instrs)
    seen = 0
    for index, instr in enumerate(instrs):
        if instr.op == "SSTORE":
            if seen == n:
                instrs[index] = Instr("JUMPDEST")
                return EvmCode(
                    instrs=instrs, methods=dict(code.methods), init_entry=code.init_entry
                )
            seen += 1
    raise ValueError(f"artifact has no SSTORE #{n}")
