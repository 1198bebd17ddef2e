"""Cross-backend equivalence: differential execution of both artifacts.

For every entry point, the emitted EVM code and the assembled TEAL run
over a shared family of IR-derived vectors -- fresh state, active
phase, seeded Map entries, wrong phase, pay mismatch, zero balance,
extreme uints -- and their *observable* outcomes are diffed: accept or
reject, scalar state, Map entries, outgoing value transfers, emitted
events, and the return value, all canonically encoded so connector
representation differences (ints vs. ``itob`` bytes, boxes vs. hashed
storage slots) never count as divergence.  Each vector is a state plus
a call, run on :mod:`repro.reach.absint.exec` -- the executor the model
checker steps -- so both differential layers execute the artifacts the
same way.

Any disagreement is a compile error (:class:`BackendDivergence`): the
two backends would put real users in different states for the same
call.  Results are cached by artifact content, so recompiling the same
contract costs one dictionary lookup.

:func:`drop_teal_store` and :func:`neutralize_evm_sstore` build
seeded-fault artifacts for testing that the check actually catches
lost writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.chain.algorand.teal import TealProgram, TealSyntaxError, assemble
from repro.chain.ethereum.evm import EvmCode, Instr
from repro.reach.absint.domains import U64_MAX
from repro.reach.absint.encode import StateLayout, artifact_key, canon, scalar_names
from repro.reach.absint.exec import CREATOR, OTHER, ActionTemplate, AvmModel, BackendModel, EvmModel, MCState
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
    the call named by the vector's label.

    ``layout`` tracks every scalar and each Map slot at the vector's
    candidate keys (its uint arguments plus the seeded keys).
    """

    layout: StateLayout
    state: MCState
    call: ActionTemplate


@dataclass
class _Outcome:
    """Canonically-encoded observable effects of one run."""

    status: str  # "ok" | "rejected" | "machine-error: <why>"
    globals: dict[str, bytes]
    maps: dict[tuple[int, int], bytes | None]
    transfers: tuple[tuple[str, int], ...]
    events: tuple[Any, ...]
    ret: bytes | None


# -- vector construction -------------------------------------------------------


def _sample_arg(kind: str, extreme: bool) -> Any:
    if kind == "uint":
        return U64_MAX if extreme else 5
    if kind == "address":
        return OTHER
    return b"did:sample:42"


def _make_args(function: IRFunction, extreme: bool = False) -> tuple[Any, ...]:
    return tuple(_sample_arg(kind, extreme) for kind in function.params)


def _vector(
    ir: IRContract,
    function: IRFunction,
    label: str,
    *,
    caller: str,
    value: int,
    args: tuple[Any, ...],
    scalars: dict[str, Any],
    seed_maps: bool,
    timestamp: int,
    balance: int,
) -> _Vector:
    keys = sorted({key for key in args if isinstance(key, int)} | set(_SEEDED_KEYS))
    slots = ir.map_slots.values()
    layout = StateLayout(scalar_names(ir), [(slot, key) for slot in slots for key in keys])
    seeded = [((slot, key), _SEEDED_VALUE) for slot in slots for key in _SEEDED_KEYS] if seed_maps else []
    state = MCState(
        scalars=tuple((name, scalars[name]) for name in layout.names if name in scalars),
        maps=tuple(seeded),
        balance=balance,
        now=timestamp,
    )
    call = ActionTemplate(
        name=label, fn=function.name, caller=caller, args=args, value=value, phase=function.phase, kind="api"
    )
    return _Vector(layout=layout, state=state, call=call)


def _vectors_for(function: IRFunction, ir: IRContract) -> list[_Vector]:
    if function.name == "constructor":
        return [
            _vector(
                ir,
                function,
                "create",
                caller=CREATOR,
                value=0,
                args=(),
                scalars={},
                seed_maps=False,
                timestamp=1_000,
                balance=0,
            )
        ]

    base_globals: dict[str, Any] = {"_creator": CREATOR, "_deadline": 100, **ir.globals_init}
    active_globals: dict[str, Any] = {"_creator": CREATOR, "_deadline": 100}
    for gname, initial in ir.globals_init.items():
        active_globals[gname] = 3 if isinstance(initial, int) else initial

    phase = function.phase if function.phase is not None else 0
    args = _make_args(function)
    pay = function.pay_index
    value = args[pay] if pay is not None else 0
    # Timeouts require NOW >= _deadline; APIs don't care, so one late
    # timestamp serves every entry point.
    timestamp = 5_000

    def vec(
        label: str,
        *,
        caller: str = OTHER,
        value: int = value,
        args: tuple[Any, ...] = args,
        phase: int = phase,
        seed_maps: bool = False,
        balance: int = _BALANCE,
        timestamp: int = timestamp,
        globals_base: dict[str, Any] | None = None,
    ) -> _Vector:
        scalars = dict(globals_base if globals_base is not None else base_globals)
        scalars["_phase"] = phase
        return _vector(
            ir,
            function,
            label,
            caller=caller,
            value=value,
            args=args,
            scalars=scalars,
            seed_maps=seed_maps,
            timestamp=timestamp,
            balance=balance,
        )

    caller = CREATOR if function.name == "publish0" else OTHER
    vectors = [
        vec("fresh", caller=caller),
        vec("active", caller=caller, globals_base=active_globals),
        vec("seeded-map", caller=caller, seed_maps=True),
        vec("wrong-phase", caller=caller, phase=phase + 1),
        vec("zero-balance", caller=caller, balance=0),
    ]
    if function.name == "publish0":
        vectors.append(vec("not-creator", caller=OTHER))
    if pay is not None:
        vectors.append(vec("pay-mismatch", caller=caller, value=value + 1))
    if any(kind == "uint" for kind in function.params):
        extreme = _make_args(function, extreme=True)
        extreme_value = extreme[pay] if pay is not None else 0
        vectors.append(vec("extreme-uint", caller=caller, args=extreme, value=extreme_value))
    if function.name.startswith("timeout_"):
        vectors.append(vec("before-deadline", caller=caller, timestamp=50))
    return vectors


# -- running a vector ----------------------------------------------------------


def _observe(model: BackendModel, function: IRFunction, vector: _Vector) -> _Outcome:
    """Run one vector on one backend and canonicalise what it observably did."""
    result = model.step(vector.state, vector.call)
    if result.status != "ok":
        status = "rejected" if result.status == "rejected" else f"machine-error: {result.error}"
        return _Outcome(status, {}, {}, (), (), None)
    scalars = {name: canon(value) for name, value in result.state.scalars}
    present = dict(result.state.maps)
    maps = {entry: canon(present[entry]) if entry in present else None for entry in vector.layout.entries}
    if model.backend == "evm":
        events = tuple((event, tuple(canon(item) for item in payload)) for event, payload in result.logs)
        ret = result.ret
    else:
        events, ret = _parse_avm_logs(result.logs)
        if ret is not None and function.ret_kind == "uint":
            ret = int.from_bytes(ret, "big")
    ret_bytes = None if function.ret_kind is None or ret is None else canon(ret)
    return _Outcome("ok", scalars, maps, result.transfers, events, ret_bytes)


def _parse_avm_logs(logs: tuple[bytes, ...]) -> tuple[tuple[Any, ...], bytes | None]:
    """Split app logs into decoded events and the trailing return log."""
    events = []
    ret_log = None
    index = 0
    while index < len(logs):
        entry = logs[index]
        if entry.startswith(b"evt:"):
            name, _, argc_text = entry[4:].decode().rpartition("/")
            argc = int(argc_text)
            # The TEAL lowering logs values top-of-stack first, i.e. in
            # reverse source order.
            payload = tuple(reversed(logs[index + 1 : index + 1 + argc]))
            events.append((name, payload))
            index += 1 + argc
        else:
            ret_log = entry
            index += 1
    return tuple(events), ret_log


# -- the check -----------------------------------------------------------------


def _diff(function: IRFunction, vector: _Vector, evm: _Outcome, avm: _Outcome) -> list[str]:
    where = f"{function.name} [{vector.call.name}]"
    if evm.status != avm.status:
        return [f"{where}: EVM {evm.status} but AVM {avm.status}"]
    if evm.status != "ok":
        return []
    problems = []
    for gname in evm.globals:
        if evm.globals[gname] != avm.globals[gname]:
            problems.append(
                f"{where}: global {gname!r} differs "
                f"(EVM {evm.globals[gname]!r}, AVM {avm.globals[gname]!r})"
            )
    for entry_key in evm.maps:
        if evm.maps[entry_key] != avm.maps[entry_key]:
            problems.append(
                f"{where}: map entry {entry_key} differs "
                f"(EVM {evm.maps[entry_key]!r}, AVM {avm.maps[entry_key]!r})"
            )
    if evm.transfers != avm.transfers:
        problems.append(
            f"{where}: transfers differ (EVM {evm.transfers}, AVM {avm.transfers})"
        )
    if evm.events != avm.events:
        problems.append(f"{where}: events differ (EVM {evm.events}, AVM {avm.events})")
    if evm.ret != avm.ret:
        problems.append(f"{where}: return value differs (EVM {evm.ret!r}, AVM {avm.ret!r})")
    return problems


def check_equivalence(compiled: CompiledContract) -> list[str]:
    """Diff both backends over shared vectors; return divergence messages."""
    cache_key = artifact_key(compiled)
    if cache_key in _CACHE:
        return _CACHE[cache_key]
    # Assembled once for every vector; an artifact that does not
    # assemble is a machine error on each of them, not a crash.
    program: TealProgram | None = None
    try:
        program = assemble(compiled.teal_source)
    except TealSyntaxError as error:
        unassembled = _Outcome(f"machine-error: {error}", {}, {}, (), (), None)
    divergences: list[str] = []
    ir = compiled.ir
    for function in ir.functions.values():
        for vector in _vectors_for(function, ir):
            evm_outcome = _observe(EvmModel(compiled.evm_code, vector.layout), function, vector)
            if program is None:
                avm_outcome = unassembled
            else:
                avm_outcome = _observe(AvmModel(program, vector.layout), function, vector)
            divergences.extend(_diff(function, vector, evm_outcome, avm_outcome))
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
