"""The Algorand Virtual Machine: a stack engine for TEAL programs.

"AVM contains a stack engine that evaluates smart contracts" (thesis
1.4.2.2).  Faithful behaviours:

- stateful applications with global key-value state and box storage
  (the thesis's Reach Map lands in boxes, per its Algorand
  box-storage discussion);
- an opcode budget per application call (panics when exhausted);
- ``assert``/``err`` panics abort the call with no state change;
- inner payment transactions spend from the application account;
- approval = top of stack non-zero at ``return``.

A program is decoded once into ``(handler, immediate)`` pairs (cached on
the :class:`TealProgram`): branch targets, ``txn``/``global`` field
getters and malformed instructions are all resolved at decode time, so
the dispatch loop only fetches, counts against the budget and calls.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable

from repro.crypto.hashing import sha256
from repro.chain.algorand.teal import TealInstr, TealProgram

#: Real TEAL has a 700-op budget per app call, pooled across grouped
#: transactions.  The Reach runtime groups budget transactions as needed;
#: we model the pooled ceiling directly.
DEFAULT_OPCODE_BUDGET = 700
MAX_BUDGET_POOL = 16

_U64 = 2**64


class AvmError(Exception):
    """Malformed program, stack misuse, or a value with no uint64 encoding."""


class AvmPanic(Exception):
    """An ``assert``/``err`` failure or exhausted budget; call rejected."""


@dataclass
class Application:
    """An on-chain stateful application."""

    app_id: int
    approval: TealProgram
    creator: str
    address: str  # the application account that can hold/spend Algos
    global_state: dict[bytes, Any] = field(default_factory=dict)
    boxes: dict[bytes, bytes] = field(default_factory=dict)
    opted_in: set[str] = field(default_factory=set)


@dataclass
class AvmResult:
    """Outcome of an approved application call."""

    approved: bool
    ops_used: int
    logs: list[bytes] = field(default_factory=list)
    global_writes: dict[bytes, Any] = field(default_factory=dict)
    global_deletes: set[bytes] = field(default_factory=set)
    box_writes: dict[bytes, bytes] = field(default_factory=dict)
    box_deletes: set[bytes] = field(default_factory=set)
    inner_payments: list[tuple[str, int]] = field(default_factory=list)
    return_value: Any = None


@dataclass
class CallContext:
    """Fields visible to ``txn``/``global``/``txna`` opcodes."""

    sender: str
    application_id: int
    app_args: list[Any]
    amount: int = 0
    round: int = 0
    timestamp: float = 0.0
    app_address: str = ""
    app_balance: int = 0
    budget_pool: int = 1  # grouped budget transactions (>=1)


class _Frame:
    """The mutable state of one application call."""

    __slots__ = (
        "app", "ctx", "stack", "call_stack", "global_writes", "global_deletes",
        "box_writes", "box_deletes", "inner_payments", "logs", "spent",
    )

    def __init__(self, app: Application, ctx: CallContext) -> None:
        self.app = app
        self.ctx = ctx
        self.stack: list[Any] = []
        self.call_stack: list[int] = []
        self.global_writes: dict[bytes, Any] = {}
        self.global_deletes: set[bytes] = set()
        self.box_writes: dict[bytes, bytes] = {}
        self.box_deletes: set[bytes] = set()
        self.inner_payments: list[tuple[str, int]] = []
        self.logs: list[bytes] = []
        self.spent = 0


class _Return(Exception):
    """Raised by an approving ``return`` to leave the dispatch loop."""


#: a handler executes one instruction and returns the next pc
Handler = Callable[[_Frame, Any, int], int]
Decoded = list[tuple[Handler, Any]]


class AVM:
    """Interprets a :class:`TealProgram` against an :class:`Application`."""

    def execute(self, app: Application, ctx: CallContext) -> AvmResult:
        """Run the approval program; raise :class:`AvmPanic` on rejection."""
        budget = DEFAULT_OPCODE_BUDGET * min(max(ctx.budget_pool, 1), MAX_BUDGET_POOL)
        program = _decoded(app.approval)
        frame = _Frame(app, ctx)
        ops_used = 0
        pc = 0
        # Handlers pop with bare ``list.pop()``; the IndexError of an
        # empty stack is the machine's stack underflow.
        try:
            while True:
                handler, arg = program[pc]
                ops_used += 1
                if ops_used > budget:
                    if handler is _pc_out_of_range:
                        handler(frame, arg, pc)
                    raise AvmPanic("opcode budget exhausted")
                pc = handler(frame, arg, pc)
        except _Return:
            pass
        except IndexError as exc:
            raise AvmError("stack underflow") from exc
        logs = frame.logs
        return AvmResult(
            approved=True,
            ops_used=ops_used,
            logs=logs,
            global_writes=frame.global_writes,
            global_deletes=frame.global_deletes,
            box_writes=frame.box_writes,
            box_deletes=frame.box_deletes,
            inner_payments=frame.inner_payments,
            return_value=logs[-1] if logs else None,
        )


# -- decoding --------------------------------------------------------------------


def _decoded(program: TealProgram) -> Decoded:
    """The program's ``(handler, immediate)`` form, decoded once and cached.

    The decoded list ends with a sentinel that raises the
    program-counter error for a run falling off the end; branches to
    any other index outside the program get a sentinel of their own, so
    the loop never bounds-checks ``pc``.
    """
    cached: Decoded | None = program._decoded
    if cached is not None:
        return cached
    instrs = program.instrs
    size = len(instrs)
    decoded: Decoded = [_decode(instr) for instr in instrs]
    decoded.append((_pc_out_of_range, size))
    escapes: dict[int, int] = {size: size}
    for index, (handler, target) in enumerate(decoded[:size]):
        if handler in _BRANCHES and not 0 <= target < size:
            if target not in escapes:
                escapes[target] = len(decoded)
                decoded.append((_pc_out_of_range, target))
            decoded[index] = (handler, escapes[target])
    program._decoded = decoded
    return decoded


def _decode(instr: TealInstr) -> tuple[Handler, Any]:
    """One instruction's handler and pre-resolved immediate."""
    op = instr.op
    fixed = _FIXED.get(op)
    if fixed is not None:
        return fixed
    if op in ("int", "byte", "addr"):
        return _push, instr.args[0]
    if op in _BRANCH_OPS:
        return _BRANCH_OPS[op], instr.args[0]
    if op in ("txn", "global"):
        getter = (_TXN_FIELDS if op == "txn" else _GLOBAL_FIELDS).get(instr.args[0])
        if getter is None:
            return _fail, f"unsupported {op} field {instr.args[0]}"
        return _field, getter
    if op == "txna":
        fieldname, index = instr.args
        if fieldname != "ApplicationArgs":
            return _fail, f"unsupported txna field {fieldname}"
        return _txna, index
    return _fail, f"unknown opcode {op}"


# -- operand helpers -------------------------------------------------------------


def _pop_int(stack: list[Any]) -> int:
    value = stack.pop()
    if not isinstance(value, int):
        raise AvmError(f"expected uint64, got {type(value).__name__}")
    return value


def _pop_bytes(stack: list[Any]) -> bytes:
    value = stack.pop()
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode()
    raise AvmError(f"expected bytes, got {type(value).__name__}")


def _uint64_bytes(value: int) -> bytes:
    if not 0 <= value < _U64:
        raise AvmError(f"{value} does not fit a uint64")
    return value.to_bytes(8, "big")


def _canonical(value: Any) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, int):
        return _uint64_bytes(value)
    raise AvmError(f"uncomparable value {value!r}")


# -- handlers --------------------------------------------------------------------


def _fail(frame: _Frame, message: str, pc: int) -> int:
    raise AvmError(message)


def _panic(frame: _Frame, message: str, pc: int) -> int:
    raise AvmPanic(message)


def _pc_out_of_range(frame: _Frame, target: int, pc: int) -> int:
    raise AvmError(f"program counter {target} out of range")


def _push(frame: _Frame, value: Any, pc: int) -> int:
    frame.stack.append(value)
    return pc + 1


def _pop(frame: _Frame, arg: None, pc: int) -> int:
    frame.stack.pop()
    return pc + 1


def _dup(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    stack.append(stack[-1])
    return pc + 1


def _dup2(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    if len(stack) < 2:
        raise AvmError("stack underflow on dup2")
    stack.extend(stack[-2:])
    return pc + 1


def _swap(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    stack[-1], stack[-2] = stack[-2], stack[-1]
    return pc + 1


def _arith(frame: _Frame, arg: tuple[Callable[[int, int], int], str], pc: int) -> int:
    """``+ * / %``; a non-empty message is the panic for a zero divisor."""
    fn, zero_divisor = arg
    stack = frame.stack
    b = _pop_int(stack)
    a = _pop_int(stack)
    if zero_divisor and b == 0:
        raise AvmPanic(zero_divisor)
    result = fn(a, b)
    if result >= _U64:
        raise AvmPanic("uint64 overflow")
    stack.append(result)
    return pc + 1


def _sub(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    b = _pop_int(stack)
    a = _pop_int(stack)
    if b > a:
        raise AvmPanic("uint64 underflow")
    if a - b >= _U64:
        raise AvmPanic("uint64 overflow")
    stack.append(a - b)
    return pc + 1


def _compare(frame: _Frame, test: Callable[[int, int], object], pc: int) -> int:
    """``< > <= >= && ||``: pushes 1 when ``test(a, b)`` is truthy."""
    stack = frame.stack
    b = _pop_int(stack)
    stack.append(1 if test(_pop_int(stack), b) else 0)
    return pc + 1


def _equal(frame: _Frame, want: bool, pc: int) -> int:
    """``==`` (``want`` True) and ``!=`` on canonical encodings."""
    stack = frame.stack
    b = stack.pop()
    a = stack.pop()
    # A bytes operand is its own encoding (the selector chain compares
    # every call's first argument against ``byte`` literals).
    same = _canonical(a) == (b if type(b) is bytes else _canonical(b))
    stack.append(1 if same is want else 0)
    return pc + 1


def _not(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    stack.append(1 if _pop_int(stack) == 0 else 0)
    return pc + 1


def _concat(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    b = _pop_bytes(stack)
    stack.append(_pop_bytes(stack) + b)
    return pc + 1


def _of_bytes(frame: _Frame, fn: Callable[[bytes], Any], pc: int) -> int:
    """``len`` and ``sha256``: replace the top bytes with ``fn`` of them."""
    stack = frame.stack
    stack.append(fn(_pop_bytes(stack)))
    return pc + 1


def _itob(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    stack.append(_uint64_bytes(_pop_int(stack)))
    return pc + 1


def _btoi(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    raw = _pop_bytes(stack)
    if len(raw) > 8:
        raise AvmPanic("btoi of more than 8 bytes")
    stack.append(int.from_bytes(raw, "big"))
    return pc + 1


def _field(frame: _Frame, getter: Callable[[CallContext], Any], pc: int) -> int:
    frame.stack.append(getter(frame.ctx))
    return pc + 1


def _txna(frame: _Frame, index: int, pc: int) -> int:
    app_args = frame.ctx.app_args
    if not 0 <= index < len(app_args):
        raise AvmPanic(f"ApplicationArgs index {index} out of range")
    frame.stack.append(app_args[index])
    return pc + 1


def _app_global_put(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    value = stack.pop()
    key = _pop_bytes(stack)
    frame.global_writes[key] = value
    frame.global_deletes.discard(key)
    return pc + 1


def _app_global_get(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    key = _pop_bytes(stack)
    if key in frame.global_deletes:
        stack.append(0)
    elif key in frame.global_writes:
        stack.append(frame.global_writes[key])
    else:
        stack.append(frame.app.global_state.get(key, 0))
    return pc + 1


def _app_global_del(frame: _Frame, arg: None, pc: int) -> int:
    key = _pop_bytes(frame.stack)
    frame.global_writes.pop(key, None)
    frame.global_deletes.add(key)
    return pc + 1


def _box_put(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    value = _pop_bytes(stack)
    key = _pop_bytes(stack)
    frame.box_writes[key] = value
    frame.box_deletes.discard(key)
    return pc + 1


def _box_get(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    key = _pop_bytes(stack)
    if key in frame.box_deletes:
        stack.extend((b"", 0))
    elif key in frame.box_writes:
        stack.extend((frame.box_writes[key], 1))
    elif key in frame.app.boxes:
        stack.extend((frame.app.boxes[key], 1))
    else:
        stack.extend((b"", 0))
    return pc + 1


def _box_del(frame: _Frame, arg: None, pc: int) -> int:
    key = _pop_bytes(frame.stack)
    frame.box_writes.pop(key, None)
    frame.box_deletes.add(key)
    return pc + 1


def _itxn_pay(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    amount = _pop_int(stack)
    receiver = stack.pop()
    if not isinstance(receiver, str):
        receiver = receiver.decode() if isinstance(receiver, bytes) else str(receiver)
    ctx = frame.ctx
    if amount > ctx.app_balance + ctx.amount - frame.spent:
        raise AvmPanic("inner payment exceeds application balance")
    frame.spent += amount
    frame.inner_payments.append((receiver, amount))
    return pc + 1


def _balance(frame: _Frame, arg: None, pc: int) -> int:
    ctx = frame.ctx
    frame.stack.append(ctx.app_balance + ctx.amount - frame.spent)
    return pc + 1


def _log(frame: _Frame, arg: None, pc: int) -> int:
    frame.logs.append(_pop_bytes(frame.stack))
    return pc + 1


def _b(frame: _Frame, target: int, pc: int) -> int:
    return target


def _bz(frame: _Frame, target: int, pc: int) -> int:
    return target if _pop_int(frame.stack) == 0 else pc + 1


def _bnz(frame: _Frame, target: int, pc: int) -> int:
    return target if _pop_int(frame.stack) != 0 else pc + 1


def _callsub(frame: _Frame, target: int, pc: int) -> int:
    frame.call_stack.append(pc + 1)
    return target


def _retsub(frame: _Frame, arg: None, pc: int) -> int:
    if not frame.call_stack:
        raise AvmError("retsub with empty call stack")
    return frame.call_stack.pop()


def _assert(frame: _Frame, arg: None, pc: int) -> int:
    if _pop_int(frame.stack) == 0:
        raise AvmPanic("assert failed")
    return pc + 1


def _return(frame: _Frame, arg: None, pc: int) -> int:
    if _pop_int(frame.stack) == 0:
        raise AvmPanic("approval program rejected")
    raise _Return


#: opcodes whose handler and immediate the opcode alone determines
_FIXED: dict[str, tuple[Handler, Any]] = {
    "pop": (_pop, None),
    "dup": (_dup, None),
    "dup2": (_dup2, None),
    "swap": (_swap, None),
    "+": (_arith, (operator.add, "")),
    "-": (_sub, None),
    "*": (_arith, (operator.mul, "")),
    "/": (_arith, (operator.floordiv, "division by zero")),
    "%": (_arith, (operator.mod, "modulo by zero")),
    "<": (_compare, operator.lt),
    ">": (_compare, operator.gt),
    "<=": (_compare, operator.le),
    ">=": (_compare, operator.ge),
    "&&": (_compare, lambda a, b: a and b),
    "||": (_compare, lambda a, b: a or b),
    "==": (_equal, True),
    "!=": (_equal, False),
    "!": (_not, None),
    "concat": (_concat, None),
    "itob": (_itob, None),
    "btoi": (_btoi, None),
    "len": (_of_bytes, len),
    "sha256": (_of_bytes, sha256),
    "app_global_put": (_app_global_put, None),
    "app_global_get": (_app_global_get, None),
    "app_global_del": (_app_global_del, None),
    "box_put": (_box_put, None),
    "box_get": (_box_get, None),
    "box_del": (_box_del, None),
    "itxn_pay": (_itxn_pay, None),
    "balance": (_balance, None),
    "min_balance": (_push, 100_000),
    "log": (_log, None),
    "retsub": (_retsub, None),
    "assert": (_assert, None),
    "err": (_panic, "err opcode"),
    "return": (_return, None),
}

#: opcodes whose immediate is an instruction index
_BRANCH_OPS: dict[str, Handler] = {"b": _b, "bz": _bz, "bnz": _bnz, "callsub": _callsub}
_BRANCHES = frozenset(_BRANCH_OPS.values())

_TXN_FIELDS: dict[str, Callable[[CallContext], Any]] = {
    "Sender": attrgetter("sender"),
    "ApplicationID": attrgetter("application_id"),
    "NumAppArgs": lambda ctx: len(ctx.app_args),
    "Amount": attrgetter("amount"),
}

_GLOBAL_FIELDS: dict[str, Callable[[CallContext], Any]] = {
    "Round": attrgetter("round"),
    "LatestTimestamp": lambda ctx: int(ctx.timestamp),
    "CurrentApplicationID": attrgetter("application_id"),
    "CurrentApplicationAddress": attrgetter("app_address"),
    "MinTxnFee": lambda ctx: 1_000,
}
