"""A miniature EVM: stack machine, storage journal, gas metering.

The Reach-style compiler (:mod:`repro.reach.backends.evm`) lowers
contracts to this instruction set.  The machine is deliberately close
to the real EVM where it matters for the evaluation:

- a value stack and static jumps (``JUMP``/``JUMPI``/``JUMPDEST``);
- persistent 32-byte-keyed storage with warm/cold access tracking and
  zeroness-sensitive ``SSTORE`` pricing;
- gas charged per instruction from the figure-1.4 schedule, with
  out-of-gas and ``REVERT`` rolling back every effect while the fee is
  still paid ("computation is reverted but fees are still paid");
- value transfers out of the contract (``TRANSFER`` stands in for
  ``CALL`` with value, priced ``G_callvalue``).

Stack values are ints (mod 2**256), byte strings, or address strings.

Code is decoded once into ``(handler, immediate, flat_cost)`` triples
(cached on the :class:`EvmCode`): the dispatch loop charges the flat
cost and calls the handler, which charges any dynamic cost itself.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable

from repro.crypto.hashing import sha256
from repro.chain.ethereum.gas import DEFAULT_SCHEDULE, GasSchedule

WORD = 2**256


class VMError(Exception):
    """Irrecoverable execution failure (bad jump, stack underflow,
    a value no 256-bit word can encode)."""


class VMRevert(Exception):
    """Deliberate revert; carries the reason string."""

    #: gas consumed up to the revert; set by the VM when it raises one
    gas_used: int

    def __init__(self, reason: str = ""):
        super().__init__(reason or "execution reverted")
        self.reason = reason


class OutOfGas(VMRevert):
    """Gas limit exhausted mid-execution."""

    def __init__(self) -> None:
        super().__init__("out of gas")


@dataclass(frozen=True)
class Instr:
    """One instruction: an opcode mnemonic and an optional immediate."""

    op: str
    arg: Any = None

    def byte_size(self) -> int:
        """Serialized size, used for code-deposit gas and tx payloads."""
        if self.arg is None:
            return 1
        if isinstance(self.arg, int):
            return 1 + max(1, (self.arg.bit_length() + 7) // 8)
        if isinstance(self.arg, bytes):
            return 2 + len(self.arg)
        return 2 + len(str(self.arg).encode())


@dataclass
class EvmCode:
    """A compiled artifact: flat instruction list plus entry points."""

    instrs: list[Instr]
    methods: dict[str, int]  # selector -> program counter
    init_entry: int = 0
    #: lazy caches: instruction lists never change after compilation,
    #: and one compiled program is shared by every contract instance.
    _byte_size: int | None = field(default=None, init=False, repr=False, compare=False)
    _serialized: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _decoded: tuple[GasSchedule, Decoded] | None = field(default=None, init=False, repr=False, compare=False)

    def byte_size(self) -> int:
        """Total code size in (simulated) bytes."""
        size = self._byte_size
        if size is None:
            size = self._byte_size = sum(instr.byte_size() for instr in self.instrs)
        return size


@dataclass
class EvmContract:
    """On-chain contract state."""

    address: str
    code: EvmCode
    storage: dict[bytes, Any] = field(default_factory=dict)
    creator: str = ""


@dataclass
class ExecutionResult:
    """Outcome of a VM run."""

    gas_used: int
    return_value: Any = None
    logs: list[tuple[str, tuple[Any, ...]]] = field(default_factory=list)
    transfers: list[tuple[str, int]] = field(default_factory=list)  # (to, amount)
    storage_writes: dict[bytes, Any] = field(default_factory=dict)
    refund: int = 0  # storage-clearing refund already applied to gas_used


def _encode(value: Any) -> bytes:
    """Canonical byte encoding of a stack value (hash/concat input)."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, int):
        if 0 <= value < WORD:
            return value.to_bytes(32, "big")
        raise VMError(f"unencodable stack value {value!r}")
    if isinstance(value, str):
        return value.encode()
    raise VMError(f"unencodable stack value {value!r}")


def _as_int(value: Any) -> int:
    if isinstance(value, int):
        return value % WORD
    if isinstance(value, bytes):
        return int.from_bytes(value[-32:], "big")
    raise VMError(f"expected numeric stack value, got {type(value).__name__}")


def _truthy(value: Any) -> bool:
    """Zero-ness test: 0, empty bytes and empty strings are false.

    Strings appear on the stack for addresses and storage-loaded text;
    EVM semantics treat the all-zero word as false, which maps to
    emptiness for the byte-like values this VM also carries.
    """
    if isinstance(value, int):
        return value % WORD != 0
    if isinstance(value, (bytes, str)):
        return len(value) > 0
    raise VMError(f"untestable stack value {type(value).__name__}")


class _Frame:
    """The mutable state of one EVM call."""

    __slots__ = (
        "contract", "args", "caller", "value", "block_number", "timestamp", "self_balance",
        "schedule", "gas_limit", "gas_used", "stack", "writes", "logs", "transfers", "warm",
        "refund_counter", "spent_on_transfers", "return_value",
    )

    def __init__(
        self,
        contract: EvmContract,
        args: list[Any],
        caller: str,
        value: int,
        block_number: int,
        timestamp: float,
        self_balance: int,
        schedule: GasSchedule,
        gas_limit: int,
        gas_used: int,
    ) -> None:
        self.contract = contract
        self.args = args
        self.caller = caller
        self.value = value
        self.block_number = block_number
        self.timestamp = timestamp
        self.self_balance = self_balance
        self.schedule = schedule
        self.gas_limit = gas_limit
        self.gas_used = gas_used
        self.stack: list[Any] = []
        self.writes: dict[bytes, Any] = {}
        self.logs: list[tuple[str, tuple[Any, ...]]] = []
        self.transfers: list[tuple[str, int]] = []
        self.warm: set[bytes] = set()
        self.refund_counter = 0
        self.spent_on_transfers = 0
        self.return_value: Any = None


class _Halt(Exception):
    """Raised by ``RETURN``/``STOP`` to leave the dispatch loop."""


#: a handler executes one instruction (its flat cost already charged)
#: and returns the next pc
Handler = Callable[[_Frame, Any, int], int]
Decoded = list[tuple[Handler, Any, int]]


class EVM:
    """Executes :class:`EvmCode` against a contract with gas metering."""

    #: opcode -> schedule attribute for flat-cost instructions
    _FLAT_COSTS = {
        "PUSH": "verylow",
        "POP": "base",
        "DUP": "verylow",
        "SWAP": "verylow",
        "ADD": "verylow",
        "SUB": "verylow",
        "MUL": "low",
        "DIV": "low",
        "MOD": "low",
        "LT": "verylow",
        "GT": "verylow",
        "EQ": "verylow",
        "ISZERO": "verylow",
        "AND": "verylow",
        "OR": "verylow",
        "XOR": "verylow",
        "NOT": "verylow",
        "CALLER": "base",
        "CALLVALUE": "base",
        "CALLDATALOAD": "verylow",
        "CALLDATASIZE": "base",
        "TIMESTAMP": "base",
        "NUMBER": "base",
        "ADDRESS": "base",
        "SELFBALANCE": "low",
        "JUMP": "mid",
        "JUMPI": "high",
        "JUMPDEST": "jumpdest",
        "STOP": "zero",
        "RETURN": "zero",
        "REVERT": "zero",
        "REQUIRE": "high",
        "CONCAT": "verylow",
    }

    def __init__(self, schedule: GasSchedule = DEFAULT_SCHEDULE):
        self.schedule = schedule
        #: opcode -> flat cost, resolved against the schedule once
        self._flat: dict[str, int] = {op: getattr(schedule, attr) for op, attr in self._FLAT_COSTS.items()}

    def _decoded(self, code: EvmCode) -> Decoded:
        """The code's ``(handler, immediate, flat_cost)`` form, cached on it.

        Compiled programs are immutable and shared by every contract
        instance, so opcode dispatch, flat gas costs, jump-target
        validation and constant immediates are resolved once per
        program (and gas schedule) instead of once per instruction
        executed.  The list ends with a free sentinel that raises the
        program-counter error for a run falling off the end.
        """
        cached = code._decoded
        if cached is not None and cached[0] is self.schedule:
            return cached[1]
        instrs = code.instrs
        flat = self._flat
        decoded: Decoded = []
        for instr in instrs:
            handler, arg = _decode(instr, instrs)
            decoded.append((handler, arg, flat.get(instr.op, 0)))
        decoded.append((_pc_out_of_range, len(instrs), 0))
        code._decoded = (self.schedule, decoded)
        return decoded

    def execute(
        self,
        contract: EvmContract,
        entry: int,
        args: list[Any],
        caller: str,
        value: int,
        gas_limit: int,
        block_number: int = 0,
        timestamp: float = 0.0,
        self_balance: int = 0,
        intrinsic: int = 0,
    ) -> ExecutionResult:
        """Run the contract from ``entry``.

        Effects (storage writes, transfers, logs) are buffered and only
        surface in the returned :class:`ExecutionResult`; the chain
        adapter commits them on success.  On :class:`VMRevert` the
        exception carries ``gas_used`` so fees can still be charged.
        """
        code = self._decoded(contract.code)
        if intrinsic > gas_limit:
            raise _out_of_gas(gas_limit)
        if not 0 <= entry < len(contract.code.instrs):
            raise VMError(f"program counter {entry} out of range")
        frame = _Frame(
            contract, args, caller, value, block_number, timestamp, self_balance, self.schedule, gas_limit, intrinsic
        )
        pc = entry
        # The loop charges each instruction's flat cost before running
        # it; handlers charge dynamic costs themselves and pop with bare
        # ``list.pop()`` (IndexError -> stack underflow below).
        try:
            while True:
                handler, arg, cost = code[pc]
                if cost:
                    gas_used = frame.gas_used + cost
                    frame.gas_used = gas_used
                    if gas_used > gas_limit:
                        raise _out_of_gas(gas_limit)
                pc = handler(frame, arg, pc)
        except _Halt:
            pass
        except IndexError as exc:
            raise VMError("stack underflow") from exc
        except VMRevert as revert:
            if not hasattr(revert, "gas_used"):
                revert.gas_used = frame.gas_used
            raise
        refund = min(frame.refund_counter, frame.gas_used // 5)
        return ExecutionResult(
            gas_used=frame.gas_used - refund,
            return_value=frame.return_value,
            logs=frame.logs,
            transfers=frame.transfers,
            storage_writes=frame.writes,
            refund=refund,
        )


# -- decoding --------------------------------------------------------------------


def _decode(instr: Instr, instrs: list[Instr]) -> tuple[Handler, Any]:
    """One instruction's handler and pre-resolved immediate."""
    op, arg = instr.op, instr.arg
    fixed = _FIXED.get(op)
    if fixed is not None:
        return fixed
    if op == "PUSH":
        return _push, arg
    if op == "LOG":
        return _log, arg
    if op in _COUNTED:
        return _COUNTED[op], arg or 1
    if op == "MAPKEY":
        return _mapkey, int(arg).to_bytes(32, "big")
    if op == "CALLDATALOAD":
        if arg is None:
            return _calldataload_stack, None
        return _calldataload, arg
    if op in ("JUMP", "JUMPI"):
        target = int(arg)
        valid = 0 <= target < len(instrs) and instrs[target].op == "JUMPDEST"
        if op == "JUMP":
            return (_jump if valid else _jump_invalid), target
        return (_jumpi if valid else _jumpi_invalid), target
    if op == "REQUIRE":
        return _require, str(arg or "requirement failed")
    if op == "REVERT":
        return _revert, str(arg or "execution reverted")
    if op == "RETURN":
        return _return, arg or 0
    return _fail, f"unknown opcode {op}"


def _out_of_gas(gas_limit: int) -> OutOfGas:
    error = OutOfGas()
    error.gas_used = gas_limit
    return error


def _charge(frame: _Frame, amount: int) -> None:
    gas_used = frame.gas_used + amount
    frame.gas_used = gas_used
    if gas_used > frame.gas_limit:
        raise _out_of_gas(frame.gas_limit)


# -- handlers --------------------------------------------------------------------


def _fail(frame: _Frame, message: str, pc: int) -> int:
    raise VMError(message)


def _pc_out_of_range(frame: _Frame, target: int, pc: int) -> int:
    raise VMError(f"program counter {target} out of range")


def _push(frame: _Frame, value: Any, pc: int) -> int:
    frame.stack.append(value)
    return pc + 1


def _pop(frame: _Frame, arg: None, pc: int) -> int:
    frame.stack.pop()
    return pc + 1


def _dup(frame: _Frame, depth: int, pc: int) -> int:
    stack = frame.stack
    if len(stack) < depth:
        raise VMError("stack underflow on DUP")
    stack.append(stack[-depth])
    return pc + 1


def _swap(frame: _Frame, depth: int, pc: int) -> int:
    stack = frame.stack
    if len(stack) < depth + 1:
        raise VMError("stack underflow on SWAP")
    stack[-1], stack[-1 - depth] = stack[-1 - depth], stack[-1]
    return pc + 1


def _arith(frame: _Frame, fn: Callable[[int, int], int], pc: int) -> int:
    """Word arithmetic and comparisons: pops ``a`` then ``b``, pushes
    ``fn(a, b)`` mod 2**256."""
    stack = frame.stack
    a = _as_int(stack.pop())
    stack.append(fn(a, _as_int(stack.pop())) % WORD)
    return pc + 1


def _div(a: int, b: int) -> int:
    return 0 if b == 0 else a // b


def _mod(a: int, b: int) -> int:
    return 0 if b == 0 else a % b


def _eq(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    a = stack.pop()
    b = stack.pop()
    if type(a) is int and type(b) is int:
        stack.append(1 if a % WORD == b % WORD else 0)
    else:
        stack.append(1 if _encode(a) == _encode(b) else 0)
    return pc + 1


def _iszero(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    stack.append(0 if _truthy(stack.pop()) else 1)
    return pc + 1


def _logic(frame: _Frame, fn: Callable[[bool, bool], bool], pc: int) -> int:
    """``AND``/``OR`` on the zero-ness of the two operands."""
    stack = frame.stack
    a = _truthy(stack.pop())
    stack.append(1 if fn(a, _truthy(stack.pop())) else 0)
    return pc + 1


def _concat(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    b = stack.pop()
    a = stack.pop()
    stack.append(_encode(a) + _encode(b))
    return pc + 1


def _sha3(frame: _Frame, count: int, pc: int) -> int:
    stack = frame.stack
    payload = b"".join(_encode(stack.pop()) for _ in range(count))
    schedule = frame.schedule
    _charge(frame, schedule.keccak256 + schedule.keccak256word * ((len(payload) + 31) // 32))
    stack.append(sha256(payload))
    return pc + 1


def _mapkey(frame: _Frame, slot_word: bytes, pc: int) -> int:
    stack = frame.stack
    payload = slot_word + _encode(stack.pop())
    schedule = frame.schedule
    _charge(frame, schedule.keccak256 + schedule.keccak256word * ((len(payload) + 31) // 32))
    stack.append(sha256(payload))
    return pc + 1


def _env(frame: _Frame, getter: Callable[[_Frame], Any], pc: int) -> int:
    """Call-environment reads (``CALLER``, ``TIMESTAMP``, ...)."""
    frame.stack.append(getter(frame))
    return pc + 1


def _calldataload(frame: _Frame, index: int, pc: int) -> int:
    args = frame.args
    frame.stack.append(args[index] if 0 <= index < len(args) else 0)
    return pc + 1


def _calldataload_stack(frame: _Frame, arg: None, pc: int) -> int:
    return _calldataload(frame, _as_int(frame.stack.pop()), pc)


def _sload(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    key = _encode(stack.pop())
    if key in frame.warm:
        _charge(frame, frame.schedule.warm_access)
    else:
        _charge(frame, frame.schedule.cold_sload)
        frame.warm.add(key)
    writes = frame.writes
    stack.append(writes[key] if key in writes else frame.contract.storage.get(key, 0))
    return pc + 1


def _sstore(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    new_value = stack.pop()
    key = _encode(stack.pop())
    schedule = frame.schedule
    if key not in frame.warm:
        _charge(frame, schedule.cold_sload)
        frame.warm.add(key)
    current = frame.writes.get(key, frame.contract.storage.get(key, 0))
    # ints encode to the zero word iff the (normalized) value is zero;
    # byte-likes are zero iff empty.
    current_zero = current % WORD == 0 if isinstance(current, int) else not current
    new_zero = new_value % WORD == 0 if isinstance(new_value, int) else not new_value
    if current_zero and not new_zero:
        _charge(frame, schedule.sset)
    else:
        _charge(frame, schedule.sreset)
        if not current_zero and new_zero:
            # R_sclear: clearing storage earns a refund, capped at
            # settlement (EIP-3529 style).
            frame.refund_counter += schedule.sclear_refund
    frame.writes[key] = new_value
    return pc + 1


def _jumpdest(frame: _Frame, arg: None, pc: int) -> int:
    return pc + 1


def _jump(frame: _Frame, target: int, pc: int) -> int:
    return target


def _jump_invalid(frame: _Frame, target: int, pc: int) -> int:
    raise VMError(f"jump to non-JUMPDEST index {target}")


def _jumpi(frame: _Frame, target: int, pc: int) -> int:
    return target if _truthy(frame.stack.pop()) else pc + 1


def _jumpi_invalid(frame: _Frame, target: int, pc: int) -> int:
    if _truthy(frame.stack.pop()):
        raise VMError(f"jump to non-JUMPDEST index {target}")
    return pc + 1


def _require(frame: _Frame, reason: str, pc: int) -> int:
    if not _truthy(frame.stack.pop()):
        raise VMRevert(reason)
    return pc + 1


def _transfer(frame: _Frame, arg: None, pc: int) -> int:
    stack = frame.stack
    amount = _as_int(stack.pop())
    to = stack.pop()
    if not isinstance(to, str):
        raise VMError("TRANSFER target must be an address string")
    _charge(frame, frame.schedule.callvalue)
    if amount > frame.self_balance + frame.value - frame.spent_on_transfers:
        raise VMRevert("insufficient contract balance for transfer")
    frame.spent_on_transfers += amount
    frame.transfers.append((to, amount))
    return pc + 1


def _log(frame: _Frame, arg: tuple[str, int], pc: int) -> int:
    event, count = arg
    stack = frame.stack
    # Operands were pushed in source order; report them so.
    payload = tuple(reversed([stack.pop() for _ in range(count)]))
    data_len = sum(len(_encode(item)) for item in payload)
    schedule = frame.schedule
    _charge(frame, schedule.log + schedule.logtopic + schedule.logdata * data_len)
    frame.logs.append((event, payload))
    return pc + 1


def _return(frame: _Frame, count: int, pc: int) -> int:
    stack = frame.stack
    if count == 1:
        frame.return_value = stack.pop()
    elif count > 1:
        frame.return_value = tuple(reversed([stack.pop() for _ in range(count)]))
    raise _Halt


def _revert(frame: _Frame, reason: str, pc: int) -> int:
    raise VMRevert(reason)


def _stop(frame: _Frame, arg: None, pc: int) -> int:
    raise _Halt


#: opcodes whose immediate is a count, 1 when omitted
_COUNTED: dict[str, Handler] = {"DUP": _dup, "SWAP": _swap, "SHA3": _sha3}

#: opcodes whose handler and immediate the opcode alone determines
_FIXED: dict[str, tuple[Handler, Any]] = {
    "POP": (_pop, None),
    "ADD": (_arith, operator.add),
    "SUB": (_arith, operator.sub),
    "MUL": (_arith, operator.mul),
    "DIV": (_arith, _div),
    "MOD": (_arith, _mod),
    "LT": (_arith, operator.lt),
    "GT": (_arith, operator.gt),
    "XOR": (_arith, operator.xor),
    "EQ": (_eq, None),
    "ISZERO": (_iszero, None),
    "NOT": (_iszero, None),
    "AND": (_logic, operator.and_),
    "OR": (_logic, operator.or_),
    "CONCAT": (_concat, None),
    "CALLER": (_env, attrgetter("caller")),
    "CALLVALUE": (_env, attrgetter("value")),
    "CALLDATASIZE": (_env, lambda frame: len(frame.args)),
    "TIMESTAMP": (_env, lambda frame: int(frame.timestamp)),
    "NUMBER": (_env, attrgetter("block_number")),
    "ADDRESS": (_env, lambda frame: frame.contract.address),
    "SELFBALANCE": (_env, lambda frame: frame.self_balance + frame.value - frame.spent_on_transfers),
    "SLOAD": (_sload, None),
    "SSTORE": (_sstore, None),
    "JUMPDEST": (_jumpdest, None),
    "TRANSFER": (_transfer, None),
    "STOP": (_stop, None),
}


def serialize_code(code: EvmCode) -> bytes:
    """Flatten code to bytes (deployment payload; priced as calldata)."""
    blob = code._serialized
    if blob is None:
        blob = code._serialized = json.dumps(
            [[instr.op, _json_arg(instr.arg)] for instr in code.instrs],
            separators=(",", ":"),
        ).encode()
    return blob


def _json_arg(arg: Any) -> Any:
    if isinstance(arg, bytes):
        return {"b": arg.hex()}
    if isinstance(arg, tuple):
        return list(arg)
    return arg


def deserialize_code(blob: bytes, methods: dict[str, int], init_entry: int = 0) -> EvmCode:
    """Reconstruct :class:`EvmCode` from :func:`serialize_code` output.

    Round-trip fidelity matters: the deployment payload travelling in a
    create transaction is exactly what runs, so a node re-deriving the
    code from the wire bytes must get identical instructions.
    """
    try:
        raw = json.loads(blob.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise VMError(f"undecodable code blob: {exc}") from exc
    instrs = []
    for entry in raw:
        op, arg = entry
        if isinstance(arg, dict) and "b" in arg:
            arg = bytes.fromhex(arg["b"])
        elif isinstance(arg, list):
            arg = tuple(arg)
        instrs.append(Instr(op, arg))
    return EvmCode(instrs=instrs, methods=dict(methods), init_entry=init_entry)
