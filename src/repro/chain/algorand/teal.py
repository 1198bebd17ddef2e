"""A TEAL-like assembly language and assembler.

The AVM "interprets an assembler-like language called TEAL" (thesis
section 1.4.2.2, figure 1.7).  The Reach-style compiler emits TEAL
*source text* for the Algorand backend; :func:`assemble` turns that
text into a :class:`TealProgram` the AVM executes.

Supported syntax mirrors real TEAL closely enough to read naturally:

    // comment
    label:
    int 5
    byte "Creator"
    txn Sender
    txna ApplicationArgs 0
    app_global_put
    bz not_creation
    assert
    return
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class TealSyntaxError(Exception):
    """Raised when TEAL source fails to assemble."""


@dataclass(frozen=True)
class TealInstr:
    """One assembled instruction: mnemonic plus immediates."""

    op: str
    args: tuple = ()


@dataclass
class TealProgram:
    """An assembled program with resolved branch targets."""

    instrs: list[TealInstr]
    labels: dict[str, int] = field(default_factory=dict)
    source: str = ""
    #: the AVM's decoded dispatch form, built on first execution; the
    #: instruction list never changes after assembly
    _decoded: Any = field(default=None, init=False, repr=False, compare=False)

    def byte_size(self) -> int:
        """Approximate compiled size (per-instruction encoding estimate)."""
        size = 0
        for instr in self.instrs:
            size += 1
            for arg in instr.args:
                if isinstance(arg, bytes):
                    size += 1 + len(arg)
                elif isinstance(arg, int):
                    size += max(1, (arg.bit_length() + 7) // 8)
                else:
                    size += len(str(arg))
        return size


#: ops taking a label immediate, resolved to instruction indices
_BRANCH_OPS = {"b", "bz", "bnz", "callsub"}
#: ops with a free-form string immediate
_FIELD_OPS = {"txn", "global"}

_ZERO_ARG_OPS = {
    "pop", "dup", "dup2", "swap", "+", "-", "*", "/", "%", "<", ">", "<=", ">=",
    "==", "!=", "&&", "||", "!", "concat", "itob", "btoi", "len", "sha256",
    "assert", "err", "return", "retsub", "app_global_put", "app_global_get",
    "app_global_del", "box_put", "box_get", "box_del", "itxn_pay", "log",
    "balance", "min_balance",
}


def assemble(source: str) -> TealProgram:
    """Assemble TEAL source text into a :class:`TealProgram`.

    Two passes: collect labels, then resolve branch targets.  Raises
    :class:`TealSyntaxError` with a line number on any malformed input.
    """
    lines = source.splitlines()
    instrs: list[tuple[str, tuple, int]] = []  # (op, raw args, line no)
    labels: dict[str, int] = {}

    for line_number, raw in enumerate(lines, start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if line.endswith(":"):
            label = line[:-1].strip()
            if not label or " " in label:
                raise TealSyntaxError(f"line {line_number}: bad label {line!r}")
            if label in labels:
                raise TealSyntaxError(f"line {line_number}: duplicate label {label!r}")
            labels[label] = len(instrs)
            continue
        parts = _tokenize(line, line_number)
        op, args = parts[0], tuple(parts[1:])
        instrs.append((op, args, line_number))

    resolved: list[TealInstr] = []
    for op, args, line_number in instrs:
        resolved.append(_resolve(op, args, labels, line_number))
    return TealProgram(instrs=resolved, labels=labels, source=source)


def _tokenize(line: str, line_number: int) -> list[str]:
    """Split a line, keeping quoted strings as single tokens."""
    tokens: list[str] = []
    current = ""
    in_quote = False
    for char in line:
        if char == '"':
            in_quote = not in_quote
            current += char
        elif char.isspace() and not in_quote:
            if current:
                tokens.append(current)
                current = ""
        else:
            current += char
    if in_quote:
        raise TealSyntaxError(f"line {line_number}: unterminated string")
    if current:
        tokens.append(current)
    return tokens


def _resolve(op: str, args: tuple, labels: dict[str, int], line_number: int) -> TealInstr:
    if op in _ZERO_ARG_OPS:
        if args:
            raise TealSyntaxError(f"line {line_number}: {op} takes no immediates")
        return TealInstr(op=op)
    if op == "int":
        if len(args) != 1:
            raise TealSyntaxError(f"line {line_number}: int takes one immediate")
        try:
            return TealInstr(op="int", args=(int(args[0], 0),))
        except ValueError:
            raise TealSyntaxError(f"line {line_number}: bad integer {args[0]!r}") from None
    if op == "byte":
        if len(args) != 1:
            raise TealSyntaxError(f"line {line_number}: byte takes one immediate")
        literal = args[0]
        if literal.startswith('"') and literal.endswith('"'):
            return TealInstr(op="byte", args=(literal[1:-1].encode(),))
        if literal.startswith("0x"):
            return TealInstr(op="byte", args=(bytes.fromhex(literal[2:]),))
        raise TealSyntaxError(f"line {line_number}: bad byte literal {literal!r}")
    if op == "addr":
        if len(args) != 1:
            raise TealSyntaxError(f"line {line_number}: addr takes one immediate")
        return TealInstr(op="addr", args=(args[0],))
    if op in _FIELD_OPS:
        if len(args) != 1:
            raise TealSyntaxError(f"line {line_number}: {op} takes a field name")
        return TealInstr(op=op, args=(args[0],))
    if op == "txna":
        if len(args) != 2:
            raise TealSyntaxError(f"line {line_number}: txna takes a field and an index")
        return TealInstr(op="txna", args=(args[0], int(args[1])))
    if op in _BRANCH_OPS:
        if len(args) != 1:
            raise TealSyntaxError(f"line {line_number}: {op} takes a label")
        target = args[0]
        if target not in labels:
            raise TealSyntaxError(f"line {line_number}: unknown label {target!r}")
        return TealInstr(op=op, args=(labels[target],))
    raise TealSyntaxError(f"line {line_number}: unknown opcode {op!r}")
