"""Canonical encoding of observable contract state, shared by analyses.

Both differential layers -- the per-vector equivalence check
(:mod:`repro.reach.absint.equiv`) and the protocol model checker
(:mod:`repro.reach.absint.modelcheck`) -- must agree on what "the same
state" means across connectors.  The EVM stores scalars as Python ints
under ``g:<name>`` storage keys and Map entries under hashed slots; the
AVM stores ``itob`` bytes in global state and Map entries in boxes.
This module is the single place that flattens those representations to
comparable bytes, so representation differences never count as state
differences.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.chain.ethereum.evm import serialize_code
from repro.crypto.hashing import sha256
from repro.reach.absint.domains import U64_MAX
from repro.reach.compiler import CompiledContract
from repro.reach.ir import IRContract


def artifact_key(compiled: CompiledContract) -> bytes:
    """Content hash of a compiled contract's EVM code, TEAL and method table.

    The cache key of every analysis that executes the artifacts: equal
    keys mean equal executions, so a result computed once is reused.
    """
    return sha256(
        serialize_code(compiled.evm_code)
        + compiled.teal_source.encode()
        + repr(sorted(compiled.evm_code.methods.items())).encode()
    )


def canon(value: Any) -> bytes:
    """Connector-independent byte encoding of one stored value."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, int):
        return value.to_bytes(8 if value <= U64_MAX else 32, "big")
    return repr(value).encode()


def is_absent(value: Any) -> bool:
    """Zero/empty encodes Map absence on the EVM side."""
    if isinstance(value, int):
        return value == 0
    return not value


def uint_of(value: Any) -> int:
    """Decode a stored scalar back to a uint (int or itob bytes)."""
    if isinstance(value, int):
        return value
    if isinstance(value, bytes):
        return int.from_bytes(value, "big")
    if isinstance(value, str):
        return int(value) if value.isdigit() else 0
    return 0


def evm_map_key(slot: int, key: int) -> bytes:
    """The hashed EVM storage key of Map ``slot`` at ``key``."""
    return sha256(int(slot).to_bytes(32, "big") + key.to_bytes(32, "big"))


def avm_box_key(slot: int, key: int) -> bytes:
    """The AVM box name of Map ``slot`` at ``key``."""
    return f"m{slot}:".encode() + key.to_bytes(8, "big")


def scalar_names(ir: IRContract) -> list[str]:
    """Every scalar global, declared plus runtime-reserved."""
    return [*ir.globals_init.keys(), "_phase", "_deadline", "_creator"]


class _Unset:
    """The value of a state cell whose store holds no entry."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNSET"


#: a cell with no stored entry (unequal to every stored value)
UNSET: Any = _Unset()


class StateLayout:
    """One contract's observable state cells, with every key built once.

    ``names`` are the scalar globals in digest order and ``entries`` the
    ``(slot, key)`` Map cells an analysis tracks.  A state holds one
    cell per name, then one per entry, in that order.  The EVM storage
    keys, AVM global-state keys and box names of each cell -- and the
    prefix each contributes to the state digest -- are computed here,
    so a caller stepping thousands of VM calls never re-hashes a key.
    """

    def __init__(self, names: Iterable[str], entries: Iterable[tuple[int, int]]) -> None:
        self.names = tuple(names)
        self.entries = tuple(entries)
        #: ``g:<name>``: the EVM storage key and the AVM global key alike
        self.global_keys = tuple(b"g:" + name.encode() for name in self.names)
        self.evm_keys = tuple(evm_map_key(slot, key) for slot, key in self.entries)
        self.box_keys = tuple(avm_box_key(slot, key) for slot, key in self.entries)
        #: the cell of each scalar and of each Map entry
        self.scalar_cell = {name: cell for cell, name in enumerate(self.names)}
        self.entry_cell = {entry: cell for cell, entry in enumerate(self.entries, len(self.names))}
        self._prefixes = tuple(b"s:" + name.encode() + b"=" for name in self.names) + tuple(
            b"m:%d:%d=" % entry for entry in self.entries
        )

    def digest(self, cells: Iterable[Any], balance: int, now: int) -> bytes:
        """One canonical hash over the full observable contract state:
        its set cells' raw stored values (:func:`canon` flattens them),
        balance and clock."""
        fields = [prefix + canon(value) for prefix, value in zip(self._prefixes, cells) if value is not UNSET]
        fields.append(b"b:%d;t:%d" % (balance, now))
        return sha256(b";".join(fields))
