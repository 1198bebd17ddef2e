"""The surface type system of the contract language.

Mirrors the Reach types the thesis's contract uses: ``UInt``,
``Bytes(n)``, ``Address`` and function signatures ``Fun([...], ret)``
(sections 4.1.1-4.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class ReachTypeError(TypeError):
    """A value does not inhabit its declared surface type."""


@dataclass(frozen=True)
class ReachType:
    """Base class for surface types."""

    def check(self, value: Any) -> None:
        """Raise :class:`ReachTypeError` unless ``value`` inhabits the type."""
        raise NotImplementedError

    def zero(self) -> Any:
        """The type's default value (what an unset Map slot reads as)."""
        raise NotImplementedError


@dataclass(frozen=True)
class _UInt(ReachType):
    """An unsigned 64-bit integer (the AVM word size bounds it)."""

    def check(self, value: Any) -> None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ReachTypeError(f"expected UInt, got {type(value).__name__}")
        if not 0 <= value < 2**64:
            raise ReachTypeError(f"UInt out of range: {value}")

    def zero(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "UInt"


@dataclass(frozen=True)
class BytesN(ReachType):
    """A byte string bounded at ``size`` (``Bytes(128)``, ``Bytes(512)``...)."""

    size: int

    def check(self, value: Any) -> None:
        if isinstance(value, str):
            value = value.encode()
        if not isinstance(value, bytes):
            raise ReachTypeError(f"expected Bytes({self.size}), got {type(value).__name__}")
        if len(value) > self.size:
            raise ReachTypeError(f"{len(value)} bytes exceed Bytes({self.size})")

    def zero(self) -> str:
        return ""

    def __repr__(self) -> str:
        return f"Bytes({self.size})"


@dataclass(frozen=True)
class _Address(ReachType):
    """A chain account address (format differs per connector)."""

    def check(self, value: Any) -> None:
        if not isinstance(value, str) or not value:
            raise ReachTypeError(f"expected Address, got {value!r}")

    def zero(self) -> str:
        return ""

    def __repr__(self) -> str:
        return "Address"


UInt = _UInt()
Address = _Address()


def Bytes(size: int) -> BytesN:
    """The ``Bytes(n)`` type constructor."""
    if size <= 0:
        raise ValueError("Bytes size must be positive")
    return BytesN(size=size)


@dataclass(frozen=True)
class Fun:
    """A function signature: ``Fun([UInt, Bytes(512)], UInt)``."""

    domain: tuple[ReachType, ...]
    range: ReachType | None

    def __init__(self, domain: list[ReachType], range: ReachType | None):  # noqa: A002
        object.__setattr__(self, "domain", tuple(domain))
        object.__setattr__(self, "range", range)
