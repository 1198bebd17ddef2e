"""Abstract domains: u64 intervals and symbolic abstract values.

The interval domain carries ``[lo, hi]`` bounds with ``hi=None`` for
"unbounded above"; constants are singleton intervals, so constant
propagation falls out of the same lattice.  Arithmetic mirrors the
connector semantics both backends enforce (checked uint64: overflow,
underflow and division by zero all abort the call), so transfer
functions may assume results stay in ``[0, 2**64 - 1]``.  Arguments
hold there too: the runtime rejects a ``UInt`` argument outside it
before any transaction is built.

:class:`AbsVal` pairs an interval with an optional *symbolic identity*
(``("global", name)``, ``("arg", i)``, ``("balance", version)``, sums
thereof) and, for booleans, the comparison *predicate* that produced
them -- that is what makes the analyses path-sensitive: a ``JUMPF`` or
``REQUIRE`` on a predicate-carrying value refines the state on each
outgoing edge.
"""

from __future__ import annotations

from dataclasses import dataclass

U64_MAX = 2**64 - 1

#: symbolic identities are nested tuples:
#:   ("const", n) | ("global", name) | ("arg", i) | ("balance", version)
#:   | ("value",) | ("now",) | ("add", left, right)
Sym = tuple


@dataclass(frozen=True)
class Interval:
    """A u64 interval ``[lo, hi]``; ``hi=None`` means unbounded above."""

    lo: int = 0
    hi: int | None = None

    @classmethod
    def const(cls, value: int) -> "Interval":
        """The singleton interval (the constant-propagation embedding)."""
        return cls(value, value)

    @classmethod
    def top(cls) -> "Interval":
        """Any u64 value."""
        return cls(0, None)

    @property
    def is_const(self) -> bool:
        """Whether the interval pins one value."""
        return self.hi is not None and self.lo == self.hi

    def join(self, other: "Interval") -> "Interval":
        """Least upper bound (union hull)."""
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(min(self.lo, other.lo), hi)

    def meet(self, other: "Interval") -> "Interval | None":
        """Greatest lower bound; None when the intersection is empty."""
        lo = max(self.lo, other.lo)
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        if hi is not None and lo > hi:
            return None
        return Interval(lo, hi)

    def widen(self, newer: "Interval") -> "Interval":
        """Classic interval widening: unstable bounds jump to the extreme."""
        lo = self.lo if newer.lo >= self.lo else 0
        if self.hi is None or (newer.hi is not None and newer.hi <= self.hi):
            hi = self.hi
        else:
            hi = None
        return Interval(lo, hi)

    def add(self, other: "Interval") -> "Interval":
        """Checked u64 addition (overflow aborts, so results stay <= max)."""
        hi = None if self.hi is None or other.hi is None else min(self.hi + other.hi, U64_MAX)
        return Interval(min(self.lo + other.lo, U64_MAX), hi)

    def sub(self, other: "Interval") -> "Interval":
        """Checked u64 subtraction (underflow aborts, so results stay >= 0)."""
        if other.hi is None:
            lo = 0
        else:
            lo = max(self.lo - other.hi, 0)
        hi = None if self.hi is None else max(self.hi - other.lo, 0)
        return Interval(lo, hi)

    def mul(self, other: "Interval") -> "Interval":
        """Checked u64 multiplication."""
        hi = None if self.hi is None or other.hi is None else min(self.hi * other.hi, U64_MAX)
        return Interval(min(self.lo * other.lo, U64_MAX), hi)

    def __str__(self) -> str:
        hi = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo}, {hi}]"


@dataclass(frozen=True)
class AbsVal:
    """An abstract stack value: interval + symbolic identity + predicate."""

    interval: Interval
    sym: Sym | None = None
    #: for boolean results of comparisons: (op, left AbsVal, right AbsVal)
    pred: tuple | None = None

    @classmethod
    def const(cls, value: int) -> "AbsVal":
        """A known constant."""
        return cls(Interval.const(value), sym=("const", value))

    @classmethod
    def top(cls, sym: Sym | None = None) -> "AbsVal":
        """Any value, optionally with a symbolic name."""
        return cls(Interval.top(), sym=sym)


def sym_add(left: Sym | None, right: Sym | None) -> Sym | None:
    """The symbolic sum, or None when either side is opaque."""
    if left is None or right is None:
        return None
    return ("add", left, right)


def summands(sym: Sym | None) -> list[Sym]:
    """Flatten a symbolic sum into its leaf summands."""
    if sym is None:
        return []
    if sym[0] == "add":
        return summands(sym[1]) + summands(sym[2])
    return [sym]


def sym_mentions_global(sym: Sym | None, name: str) -> bool:
    """Whether a symbolic value reads the named global."""
    if sym is None:
        return False
    if sym[0] == "global" and sym[1] == name:
        return True
    if sym[0] == "add":
        return sym_mentions_global(sym[1], name) or sym_mentions_global(sym[2], name)
    return False
