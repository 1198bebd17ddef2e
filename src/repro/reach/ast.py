"""The contract-language AST and program builder.

A contract is declared the way the thesis declares its PoL contract
(listing 4.1-4.9): one ``Participant`` (the Creator, who publishes the
deployment data), ``API`` groups for attachers and verifiers, ``View``s
for free reads, a ``Map`` for the DID-keyed data, and a sequence of
``parallelReduce`` phases, each with a timeout.

Contracts are written as ``.rsh`` source and built by
:mod:`repro.reach.parser`; tests also build small programs directly.
Expressions compose with Python operators (``glob("sits") > const(0)``)
and are *pure descriptions* -- compilation and execution happen in
:mod:`repro.reach.compiler` and the chain VMs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.reach.types import Fun, ReachType, UInt

#: a source location: (line, column), 1-based, from the ``.rsh`` frontend
Span = tuple[int, int]


def set_span(node: Any, span: Span | None) -> Any:
    """Attach a source span to an AST node (parser bookkeeping).

    Spans live outside the dataclass fields on purpose: two nodes that
    denote the same expression must stay equal wherever they appear, so
    the span must not participate in ``__eq__``/``__hash__``.
    """
    if span is not None:
        object.__setattr__(node, "span", span)
    return node


# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------


class Expr:
    """Base expression; supports arithmetic/comparison operator building."""

    #: source location, attached by the parser (None for programs built
    #: directly from Python, as tests do)
    span: Span | None = None

    def _wrap(self, other: Any) -> "Expr":
        return other if isinstance(other, Expr) else Const(other)

    def __add__(self, other):  # noqa: D105
        return BinOp("add", self, self._wrap(other))

    def __sub__(self, other):  # noqa: D105
        return BinOp("sub", self, self._wrap(other))

    def __mul__(self, other):  # noqa: D105
        return BinOp("mul", self, self._wrap(other))

    def __floordiv__(self, other):  # noqa: D105
        return BinOp("div", self, self._wrap(other))

    def __mod__(self, other):  # noqa: D105
        return BinOp("mod", self, self._wrap(other))

    def __lt__(self, other):  # noqa: D105
        return BinOp("lt", self, self._wrap(other))

    def __gt__(self, other):  # noqa: D105
        return BinOp("gt", self, self._wrap(other))

    def __le__(self, other):  # noqa: D105
        return BinOp("le", self, self._wrap(other))

    def __ge__(self, other):  # noqa: D105
        return BinOp("ge", self, self._wrap(other))

    def eq(self, other) -> "Expr":
        """Equality (named method; ``==`` is kept for identity)."""
        return BinOp("eq", self, self._wrap(other))

    def and_(self, other) -> "Expr":
        """Logical conjunction."""
        return BinOp("and", self, self._wrap(other))

    def or_(self, other) -> "Expr":
        """Logical disjunction."""
        return BinOp("or", self, self._wrap(other))

    def not_(self) -> "Expr":
        """Logical negation."""
        return UnOp("not", self)


@dataclass(frozen=True)
class Const(Expr):
    """A literal (int or str)."""

    value: Any


@dataclass(frozen=True)
class GlobalRef(Expr):
    """A named piece of contract state."""

    name: str


@dataclass(frozen=True)
class ArgRef(Expr):
    """The i-th argument of the enclosing method."""

    index: int


@dataclass(frozen=True)
class BalanceExpr(Expr):
    """``balance()`` -- the contract's native-token balance."""


@dataclass(frozen=True)
class CallerExpr(Expr):
    """``this`` -- the address calling the current method."""


@dataclass(frozen=True)
class PayAmountExpr(Expr):
    """The native tokens attached to the current call (its pay amount)."""


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation over two expressions."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class MapGetOr(Expr):
    """``fromSome(map[k], default)`` -- read with a fallback."""

    map: "Map"
    key: Expr
    default: Expr


@dataclass(frozen=True)
class MapContains(Expr):
    """``isSome(map[k])`` -- presence test."""

    map: "Map"
    key: Expr


# convenience constructors ---------------------------------------------------


def const(value: Any) -> Const:
    """Literal expression."""
    return Const(value)


def glob(name: str) -> GlobalRef:
    """Reference a declared global by name."""
    return GlobalRef(name)


def arg(index: int) -> ArgRef:
    """Reference the current method's i-th argument."""
    return ArgRef(index)


def balance() -> BalanceExpr:
    """The contract balance."""
    return BalanceExpr()


def caller() -> CallerExpr:
    """The calling address (Reach's ``this``)."""
    return CallerExpr()


def pay_amount() -> PayAmountExpr:
    """Tokens attached to the current call."""
    return PayAmountExpr()


# --------------------------------------------------------------------------
# statements
# --------------------------------------------------------------------------


class Stmt:
    """Base statement."""

    #: source location, attached by the parser (see :func:`set_span`)
    span: Span | None = None


@dataclass(frozen=True)
class SetGlobal(Stmt):
    """Assign contract state: ``g := expr``."""

    name: str
    value: Expr


@dataclass(frozen=True)
class MapSet(Stmt):
    """``map[key] = value``."""

    map: "Map"
    key: Expr
    value: Expr


@dataclass(frozen=True)
class MapDelete(Stmt):
    """``delete map[key]`` (the verify API does this, listing 4.9)."""

    map: "Map"
    key: Expr


@dataclass(frozen=True)
class If(Stmt):
    """Conditional with optional else branch."""

    cond: Expr
    then: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...] = ()

    def __init__(self, cond: Expr, then: list[Stmt], orelse: list[Stmt] | None = None):
        object.__setattr__(self, "cond", cond)
        object.__setattr__(self, "then", tuple(then))
        object.__setattr__(self, "orelse", tuple(orelse or ()))


@dataclass(frozen=True)
class Require(Stmt):
    """``assume``/``require``: revert the call unless the condition holds."""

    cond: Expr
    message: str = "requirement failed"


@dataclass(frozen=True)
class Transfer(Stmt):
    """``transfer(amount).to(addr)`` -- pay out of the contract."""

    to: Expr
    amount: Expr


@dataclass(frozen=True)
class Log(Stmt):
    """Emit an event visible to frontends (the ``interact.report*`` hooks)."""

    event: str
    values: tuple[Expr, ...]

    def __init__(self, event: str, values: list[Expr]):
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "values", tuple(values))


@dataclass(frozen=True)
class Return(Stmt):
    """Return a value from the enclosing API method."""

    value: Expr | None = None


# --------------------------------------------------------------------------
# program structure
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Participant:
    """The named deploying participant (listing 4.1)."""

    name: str


@dataclass
class Map:
    """A key-value Map (section 2.4, figure 2.7).

    Keys must be ``UInt`` -- the same connector restriction the thesis
    hit ("Algorand does not support indexing of Map with key type
    differs from UInt", section 4.1.1).  Values must be ``Bytes(n)``,
    whose non-zero encoding tells a present entry from an absent one.
    ``compile_program`` enforces both.
    """

    name: str
    key_type: ReachType = UInt
    value_type: ReachType | None = None
    slot: int = 0  # assigned by Program.map()

    span = None  # class-level Span default; the parser attaches real ones

    def get_or(self, key: Expr, default: Expr) -> MapGetOr:
        """``fromSome(map[key], default)``."""
        return MapGetOr(self, key, default)

    def contains(self, key: Expr) -> MapContains:
        """``isSome(map[key])``."""
        return MapContains(self, key)

    def set(self, key: Expr, value: Expr) -> MapSet:
        """``map[key] = value``."""
        return MapSet(self, key, value)

    def delete(self, key: Expr) -> MapDelete:
        """``delete map[key]``."""
        return MapDelete(self, key)


@dataclass(frozen=True)
class ApiMethod:
    """One API function (e.g. ``attacherAPI.insert_data``).

    ``pay`` names the argument index whose value must be attached as
    native tokens (``insert_money``), or None for free calls.
    """

    name: str
    signature: Fun
    body: tuple[Stmt, ...]
    pay: int | None = None

    span = None  # class-level Span default; the parser attaches real ones

    def __init__(self, name: str, signature: Fun, body: list[Stmt], pay: int | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "pay", pay)


@dataclass(frozen=True)
class ApiGroup:
    """A named API with its methods (``attacherAPI``, ``verifierAPI``)."""

    name: str
    methods: tuple[ApiMethod, ...]

    def __init__(self, name: str, methods: list[ApiMethod]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "methods", tuple(methods))


@dataclass(frozen=True)
class Phase:
    """One ``parallelReduce``: concurrent API calls until exit or timeout.

    ``while_cond`` is re-evaluated after every successful API call; when
    it turns false the contract advances to the next phase.  ``timeout``
    is (seconds, body): after the deadline anyone can fire the timeout,
    whose body runs before the phase advances.
    """

    name: str
    while_cond: Expr
    apis: tuple[ApiGroup, ...]
    timeout: tuple[float, tuple[Stmt, ...]] | None = None

    span = None  # class-level Span default; the parser attaches real ones

    def __init__(
        self,
        name: str,
        while_cond: Expr,
        apis: list[ApiGroup],
        timeout: tuple[float, list[Stmt]] | None = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "while_cond", while_cond)
        object.__setattr__(self, "apis", tuple(apis))
        if timeout is not None:
            timeout = (timeout[0], tuple(timeout[1]))
        object.__setattr__(self, "timeout", timeout)


@dataclass(frozen=True)
class View:
    """A free read of contract state (``getCtcBalance``, ``getReward``)."""

    name: str
    expr: Expr

    span = None  # class-level Span default; the parser attaches real ones


@dataclass
class Program:
    """A whole contract: the unit the compiler and the lint gate consume."""

    name: str
    creator: Participant
    publish_params: tuple[tuple[str, ReachType], ...] = ()
    publish_body: tuple[Stmt, ...] = ()
    globals: dict[str, Any] = field(default_factory=dict)
    maps: list[Map] = field(default_factory=list)
    phases: list[Phase] = field(default_factory=list)
    views: list[View] = field(default_factory=list)

    def declare_global(self, name: str, initial: Any = 0) -> GlobalRef:
        """Declare persistent contract state with an initial value."""
        if name.startswith("_"):
            raise ValueError("names starting with '_' are reserved for the runtime")
        self.globals[name] = initial
        return GlobalRef(name)

    def map(self, name: str, key_type: ReachType = UInt, value_type: ReachType | None = None) -> Map:
        """Declare a Map; slots are assigned in declaration order."""
        mapping = Map(name=name, key_type=key_type, value_type=value_type, slot=len(self.maps) + 1)
        self.maps.append(mapping)
        return mapping

    def publish(self, params: list[tuple[str, ReachType]], body: list[Stmt]) -> None:
        """Define the creator's first publication (deploy data insert).

        ``params`` are the declassified interact values the creator
        publishes; inside ``body`` they are ``arg(0)..arg(n-1)``.
        """
        self.publish_params = tuple(params)
        self.publish_body = tuple(body)

    def phase(
        self,
        name: str,
        while_cond: Expr,
        apis: list[ApiGroup],
        timeout: tuple[float, list[Stmt]] | None = None,
    ) -> Phase:
        """Append a ``parallelReduce`` phase."""
        new_phase = Phase(name=name, while_cond=while_cond, apis=apis, timeout=timeout)
        self.phases.append(new_phase)
        return new_phase

    def view(self, name: str, expr: Expr) -> View:
        """Declare a free read."""
        declared = View(name=name, expr=expr)
        self.views.append(declared)
        return declared

    def all_methods(self) -> list[tuple[str, int, ApiMethod]]:
        """Every API method as (qualified name, phase index, method)."""
        methods = []
        for phase_index, phase in enumerate(self.phases):
            for group in phase.apis:
                for method in group.methods:
                    methods.append((f"{group.name}.{method.name}", phase_index, method))
        return methods
