"""The textual frontend of the contract language (``.rsh``-style files).

The thesis writes its contract once, in textual Reach (``index.rsh``),
and compiles that one source for every connector; this parser does the
same for ``contracts/proof_of_location.rsh``, the only source of the PoL
contract.  The grammar is a compact, Reach-flavoured surface over the
AST of :mod:`repro.reach.ast`:

    contract "proof-of-location" {
        participant Creator;

        param seats = 4;
        param payout = 10000;

        global sits = seats;
        global reward = payout;
        map easy_map : UInt => Bytes(512);

        publish(position: Bytes(128), did: UInt, data: Bytes(512)) {
            easy_map[did] = data;
            sits := seats - 1;
            emit reportData(did, data);
        }

        phase attach while (sits > 0) timeout (86400) {}
        {
            api attacherAPI {
                insert_data(data: Bytes(512), did: UInt) returns UInt {
                    require(!easy_map.has(did), "DID already attached");
                    easy_map[did] = easy_map.get(did, data);
                    sits := sits - 1;
                    return sits;
                }
            }
        }

        view getCtcBalance = balance();
    }

``param name = default;`` declares a compile-time parameter: a
non-negative integer that stands wherever a literal may (a ``global``
initializer, a ``timeout (...)``, an expression).  ``parse_contract(...,
params={"seats": 16})`` binds other values.  A parameter folds to a
constant, and so does any arithmetic on two constants whose result is a
``UInt``: ``seats - 1`` lowers to ``const(3)``.  Parameters, globals and
maps share one namespace, and every name is declared once.

Statements: ``name := expr;`` (global assignment), ``map[k] = v;``,
``delete map[k];``, ``if (e) { ... } else { ... }``, ``require(e, "msg");``,
``transfer(amount).to(addr);``, ``emit Event(a, b);``, ``return e;``.

Expressions: integer/string literals, argument, parameter and global names,
``balance()``, ``this`` (caller), ``payAmount``, ``creator`` (the
deployer), ``map.get(key, default)``, ``map.has(key)``, the usual
arithmetic/comparison/logical operators with C-like precedence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.reach import ast as A
from repro.reach.types import Address, Bytes, Fun, ReachType, UInt


class ParseError(Exception):
    """Syntax or name-resolution error.

    ``span`` is the (line, col) of the offending token, or None at the
    end of the input.
    """

    def __init__(self, message: str, span: A.Span | None = None):
        super().__init__(message)
        self.span = span


#: arithmetic that folds when both operands are integer constants
_FOLDABLE = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a // b if b else None,
    "mod": lambda a, b: a % b if b else None,
}


def _fold(expr: A.Expr) -> A.Expr:
    """``const op const`` as one constant, when the result is a ``UInt``.

    A result the VMs would reject (underflow, overflow, division by
    zero) stays an operation, so the call still reverts at run time.
    """
    if not (
        isinstance(expr, A.BinOp)
        and expr.op in _FOLDABLE
        and isinstance(expr.left, A.Const)
        and isinstance(expr.right, A.Const)
        and type(expr.left.value) is int
        and type(expr.right.value) is int
    ):
        return expr
    value = _FOLDABLE[expr.op](expr.left.value, expr.right.value)
    if value is None or not 0 <= value < 2**64:
        return expr
    return A.set_span(A.const(value), expr.left.span)


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "int" | "string" | "punct"
    value: str
    line: int
    col: int = 0  # 1-based column of the token's first character

    @property
    def span(self) -> A.Span:
        """The (line, col) location this token starts at."""
        return (self.line, self.col)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<int>\d[\d_]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>:=|=>|==|!=|<=|>=|&&|\|\||[-+*/%(){}\[\];:,.<>=!])
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    line_start = 0  # offset of the current line's first character
    position = 0
    while position < len(source):
        match = _TOKEN_RE.match(source, position)
        if match is None:
            raise ParseError(
                f"unexpected character {source[position]!r}", (line, position - line_start + 1)
            )
        kind = match.lastgroup
        text = match.group()
        if kind not in ("ws", "comment"):
            value = text
            if kind == "string":
                value = value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
            tokens.append(_Token(kind=kind, value=value, line=line, col=position - line_start + 1))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = position + text.rfind("\n") + 1
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], overrides: dict[str, int]):
        self.tokens = tokens
        self.position = 0
        self.program: A.Program | None = None
        self.overrides = overrides  # caller-bound compile-time parameter values
        self.constants: dict[str, int] = {}  # compile-time parameter -> bound value
        self.maps: dict[str, A.Map] = {}
        self.globals: set[str] = set()
        self.views: set[str] = set()
        self.params: dict[str, int] = {}  # in-scope argument name -> arg index

    # -- token helpers ---------------------------------------------------------

    def _peek(self, offset: int = 0) -> _Token | None:
        index = self.position + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self.position += 1
        return token

    def _expect(self, value: str) -> _Token:
        token = self._next()
        if token.value != value:
            raise ParseError(f"expected {value!r}, got {token.value!r}", token.span)
        return token

    def _accept(self, value: str) -> bool:
        token = self._peek()
        if token is not None and token.value == value:
            self.position += 1
            return True
        return False

    def _ident(self) -> str:
        token = self._next()
        if token.kind != "ident":
            raise ParseError(f"expected an identifier, got {token.value!r}", token.span)
        return token.value

    def _constant(self, what: str) -> int | str:
        """A constant expression: a literal, a parameter or their arithmetic."""
        token = self._peek()
        expr = self._expr()
        if not isinstance(expr, A.Const):
            raise ParseError(f"{what} must be a constant", token.span)
        return expr.value

    # -- grammar -----------------------------------------------------------------

    def parse_contract(self) -> A.Program:
        self._expect("contract")
        name_token = self._next()
        if name_token.kind != "string":
            raise ParseError("contract name must be a string", name_token.span)
        self._expect("{")
        self._expect("participant")
        participant = self._ident()
        self._expect(";")
        self.program = A.Program(name=name_token.value, creator=A.Participant(participant))
        while not self._accept("}"):
            self._item()
        return self.program

    def _item(self) -> None:
        token = self._peek()
        if token is None:
            raise ParseError("unterminated contract body")
        if token.value == "param":
            self._param_decl()
        elif token.value == "global":
            self._global_decl()
        elif token.value == "map":
            self._map_decl()
        elif token.value == "publish":
            self._publish()
        elif token.value == "phase":
            self._phase()
        elif token.value == "view":
            self._view()
        else:
            raise ParseError(f"unexpected {token.value!r} at contract scope", token.span)

    def _declare(self, keyword: _Token) -> str:
        """The name a contract-scope declaration introduces, checked unique."""
        name = self._ident()
        taken = self.views if keyword.value == "view" else (self.constants.keys() | self.globals | self.maps.keys())
        if name in taken:
            raise ParseError(f"{name!r} is already declared", keyword.span)
        return name

    def _param_decl(self) -> None:
        keyword = self._expect("param")
        name = self._declare(keyword)
        self._expect("=")
        default = self._constant("a parameter default")
        if type(default) is not int:
            raise ParseError(f"parameter {name!r} must default to an integer", keyword.span)
        self._expect(";")
        self.constants[name] = self.overrides.get(name, default)

    def _global_decl(self) -> None:
        keyword = self._expect("global")
        name = self._declare(keyword)
        if name.startswith("_"):
            raise ParseError(f"global {name!r}: names starting with '_' are reserved for the runtime", keyword.span)
        self._expect("=")
        initial = self._constant("a global initializer")
        self._expect(";")
        self.program.declare_global(name, initial)
        self.globals.add(name)

    def _map_decl(self) -> None:
        keyword = self._expect("map")
        name = self._declare(keyword)
        self._expect(":")
        key_type = self._type()
        self._expect("=>")
        value_type = self._type()
        self._expect(";")
        declared = self.program.map(name, key_type=key_type, value_type=value_type)
        self.maps[name] = A.set_span(declared, keyword.span)

    def _type(self) -> ReachType:
        token = self._next()
        if token.value == "UInt":
            return UInt
        if token.value == "Address":
            return Address
        if token.value == "Bytes":
            self._expect("(")
            size = self._next()
            if size.kind != "int":
                raise ParseError("Bytes size must be an integer", size.span)
            self._expect(")")
            return Bytes(int(size.value))
        raise ParseError(f"unknown type {token.value!r}", token.span)

    def _param_list(self) -> list[tuple[str, ReachType]]:
        self._expect("(")
        params: list[tuple[str, ReachType]] = []
        if not self._accept(")"):
            while True:
                name_token = self._peek()
                name = self._ident()
                if any(name == declared for declared, _ in params):
                    raise ParseError(f"duplicate parameter {name!r}", name_token.span)
                self._expect(":")
                params.append((name, self._type()))
                if self._accept(")"):
                    break
                self._expect(",")
        return params

    def _publish(self) -> None:
        self._expect("publish")
        params = self._param_list()
        self.params = {name: index for index, (name, _) in enumerate(params)}
        body = self._block()
        self.params = {}
        self.program.publish(params=params, body=body)

    def _phase(self) -> None:
        keyword = self._expect("phase")
        name = self._ident()
        self._expect("while")
        self._expect("(")
        condition = self._expr()
        self._expect(")")
        timeout = None
        if self._accept("timeout"):
            self._expect("(")
            seconds_token = self._peek()
            seconds = self._constant("a timeout")
            if type(seconds) is not int:
                raise ParseError("timeout takes whole seconds", seconds_token.span)
            self._expect(")")
            timeout = (float(seconds), self._block())
        self._expect("{")
        groups: list[A.ApiGroup] = []
        while not self._accept("}"):
            self._expect("api")
            group_name = self._ident()
            self._expect("{")
            methods: list[A.ApiMethod] = []
            while not self._accept("}"):
                methods.append(self._method())
            groups.append(A.ApiGroup(group_name, methods))
        declared = self.program.phase(name=name, while_cond=condition, apis=groups, timeout=timeout)
        A.set_span(declared, keyword.span)

    def _method(self) -> A.ApiMethod:
        name_token = self._peek()
        name = self._ident()
        params = self._param_list()
        returns: ReachType | None = None
        pay_index: int | None = None
        while True:
            if self._accept("returns"):
                returns = self._type()
            elif self._accept("pays"):
                pay_name = self._ident()
                names = [param_name for param_name, _ in params]
                if pay_name not in names:
                    raise ParseError(f"pays target {pay_name!r} is not a parameter of {name}", name_token.span)
                pay_index = names.index(pay_name)
            else:
                break
        self.params = {param_name: index for index, (param_name, _) in enumerate(params)}
        body = self._block()
        self.params = {}
        method = A.ApiMethod(
            name=name,
            signature=Fun([t for _, t in params], returns),
            body=body,
            pay=pay_index,
        )
        return A.set_span(method, name_token.span)

    def _view(self) -> None:
        keyword = self._expect("view")
        name = self._declare(keyword)
        self._expect("=")
        expr = self._expr()
        self._expect(";")
        A.set_span(self.program.view(name, expr), keyword.span)
        self.views.add(name)

    # -- statements -------------------------------------------------------------------

    def _block(self) -> list[A.Stmt]:
        self._expect("{")
        statements: list[A.Stmt] = []
        while not self._accept("}"):
            statements.append(self._stmt())
        return statements

    def _stmt(self) -> A.Stmt:
        token = self._peek()
        if token is None:
            raise ParseError("unterminated block")
        return A.set_span(self._stmt_inner(token), token.span)

    def _stmt_inner(self, token: _Token) -> A.Stmt:
        if token.value == "if":
            return self._if_stmt()
        if token.value == "require":
            return self._require_stmt()
        if token.value == "transfer":
            return self._transfer_stmt()
        if token.value == "emit":
            return self._emit_stmt()
        if token.value == "return":
            return self._return_stmt()
        if token.value == "delete":
            return self._delete_stmt()
        # assignment: `name := expr;` or `map[key] = value;`
        if token.kind == "ident":
            after = self._peek(1)
            if after is not None and after.value == ":=":
                name = self._ident()
                if name not in self.globals:
                    raise ParseError(f"{name!r} is not a declared global", token.span)
                self._expect(":=")
                value = self._expr()
                self._expect(";")
                return A.SetGlobal(name, value)
            if after is not None and after.value == "[" and token.value in self.maps:
                map_name = self._ident()
                self._expect("[")
                key = self._expr()
                self._expect("]")
                self._expect("=")
                value = self._expr()
                self._expect(";")
                return self.maps[map_name].set(key, value)
        raise ParseError(f"unrecognized statement starting at {token.value!r}", token.span)

    def _if_stmt(self) -> A.Stmt:
        self._expect("if")
        self._expect("(")
        condition = self._expr()
        self._expect(")")
        then_block = self._block()
        else_block: list[A.Stmt] | None = None
        if self._accept("else"):
            else_block = self._block()
        return A.If(condition, then_block, else_block)

    def _require_stmt(self) -> A.Stmt:
        self._expect("require")
        self._expect("(")
        condition = self._expr()
        message = "requirement failed"
        if self._accept(","):
            message_token = self._next()
            if message_token.kind != "string":
                raise ParseError("require message must be a string", message_token.span)
            message = message_token.value
        self._expect(")")
        self._expect(";")
        return A.Require(condition, message)

    def _transfer_stmt(self) -> A.Stmt:
        self._expect("transfer")
        self._expect("(")
        amount = self._expr()
        self._expect(")")
        self._expect(".")
        self._expect("to")
        self._expect("(")
        target = self._expr()
        self._expect(")")
        self._expect(";")
        return A.Transfer(target, amount)

    def _emit_stmt(self) -> A.Stmt:
        self._expect("emit")
        event = self._ident()
        self._expect("(")
        values: list[A.Expr] = []
        if not self._accept(")"):
            while True:
                values.append(self._expr())
                if self._accept(")"):
                    break
                self._expect(",")
        self._expect(";")
        return A.Log(event, values)

    def _return_stmt(self) -> A.Stmt:
        self._expect("return")
        if self._accept(";"):
            return A.Return(None)
        value = self._expr()
        self._expect(";")
        return A.Return(value)

    def _delete_stmt(self) -> A.Stmt:
        self._expect("delete")
        map_token = self._peek()
        map_name = self._ident()
        if map_name not in self.maps:
            raise ParseError(f"{map_name!r} is not a declared map", map_token.span)
        self._expect("[")
        key = self._expr()
        self._expect("]")
        self._expect(";")
        return self.maps[map_name].delete(key)

    # -- expressions (C-like precedence) ----------------------------------------------

    def _expr(self) -> A.Expr:
        return self._or()

    def _or(self) -> A.Expr:
        left = self._and()
        while self._accept("||"):
            left = left.or_(self._and())
        return left

    def _and(self) -> A.Expr:
        left = self._cmp()
        while self._accept("&&"):
            left = left.and_(self._cmp())
        return left

    def _cmp(self) -> A.Expr:
        left = self._add()
        token = self._peek()
        if token is not None and token.value in ("==", "!=", "<", ">", "<=", ">="):
            operator = self._next().value
            right = self._add()
            if operator == "==":
                result = left.eq(right)
            elif operator == "!=":
                result = left.eq(right).not_()
            elif operator == "<":
                result = left < right
            elif operator == ">":
                result = left > right
            elif operator == "<=":
                result = left <= right
            else:
                result = left >= right
            return A.set_span(result, token.span)
        return left

    def _add(self) -> A.Expr:
        left = self._mul()
        while True:
            if self._accept("+"):
                left = _fold(left + self._mul())
            elif self._accept("-"):
                left = _fold(left - self._mul())
            else:
                return left

    def _mul(self) -> A.Expr:
        left = self._unary()
        while True:
            if self._accept("*"):
                left = _fold(left * self._unary())
            elif self._accept("/"):
                left = _fold(left // self._unary())
            elif self._accept("%"):
                left = _fold(left % self._unary())
            else:
                return left

    def _unary(self) -> A.Expr:
        if self._accept("!"):
            return self._unary().not_()
        return self._primary()

    def _primary(self) -> A.Expr:
        token = self._next()
        return A.set_span(self._primary_inner(token), token.span)

    def _primary_inner(self, token: _Token) -> A.Expr:
        if token.kind == "int":
            return A.const(int(token.value.replace("_", "")))
        if token.kind == "string":
            return A.const(token.value)
        if token.value == "(":
            inner = self._expr()
            self._expect(")")
            return inner
        if token.kind != "ident":
            raise ParseError(f"unexpected {token.value!r} in expression", token.span)
        name = token.value
        if name == "balance":
            self._expect("(")
            self._expect(")")
            return A.balance()
        if name == "this":
            return A.caller()
        if name == "payAmount":
            return A.pay_amount()
        if name == "creator":
            return A.GlobalRef("_creator")
        if name in self.maps:
            self._expect(".")
            method = self._ident()
            self._expect("(")
            if method == "get":
                key = self._expr()
                self._expect(",")
                default = self._expr()
                self._expect(")")
                return self.maps[name].get_or(key, default)
            if method == "has":
                key = self._expr()
                self._expect(")")
                return self.maps[name].contains(key)
            raise ParseError(f"maps support .get(k, d) and .has(k), not .{method}", token.span)
        if name in self.params:
            return A.arg(self.params[name])
        if name in self.constants:
            return A.const(self.constants[name])
        if name in self.globals:
            return A.glob(name)
        raise ParseError(f"unknown name {name!r}", token.span)


def parse_contract(source: str, params: dict[str, int] | None = None) -> A.Program:
    """Parse ``.rsh``-style source into a :class:`~repro.reach.ast.Program`.

    ``params`` binds compile-time parameters by name, overriding the
    defaults the source declares; each value is a non-negative int.
    """
    params = dict(params or {})
    for name, value in params.items():
        if type(value) is not int or value < 0:
            raise ParseError(f"parameter {name!r} must be a non-negative int, got {value!r}")
    tokens = _tokenize(source)
    if not tokens:
        raise ParseError("empty source")
    parser = _Parser(tokens, params)
    program = parser.parse_contract()
    if parser._peek() is not None:
        raise ParseError("trailing input after contract body", parser._peek().span)
    unknown = sorted(params.keys() - parser.constants.keys())
    if unknown:
        raise ParseError(f"unknown parameter {unknown[0]!r} for contract {program.name!r}")
    return program


def parse_contract_file(path: str, params: dict[str, int] | None = None) -> A.Program:
    """Parse a contract source file (see :func:`parse_contract`)."""
    with open(path, encoding="utf-8") as handle:
        return parse_contract(handle.read(), params)
