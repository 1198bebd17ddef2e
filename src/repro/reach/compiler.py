"""Lowering: AST -> IR, plus the top-level ``compile_program`` pipeline.

``compile_program`` checks the program is well formed, lowers the AST
to IR, then invokes both connector backends so one source yields an
EVM artifact *and* a TEAL artifact -- the thesis's "single source code,
generating the code for each of the blockchains".  Whether the
artifacts are safe to deploy is the lint gate's verdict
(:meth:`CompiledContract.lint_report`), which every deploy path reads.

On-chain phase protocol (slot ``_phase``):

====================  =========================================
value                 meaning
====================  =========================================
0                     constructor ran; awaiting creator publish
1 .. len(phases)      phase ``value - 1`` is active
len(phases) + 1       contract halted
====================  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.reach import ast as A
from repro.reach.ir import IRContract, IRFunction, IROp, with_span
from repro.reach.types import BytesN, ReachType, _Address, _UInt


class CompileError(Exception):
    """The program cannot be lowered (type or structure problem).

    ``span`` is the (line, col) of the offending declaration when the
    program came from ``.rsh`` source, else None.
    """

    def __init__(self, message: str, span: A.Span | None = None):
        super().__init__(message)
        self.span = span


@dataclass
class CompiledContract:
    """Everything the runtime needs, for every connector."""

    program: A.Program
    ir: IRContract
    evm_code: Any  # EvmCode
    teal_source: str
    _lint: Any = field(default=None, repr=False, compare=False)

    @property
    def name(self) -> str:
        """The contract name."""
        return self.program.name

    @cached_property
    def arg_types(self) -> dict[str, tuple[ReachType, ...]]:
        """The declared argument types of ``publish0`` and each API method."""
        types = {"publish0": tuple(param for _, param in self.program.publish_params)}
        types.update((name, method.signature.domain) for name, _, method in self.program.all_methods())
        return types

    def lint_report(self):
        """The static-analysis findings report (computed once, cached):
        the one verdict on whether the contract may be deployed."""
        if self._lint is None:
            from repro.reach.absint.lint import lint_compiled

            self._lint = lint_compiled(self)
        return self._lint


def kind_of_type(reach_type: ReachType | None) -> str:
    """Map a surface type to an IR value kind."""
    if reach_type is None or isinstance(reach_type, _UInt):
        return "uint"
    if isinstance(reach_type, BytesN):
        return "bytes"
    if isinstance(reach_type, _Address):
        return "address"
    raise CompileError(f"unsupported type {reach_type!r}")


class _FunctionLowerer:
    """Lowers one method body to IR instructions."""

    def __init__(self, contract: "_Lowering", params: tuple[str, ...], ret_kind: str | None, fname: str):
        self.contract = contract
        self.params = params
        self.ret_kind = ret_kind
        self.fname = fname
        self.instrs: list[IROp] = []
        self._labels = 0
        self.current_span: A.Span | None = None  # span of the statement being lowered

    def fresh_label(self, hint: str) -> str:
        self._labels += 1
        return f"{self.fname}__{hint}_{self._labels}"

    def emit(self, op: str, arg: Any = None) -> None:
        self.instrs.append(with_span(IROp(op, arg), self.current_span))

    # -- expressions ---------------------------------------------------------

    def expr(self, node: A.Expr) -> str:
        """Emit code leaving the expression value on the stack; return kind."""
        if isinstance(node, A.Const):
            self.emit("PUSH", node.value)
            return "uint" if isinstance(node.value, int) else "bytes"
        if isinstance(node, A.GlobalRef):
            if node.name not in self.contract.global_kinds:
                raise CompileError(f"undeclared global {node.name!r}")
            self.emit("GLOAD", node.name)
            return self.contract.global_kinds[node.name]
        if isinstance(node, A.ArgRef):
            if not 0 <= node.index < len(self.params):
                raise CompileError(f"{self.fname}: arg({node.index}) out of range")
            self.emit("ARG", node.index)
            return self.params[node.index]
        if isinstance(node, A.CallerExpr):
            self.emit("CALLER")
            return "address"
        if isinstance(node, A.PayAmountExpr):
            self.emit("VALUE")
            return "uint"
        if isinstance(node, A.BalanceExpr):
            self.emit("BALANCE")
            return "uint"
        if isinstance(node, A.BinOp):
            left_kind = self.expr(node.left)
            right_kind = self.expr(node.right)
            op = node.op.upper()
            if op in ("ADD", "SUB", "MUL", "DIV", "MOD", "LT", "GT", "LE", "GE", "AND", "OR"):
                if left_kind != "uint" or right_kind != "uint":
                    raise CompileError(f"{self.fname}: {node.op} needs UInt operands")
            self.emit(op)
            return "uint"
        if isinstance(node, A.UnOp):
            self.expr(node.operand)
            self.emit("NOT")
            return "uint"
        if isinstance(node, A.MapGetOr):
            default_kind = self.expr(node.default)
            key_kind = self.expr(node.key)
            if key_kind != "uint":
                raise CompileError(f"{self.fname}: Map keys must be UInt (connector restriction)")
            value_kind = kind_of_type(node.map.value_type)
            if default_kind != value_kind:
                raise CompileError(f"{self.fname}: default kind {default_kind} != map value kind {value_kind}")
            self.emit("MGETOR", (node.map.slot, value_kind))
            return value_kind
        if isinstance(node, A.MapContains):
            key_kind = self.expr(node.key)
            if key_kind != "uint":
                raise CompileError(f"{self.fname}: Map keys must be UInt (connector restriction)")
            self.emit("MHAS", node.map.slot)
            return "uint"
        raise CompileError(f"unsupported expression {type(node).__name__}")

    # -- statements ------------------------------------------------------------

    def stmt(self, node: A.Stmt) -> None:
        if node.span is not None:
            self.current_span = node.span
        if isinstance(node, A.SetGlobal):
            kind = self.expr(node.value)
            declared = self.contract.global_kinds.get(node.name)
            if declared is None:
                raise CompileError(f"undeclared global {node.name!r}")
            if declared != kind and "address" not in (declared, kind):
                raise CompileError(f"global {node.name}: cannot assign {kind} to {declared}")
            self.emit("GSTORE", node.name)
        elif isinstance(node, A.MapSet):
            key_kind = self.expr(node.key)
            if key_kind != "uint":
                raise CompileError(f"{self.fname}: Map keys must be UInt (connector restriction)")
            value_kind = self.expr(node.value)
            self.emit("MSET", (node.map.slot, value_kind))
        elif isinstance(node, A.MapDelete):
            self.expr(node.key)
            self.emit("MDEL", node.map.slot)
        elif isinstance(node, A.If):
            else_label = self.fresh_label("else")
            end_label = self.fresh_label("endif")
            self.expr(node.cond)
            self.emit("JUMPF", else_label)
            for inner in node.then:
                self.stmt(inner)
            self.emit("JUMP", end_label)
            self.emit("LABEL", else_label)
            for inner in node.orelse:
                self.stmt(inner)
            self.emit("LABEL", end_label)
        elif isinstance(node, A.Require):
            self.expr(node.cond)
            self.emit("REQUIRE", node.message)
        elif isinstance(node, A.Transfer):
            to_kind = self.expr(node.to)
            if to_kind not in ("address", "bytes"):
                raise CompileError(f"{self.fname}: transfer target must be an Address")
            self.expr(node.amount)
            self.emit("TRANSFER")
        elif isinstance(node, A.Log):
            kinds = tuple(self.expr(value) for value in node.values)
            self.emit("LOG", (node.event, kinds))
        elif isinstance(node, A.Return):
            if node.value is None:
                self.emit("JUMP", f"{self.fname}__epilogue")
            else:
                self.expr(node.value)
                self.emit("JUMP", f"{self.fname}__epilogue")
        else:
            raise CompileError(f"unsupported statement {type(node).__name__}")


class _Lowering:
    """Whole-program lowering state."""

    def __init__(self, program: A.Program):
        self.program = program
        self.global_kinds: dict[str, str] = {}
        for name, initial in program.globals.items():
            self.global_kinds[name] = "uint" if isinstance(initial, int) else "bytes"
        # runtime-reserved globals
        self.global_kinds["_phase"] = "uint"
        self.global_kinds["_deadline"] = "uint"
        self.global_kinds["_creator"] = "address"

    def lower(self) -> IRContract:
        program = self.program
        functions: dict[str, IRFunction] = {}

        functions["constructor"] = self._constructor()
        functions["publish0"] = self._publish0()
        for phase_index, phase in enumerate(program.phases):
            for group in phase.apis:
                for method in group.methods:
                    qualified = f"{group.name}.{method.name}"
                    if qualified in functions:
                        raise CompileError(f"duplicate API method {qualified}", method.span)
                    functions[qualified] = self._api_method(qualified, phase_index, phase, method)
            if phase.timeout is not None:
                functions[f"timeout_{phase_index}"] = self._timeout(phase_index, phase)

        views = {view.name: self._view(view) for view in program.views}
        return IRContract(
            name=program.name,
            functions=functions,
            globals_init=dict(program.globals),
            map_slots={m.name: m.slot for m in program.maps},
            view_exprs=views,
            phase_count=len(program.phases),
        )

    # -- entry points ------------------------------------------------------------

    def _constructor(self) -> IRFunction:
        fn = IRFunction(name="constructor", params=(), ret_kind=None, pay_index=None, phase=None)
        lowerer = _FunctionLowerer(self, (), None, "constructor")
        for name, initial in self.program.globals.items():
            lowerer.emit("PUSH", initial)
            lowerer.emit("GSTORE", name)
        lowerer.emit("CALLER")
        lowerer.emit("GSTORE", "_creator")
        lowerer.emit("PUSH", 0)
        lowerer.emit("GSTORE", "_phase")
        lowerer.emit("RET", (0, None))
        fn.instrs = lowerer.instrs
        return fn

    def _publish0(self) -> IRFunction:
        program = self.program
        params = tuple(kind_of_type(t) for _, t in program.publish_params)
        fname = "publish0"
        fn = IRFunction(name=fname, params=params, ret_kind=None, pay_index=None, phase=0)
        lowerer = _FunctionLowerer(self, params, None, fname)
        self._emit_phase_guard(lowerer, 0)
        # Only the deploying participant may publish (Creator.publish).
        lowerer.emit("CALLER")
        lowerer.emit("GLOAD", "_creator")
        lowerer.emit("EQ")
        lowerer.emit("REQUIRE", "only the Creator may publish")
        for statement in program.publish_body:
            lowerer.stmt(statement)
        lowerer.emit("LABEL", f"{fname}__epilogue")
        self._emit_advance(lowerer, next_phase_index=0)
        lowerer.emit("RET", (0, None))
        fn.instrs = lowerer.instrs
        return fn

    def _api_method(self, qualified: str, phase_index: int, phase: A.Phase, method: A.ApiMethod) -> IRFunction:
        params = tuple(kind_of_type(t) for t in method.signature.domain)
        ret_kind = kind_of_type(method.signature.range) if method.signature.range is not None else None
        fn = IRFunction(
            name=qualified,
            params=params,
            ret_kind=ret_kind,
            pay_index=method.pay,
            phase=phase_index + 1,
        )
        lowerer = _FunctionLowerer(self, params, ret_kind, qualified)
        self._emit_phase_guard(lowerer, phase_index + 1)
        self._emit_pay_guard(lowerer, method)
        for statement in method.body:
            lowerer.stmt(statement)
        if ret_kind is not None:
            # Falling off the end of a value-returning method returns 0/"".
            lowerer.emit("PUSH", 0 if ret_kind == "uint" else "")
        lowerer.emit("LABEL", f"{qualified}__epilogue")
        self._emit_while_check(lowerer, phase_index, phase)
        lowerer.emit("RET", ((1, ret_kind) if ret_kind is not None else (0, None)))
        fn.instrs = lowerer.instrs
        return fn

    def _timeout(self, phase_index: int, phase: A.Phase) -> IRFunction:
        fname = f"timeout_{phase_index}"
        fn = IRFunction(name=fname, params=(), ret_kind=None, pay_index=None, phase=phase_index + 1)
        lowerer = _FunctionLowerer(self, (), None, fname)
        self._emit_phase_guard(lowerer, phase_index + 1)
        lowerer.emit("NOW")
        lowerer.emit("GLOAD", "_deadline")
        lowerer.emit("GE")
        lowerer.emit("REQUIRE", "timeout deadline not reached")
        for statement in phase.timeout[1]:
            lowerer.stmt(statement)
        lowerer.emit("LABEL", f"{fname}__epilogue")
        self._emit_advance(lowerer, next_phase_index=phase_index + 1)
        lowerer.emit("RET", (0, None))
        fn.instrs = lowerer.instrs
        return fn

    def _view(self, view: A.View) -> IRFunction:
        fn = IRFunction(name=view.name, params=(), ret_kind=None, pay_index=None, phase=None)
        lowerer = _FunctionLowerer(self, (), None, f"view_{view.name}")
        kind = lowerer.expr(view.expr)
        lowerer.emit("RET", (1, kind))
        fn.instrs = lowerer.instrs
        fn.ret_kind = kind
        return fn

    # -- shared fragments -----------------------------------------------------------

    def _emit_phase_guard(self, lowerer: _FunctionLowerer, expected: int) -> None:
        lowerer.emit("GLOAD", "_phase")
        lowerer.emit("PUSH", expected)
        lowerer.emit("EQ")
        lowerer.emit("REQUIRE", f"wrong phase (expected {expected})")

    def _emit_pay_guard(self, lowerer: _FunctionLowerer, method: A.ApiMethod) -> None:
        lowerer.emit("VALUE")
        if method.pay is None:
            lowerer.emit("PUSH", 0)
        else:
            lowerer.emit("ARG", method.pay)
        lowerer.emit("EQ")
        lowerer.emit("REQUIRE", "pay amount mismatch")

    def _emit_while_check(self, lowerer: _FunctionLowerer, phase_index: int, phase: A.Phase) -> None:
        """After an API call: if the while condition fails, advance."""
        stay_label = lowerer.fresh_label("stay")
        lowerer.expr(phase.while_cond)
        lowerer.emit("JUMPF", f"{lowerer.fname}__advance")
        lowerer.emit("JUMP", stay_label)
        lowerer.emit("LABEL", f"{lowerer.fname}__advance")
        self._emit_advance(lowerer, next_phase_index=phase_index + 1)
        lowerer.emit("LABEL", stay_label)

    def _emit_advance(self, lowerer: _FunctionLowerer, next_phase_index: int) -> None:
        """Set ``_phase`` to activate ``phases[next_phase_index]`` (or halt)."""
        phases = self.program.phases
        if next_phase_index < len(phases):
            lowerer.emit("PUSH", next_phase_index + 1)
            lowerer.emit("GSTORE", "_phase")
            timeout = phases[next_phase_index].timeout
            if timeout is not None:
                lowerer.emit("NOW")
                lowerer.emit("PUSH", int(timeout[0]))
                lowerer.emit("ADD")
                lowerer.emit("GSTORE", "_deadline")
        else:
            lowerer.emit("PUSH", len(phases) + 1)
            lowerer.emit("GSTORE", "_phase")


def lower_to_ir(program: A.Program) -> IRContract:
    """Lower a well-formed program to IR."""
    _validate_structure(program)
    return _Lowering(program).lower()


def _validate_structure(program: A.Program) -> None:
    if not isinstance(program.creator, A.Participant):
        raise CompileError("program needs a creator Participant")
    if program.publish_params is None:
        raise CompileError("program needs a publish step")
    for mapping in program.maps:
        if not isinstance(mapping.key_type, _UInt):
            raise CompileError(
                f"Map {mapping.name!r}: key type must be UInt -- the Algorand connector "
                "does not support other key types (thesis section 4.1.1)",
                mapping.span,
            )
        if not isinstance(mapping.value_type, BytesN):
            raise CompileError(
                f"Map {mapping.name!r}: value type must be Bytes(n) -- EVM storage "
                "needs a non-zero encoding to tell a present entry from an absent one",
                mapping.span,
            )
    for qualified, _, method in program.all_methods():
        domain = method.signature.domain
        if method.pay is not None and not (
            0 <= method.pay < len(domain) and isinstance(domain[method.pay], _UInt)
        ):
            raise CompileError(
                f"{qualified}: pays argument {method.pay} must be a declared UInt parameter",
                method.span,
            )


def compile_program(program: A.Program) -> CompiledContract:
    """Lower and generate code for both connectors."""
    from repro.reach.backends.evm import generate_evm
    from repro.reach.backends.teal import generate_teal

    ir = lower_to_ir(program)
    return CompiledContract(
        program=program,
        ir=ir,
        evm_code=generate_evm(ir),
        teal_source=generate_teal(ir),
    )
