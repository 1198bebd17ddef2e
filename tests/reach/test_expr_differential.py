"""Expression-level differential fuzzing across connectors.

Hypothesis generates random UInt expression trees; a throwaway contract
evaluates each tree in an API method on the EVM and on the AVM.  Both
connectors must agree on the value -- and, crucially, on *failure*:
division by zero, uint64 overflow and underflow must revert on both,
not wrap on one and panic on the other.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain.algorand import AlgorandChain
from repro.chain.ethereum import EthereumChain
from repro.reach import ast as A
from repro.reach.compiler import compile_program
from repro.reach.runtime import ReachCallError, ReachClient
from repro.reach.types import Fun, UInt

FUNDING = 10**18


# -- expression tree generation --------------------------------------------------

leaf = st.one_of(
    st.integers(min_value=0, max_value=2**32).map(A.const),
    st.just(A.arg(0)),
)


def binop(children):
    return st.tuples(st.sampled_from(["add", "sub", "mul", "div", "mod"]), children, children).map(
        lambda triple: A.BinOp(triple[0], triple[1], triple[2])
    )


expr_trees = st.recursive(leaf, binop, max_leaves=8)


def build_calc_program(expression: A.Expr) -> A.Program:
    program = A.Program(name="calc", creator=A.Participant("Owner"))
    program.declare_global("runs", 1_000)
    program.publish(params=[], body=[])
    method = A.ApiMethod(
        name="evaluate",
        signature=Fun([UInt], UInt),
        body=[A.SetGlobal("runs", A.glob("runs") - A.const(1)), A.Return(expression)],
    )
    program.phase(
        name="calc",
        while_cond=A.glob("runs") > A.const(0),
        apis=[A.ApiGroup("calcAPI", [method])],
        timeout=(3_600.0, []),
    )
    return program


def evaluate_on(family: str, compiled, argument: int):
    if family == "evm":
        chain = EthereumChain(profile="eth-devnet", seed=211, validator_count=4)
    else:
        chain = AlgorandChain(profile="algo-devnet", seed=211, participant_count=4)
    client = ReachClient(chain)
    owner = chain.create_account(seed=b"calc-owner", funding=FUNDING)
    deployed = client.deploy(compiled, owner, [])
    try:
        return ("ok", deployed.api("calcAPI.evaluate", argument, sender=owner).value)
    except ReachCallError:
        return ("reverted", None)


class TestExpressionDifferential:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(expr_trees, st.integers(min_value=0, max_value=2**32))
    def test_property_connectors_agree(self, expression, argument):
        compiled = compile_program(build_calc_program(expression))
        assert evaluate_on("evm", compiled, argument) == evaluate_on("avm", compiled, argument)

    @pytest.mark.parametrize(
        "expression,argument,expected",
        [
            (A.arg(0) + A.const(5), 10, ("ok", 15)),
            (A.arg(0) - A.const(5), 3, ("reverted", None)),  # underflow
            (A.arg(0) // A.const(0), 7, ("reverted", None)),  # div by zero
            (A.arg(0) % A.const(0), 7, ("reverted", None)),  # mod by zero
            (A.const(2**63) * A.const(4), 0, ("reverted", None)),  # overflow
            (A.const(2**63) + A.const(2**63), 0, ("reverted", None)),  # == 2**64
            (A.const(2**63 - 1) + A.const(2**63), 0, ("ok", 2**64 - 1)),  # max uint64
            (A.arg(0) // A.const(3), 10, ("ok", 3)),
            (A.arg(0) % A.const(3), 10, ("ok", 1)),
        ],
    )
    def test_known_edge_semantics(self, expression, argument, expected):
        compiled = compile_program(build_calc_program(expression))
        assert evaluate_on("evm", compiled, argument) == expected
        assert evaluate_on("avm", compiled, argument) == expected
