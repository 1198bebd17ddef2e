"""The static checks Reach runs before deploy, and the conservative analysis.

One checker decides whether a contract may be deployed: a program that
is not well formed never compiles (:class:`CompileError`), and every
other check is a lint finding that makes ``ReachClient.deploy`` refuse
before any transaction.  Each check has one home:

- creator, publish step, Map key/value types and ``pays`` declarations:
  ``compile_program``;
- transfer fundability: the balance analysis (``ABSINT-BAL-TRANSFER``);
- token linearity: ``MC-SAFETY-FUNDS``;
- phase progress: ``MC-LIVE-VERIFY``.
"""

import pytest

from repro.chain.ethereum import EthereumChain
from repro.core.contract import build_pol_program
from repro.reach import ast as A
from repro.reach.absint.cost import analyze_costs
from repro.reach.compiler import CompileError, compile_program
from repro.reach.runtime import ReachClient, ReachRuntimeError
from repro.reach.types import Bytes, Fun, UInt


def minimal_program():
    """A tiny valid program used as a mutation base."""
    program = A.Program(name="mini", creator=A.Participant("Creator"))
    counter = program.declare_global("count", 1)
    program.publish(params=[("seed", UInt)], body=[A.SetGlobal("count", A.arg(0))])
    bump = A.ApiMethod(
        "bump",
        Fun([UInt], UInt),
        body=[A.SetGlobal("count", A.glob("count") - A.const(1)), A.Return(A.glob("count"))],
    )
    program.phase("main", counter > A.const(0), [A.ApiGroup("api", [bump])], timeout=(60.0, []))
    return program


def with_methods(program, *methods):
    object.__setattr__(program.phases[0].apis[0], "methods", methods)
    return program


def lint(program):
    return compile_program(program).lint_report()


def refuted(report) -> set[str]:
    """The model-checker theorems a report's counterexamples refute."""
    return {f.message.split()[0] for f in report.findings if f.theorem == "MC-CEX"}


def assert_deploy_refused(program, publish_args):
    """``ReachClient.deploy`` refuses the program before any transaction."""
    chain = EthereumChain(profile="eth-devnet", seed=7, validator_count=4)
    creator = chain.create_account(seed=b"creator", funding=10**18)
    with pytest.raises(ReachRuntimeError, match="refusing to deploy"):
        ReachClient(chain).deploy(compile_program(program), creator, publish_args)
    assert chain.next_nonce_for(creator.address) == 0


class TestTheoremCoverage:
    def test_pol_contract_verifies(self):
        report = lint(build_pol_program())
        assert report.failures == []
        assert {f.theorem for f in report.findings} >= {"MC-SAFETY-FUNDS", "MC-LIVE-VERIFY"}

    def test_summary_banner(self):
        report = lint(build_pol_program())
        assert report.banner() == f"Checked {len(report.findings)} theorems; No failures!"

    def test_minimal_program_verifies(self):
        assert lint(minimal_program()).failures == []


class TestTokenLinearity:
    def test_paid_contract_without_drain_fails(self):
        paid = A.ApiMethod("fund", Fun([UInt], UInt), pay=0, body=[A.Return(A.arg(0))])
        program = with_methods(minimal_program(), paid)
        report = lint(program)
        assert "MC-SAFETY-FUNDS" in refuted(report)
        assert report.banner().startswith(f"Checked {len(report.findings)} theorems; 1 failures:")
        assert_deploy_refused(program, [1])

    def test_paid_contract_with_draining_timeout_passes(self):
        paid = A.ApiMethod("fund", Fun([UInt], UInt), pay=0, body=[A.Return(A.arg(0))])
        program = with_methods(minimal_program(), paid)
        drain = (60.0, (A.Transfer(A.glob("_creator"), A.balance()),))
        object.__setattr__(program.phases[0], "timeout", drain)
        assert lint(program).failures == []

    def test_unpaid_contract_trivially_linear(self):
        report = lint(minimal_program())
        assert any(f.theorem == "MC-SAFETY-FUNDS" and f.severity == "info" for f in report.findings)


class TestGuardedTransfers:
    def test_unguarded_fixed_transfer_fails(self):
        bad = A.ApiMethod("leak", Fun([], None), body=[A.Transfer(A.caller(), A.const(100))])
        program = with_methods(minimal_program(), bad)
        transfers = [f for f in lint(program).failures if f.theorem == "ABSINT-BAL-TRANSFER"]
        assert len(transfers) == 1 and transfers[0].message.startswith("api.leak:")
        assert_deploy_refused(program, [1])

    def test_guarded_transfer_passes(self):
        guarded = A.ApiMethod(
            "payout",
            Fun([], None),
            body=[A.If(A.balance() >= A.const(100), then=[A.Transfer(A.caller(), A.const(100))])],
        )
        assert lint(with_methods(minimal_program(), guarded)).failures == []

    def test_balance_drain_always_fundable(self):
        drain = A.ApiMethod("drain", Fun([], None), body=[A.Transfer(A.caller(), A.balance())])
        assert lint(with_methods(minimal_program(), drain)).failures == []


class TestMapTheorems:
    def test_bytes_key_map_fails(self):
        program = minimal_program()
        program.map("bad", key_type=Bytes(32), value_type=Bytes(64))
        with pytest.raises(CompileError, match="Map 'bad': key type must be UInt"):
            compile_program(program)

    def test_uint_value_map_fails_presence_encoding(self):
        program = minimal_program()
        program.map("counted", key_type=UInt, value_type=UInt)
        with pytest.raises(CompileError, match=r"Map 'counted': value type must be Bytes\(n\)"):
            compile_program(program)


class TestPayDeclarations:
    @pytest.mark.parametrize(
        "signature, pay",
        [(Fun([UInt], UInt), 1), (Fun([UInt], UInt), -1), (Fun([Bytes(8)], UInt), 0)],
        ids=["past-arity", "negative", "bytes-param"],
    )
    def test_pay_must_name_a_uint_parameter(self, signature, pay):
        paid = A.ApiMethod("fund", signature, pay=pay, body=[A.Return(A.const(0))])
        with pytest.raises(CompileError, match="api.fund: pays argument"):
            compile_program(with_methods(minimal_program(), paid))


class TestPhaseProgress:
    def test_stuck_phase_without_timeout_fails(self):
        program = A.Program(name="stuck", creator=A.Participant("Creator"))
        program.declare_global("flag", 1)
        program.publish(params=[], body=[])
        noop = A.ApiMethod("noop", Fun([], None), body=[])
        program.phase("forever", A.glob("flag") > A.const(0), [A.ApiGroup("api", [noop])])
        assert "MC-LIVE-VERIFY" in refuted(lint(program))
        assert_deploy_refused(program, [])

    def test_timeout_makes_phase_endable(self):
        report = lint(minimal_program())
        assert any(f.theorem == "MC-LIVE-VERIFY" and f.severity == "info" for f in report.findings)


class TestConservativeAnalysis:
    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_program(build_pol_program())

    @pytest.fixture(scope="class")
    def costs(self, compiled):
        return analyze_costs(compiled)

    def test_every_entry_point_has_a_row(self, compiled, costs):
        text = costs.conservative_analysis(compiled)
        for name in ("constructor", "attacherAPI.insert_data", "verifierAPI.verify"):
            assert name in costs.entries
            assert f"  {name} " in text

    def test_deploy_bound_dominated_by_code_deposit(self, compiled, costs):
        assert costs.deploy_ceiling > compiled.evm_code.byte_size() * 200
        assert f"deploy ceiling {costs.deploy_ceiling} gas" in costs.conservative_analysis(compiled)

    def test_bounds_are_positive_and_ordered(self, compiled, costs):
        for name, entry in costs.entries.items():
            assert len(compiled.ir.functions[name].instrs) > 0
            assert entry.evm_gas.lo > 0
            assert entry.evm_gas.hi > 21_000
        insert = costs.entries["attacherAPI.insert_data"]
        constructor = costs.entries["constructor"]
        assert constructor.evm_gas.hi > insert.evm_gas.hi

    def test_render_mentions_theorems(self, compiled, costs):
        text = costs.conservative_analysis(compiled)
        assert f"  verification: {compiled.lint_report().banner()}\n" in text
        assert "entry point" in text
