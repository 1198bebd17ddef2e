"""Tests for the static verifier's theorems and the conservative analysis."""

import pytest

from repro.core.contract import build_pol_program
from repro.reach import ast as A
from repro.reach.absint.cost import analyze_costs
from repro.reach.compiler import compile_program
from repro.reach.types import Bytes, Fun, UInt
from repro.reach.verifier import MODES, verify_program


def minimal_program(**overrides):
    """A tiny valid program used as a mutation base."""
    program = A.Program(name="mini", creator=A.Participant("Creator", {}))
    counter = program.declare_global("count", 1)
    program.publish(params=[("seed", UInt)], body=[A.SetGlobal("count", A.arg(0))])
    bump = A.ApiMethod(
        "bump",
        Fun([UInt], UInt),
        body=[A.SetGlobal("count", A.glob("count") - A.const(1)), A.Return(A.glob("count"))],
    )
    program.phase("main", counter > A.const(0), [A.ApiGroup("api", [bump])], timeout=(60.0, []))
    return program


class TestTheoremCoverage:
    def test_pol_contract_verifies(self):
        report = verify_program(build_pol_program())
        assert report.ok
        assert len(report.theorems) > 30

    def test_runs_all_three_modes(self):
        report = verify_program(build_pol_program())
        assert {theorem.mode for theorem in report.theorems} == set(MODES)

    def test_summary_banner(self):
        report = verify_program(build_pol_program())
        summary = report.summary()
        assert "Verifying when ALL participants are honest" in summary
        assert "No failures!" in summary

    def test_minimal_program_verifies(self):
        assert verify_program(minimal_program()).ok


class TestTokenLinearity:
    def test_paid_contract_without_drain_fails(self):
        program = minimal_program()
        paid = A.ApiMethod("fund", Fun([UInt], UInt), pay=0, body=[A.Return(A.arg(0))])
        object.__setattr__(program.phases[0].apis[0], "methods", (paid,))
        report = verify_program(program)
        assert not report.ok
        assert any("token linearity" in theorem.name for theorem in report.failures)

    def test_paid_contract_with_draining_timeout_passes(self):
        program = minimal_program()
        paid = A.ApiMethod("fund", Fun([UInt], UInt), pay=0, body=[A.Return(A.arg(0))])
        drain = (60.0, (A.Transfer(A.glob("_creator"), A.balance()),))
        object.__setattr__(program.phases[0].apis[0], "methods", (paid,))
        object.__setattr__(program.phases[0], "timeout", drain)
        assert verify_program(program).ok

    def test_unpaid_contract_trivially_linear(self):
        report = verify_program(minimal_program())
        assert any("no incoming tokens" in theorem.name for theorem in report.theorems)


class TestGuardedTransfers:
    def test_unguarded_fixed_transfer_fails(self):
        program = minimal_program()
        bad = A.ApiMethod("leak", Fun([], None), body=[A.Transfer(A.caller(), A.const(100))])
        object.__setattr__(program.phases[0].apis[0], "methods", (bad,))
        report = verify_program(program)
        assert any("fundable" in theorem.name and not theorem.ok for theorem in report.theorems)

    def test_guarded_transfer_passes(self):
        program = minimal_program()
        guarded = A.ApiMethod(
            "payout",
            Fun([], None),
            body=[A.If(A.balance() >= A.const(100), then=[A.Transfer(A.caller(), A.const(100))])],
        )
        object.__setattr__(program.phases[0].apis[0], "methods", (guarded,))
        assert all(t.ok for t in verify_program(program).theorems if "fundable" in t.name)

    def test_balance_drain_always_fundable(self):
        program = minimal_program()
        drain = A.ApiMethod("drain", Fun([], None), body=[A.Transfer(A.caller(), A.balance())])
        object.__setattr__(program.phases[0].apis[0], "methods", (drain,))
        assert all(t.ok for t in verify_program(program).theorems if "fundable" in t.name)


class TestMapTheorems:
    def test_bytes_key_map_fails(self):
        program = minimal_program()
        program.map("bad", key_type=Bytes(32), value_type=Bytes(64))
        report = verify_program(program)
        assert any("key type is UInt" in theorem.name and not theorem.ok for theorem in report.theorems)

    def test_uint_value_map_fails_presence_encoding(self):
        program = minimal_program()
        program.map("counted", key_type=UInt, value_type=UInt)
        report = verify_program(program)
        assert any("presence encoding" in theorem.name and not theorem.ok for theorem in report.theorems)


class TestPhaseProgress:
    def test_stuck_phase_without_timeout_fails(self):
        program = A.Program(name="stuck", creator=A.Participant("Creator", {}))
        program.declare_global("flag", 1)
        program.publish(params=[], body=[])
        noop = A.ApiMethod("noop", Fun([], None), body=[])
        program.phase("forever", A.glob("flag") > A.const(0), [A.ApiGroup("api", [noop])])
        report = verify_program(program)
        assert any("can end" in theorem.name and not theorem.ok for theorem in report.theorems)

    def test_timeout_makes_phase_endable(self):
        assert verify_program(minimal_program()).ok


class TestDishonestMode:
    def test_require_on_interact_fails_dishonest_mode(self):
        program = minimal_program()
        trusting = A.ApiMethod(
            "trusting",
            Fun([], None),
            body=[A.Require(A.InteractRef("Creator", "claims").eq(A.const(1)), "trusted claim")],
        )
        object.__setattr__(program.phases[0].apis[0], "methods", (trusting,))
        report = verify_program(program)
        failures = [t for t in report.failures if t.mode == "NO participants honest"]
        assert failures


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
        assert "theorems" in text
        assert "entry point" in text
