"""Balance-safety analysis: transfers must be provably fundable.

The abstract interpretation must accept the repo's real contracts,
prove the guard patterns the thesis's contracts use (budget guards,
whole-balance drains, sequential payouts), and reject programs where a
transfer can underflow the contract balance -- path-sensitively, so a
guard on the wrong branch does not count.
"""

from repro.core.contract import build_pol_program
from repro.reach import ast as A
from repro.reach.absint.balance import analyze_balance, analyze_ir_balance
from repro.reach.compiler import compile_program, lower_to_ir
from repro.reach.parser import parse_contract_file
from repro.reach.types import Fun, UInt

CONTRACTS = "contracts"


def program_with_method(body) -> A.Program:
    """A minimal one-phase program hosting one API method."""
    program = A.Program(name="probe", creator=A.Participant("Creator"))
    program.declare_global("count", 1)
    program.publish(params=[("seed", UInt)], body=[A.SetGlobal("count", A.arg(0))])
    method = A.ApiMethod("probe", Fun([UInt, UInt], UInt), body=list(body))
    program.phase(
        "main",
        A.glob("count") > A.const(0),
        [A.ApiGroup("api", [method])],
        timeout=(60.0, []),
    )
    return program


class TestRealContracts:
    def test_pol_contract_is_balance_safe(self):
        report = analyze_balance(compile_program(build_pol_program()))
        assert report.ok
        assert report.checks  # the reward payout was actually analyzed

    def test_crowdfunding_is_balance_safe(self):
        program = parse_contract_file(f"{CONTRACTS}/crowdfunding.rsh")
        report = analyze_balance(compile_program(program))
        assert report.ok

    def test_parsed_checks_carry_source_spans(self):
        program = parse_contract_file(f"{CONTRACTS}/crowdfunding.rsh")
        report = analyze_ir_balance(lower_to_ir(program))
        assert any(check.span is not None for check in report.checks)


class TestGuardPatterns:
    def test_unguarded_transfer_fails(self):
        program = program_with_method(
            [A.Transfer(A.glob("_creator"), A.arg(0)), A.Return(A.arg(0))]
        )
        report = analyze_ir_balance(lower_to_ir(program))
        assert not report.ok
        failed = [check for check in report.checks if not check.ok]
        assert len(failed) == 1

    def test_budget_guard_proves_the_transfer(self):
        program = program_with_method(
            [
                A.Require(A.balance() >= A.arg(0), "insufficient"),
                A.Transfer(A.glob("_creator"), A.arg(0)),
                A.Return(A.arg(0)),
            ]
        )
        assert analyze_ir_balance(lower_to_ir(program)).ok

    def test_whole_balance_drain_is_always_fundable(self):
        program = program_with_method(
            [A.Transfer(A.glob("_creator"), A.balance()), A.Return(A.const(0))]
        )
        assert analyze_ir_balance(lower_to_ir(program)).ok

    def test_sum_guard_funds_sequential_payouts(self):
        program = program_with_method(
            [
                A.Require(A.balance() >= A.arg(0) + A.arg(1), "insufficient"),
                A.Transfer(A.glob("_creator"), A.arg(0)),
                A.Transfer(A.glob("_creator"), A.arg(1)),
                A.Return(A.const(0)),
            ]
        )
        assert analyze_ir_balance(lower_to_ir(program)).ok

    def test_budget_is_consumed_not_reusable(self):
        # one guard cannot fund the same amount twice
        program = program_with_method(
            [
                A.Require(A.balance() >= A.arg(0), "insufficient"),
                A.Transfer(A.glob("_creator"), A.arg(0)),
                A.Transfer(A.glob("_creator"), A.arg(0)),
                A.Return(A.const(0)),
            ]
        )
        report = analyze_ir_balance(lower_to_ir(program))
        verdicts = [check.ok for check in report.checks]
        assert verdicts.count(False) == 1

    def test_guard_on_the_wrong_branch_does_not_count(self):
        # path sensitivity: the transfer sits on the *false* edge of the
        # balance check, where the guard proves nothing
        program = program_with_method(
            [
                A.If(
                    A.balance() >= A.arg(0),
                    (A.Return(A.const(1)),),
                    (
                        A.Transfer(A.glob("_creator"), A.arg(0)),
                        A.Return(A.const(0)),
                    ),
                ),
                A.Return(A.const(2)),
            ]
        )
        report = analyze_ir_balance(lower_to_ir(program))
        assert not report.ok

    def test_guard_on_the_right_branch_counts(self):
        program = program_with_method(
            [
                A.If(
                    A.balance() >= A.arg(0),
                    (
                        A.Transfer(A.glob("_creator"), A.arg(0)),
                        A.Return(A.const(0)),
                    ),
                    (A.Return(A.const(1)),),
                ),
                A.Return(A.const(2)),
            ]
        )
        assert analyze_ir_balance(lower_to_ir(program)).ok


class TestVerifierIntegration:
    def test_semantic_verdicts_reach_the_verifier(self):
        # the lint gate reports an unfundable transfer exactly once,
        # from the balance analysis, at the transfer's owner
        program = program_with_method(
            [A.Transfer(A.glob("_creator"), A.arg(0)), A.Return(A.arg(0))]
        )
        report = compile_program(program).lint_report()
        transfers = [f for f in report.findings if f.theorem == "ABSINT-BAL-TRANSFER"]
        assert len(transfers) == 1
        assert transfers[0].severity == "error"
        assert transfers[0].message.startswith("api.probe:")

    def test_compile_check_false_still_reports_the_failure(self):
        # compiling applies no gate; the failure surfaces as a lint
        # error, which the deploy path refuses
        program = program_with_method(
            [A.Transfer(A.glob("_creator"), A.arg(0)), A.Return(A.arg(0))]
        )
        compiled = compile_program(program)
        assert compiled.lint_report().has_errors
