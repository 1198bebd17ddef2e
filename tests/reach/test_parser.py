"""Tests for the textual contract frontend.

The flagship test parses ``contracts/proof_of_location.rsh`` and checks
it is *behaviourally identical* to the Python-built program: same
lint verdict, same compiled entry points, and the same
execution trace over a full scenario.
"""

import pathlib

import pytest

from repro.chain.ethereum import EthereumChain
from repro.core.contract import build_pol_program, pol_record
from repro.reach import ast as A
from repro.reach.compiler import compile_program
from repro.reach.parser import ParseError, parse_contract, parse_contract_file
from repro.reach.runtime import ReachCallError, ReachClient

RSH_PATH = pathlib.Path(__file__).parents[2] / "contracts" / "proof_of_location.rsh"

MINI = """
contract "mini" {
    participant Owner;
    global count = 1;
    publish(seed: UInt) {
        count := seed;
    }
    phase main while (count > 0) timeout (60) {}
    {
        api counterAPI {
            bump(step: UInt) returns UInt {
                count := count - step;
                return count;
            }
        }
    }
    view getCount = count;
}
"""


class TestGrammar:
    def test_mini_contract_parses_and_compiles(self):
        program = parse_contract(MINI)
        compiled = compile_program(program)
        assert compiled.lint_report().failures == []
        assert "counterAPI.bump" in compiled.evm_code.methods

    def test_comments_and_whitespace(self):
        source = MINI.replace('global count = 1;', 'global count = 1; // the counter\n')
        assert parse_contract(source).globals["count"] == 1

    @pytest.mark.parametrize(
        "mutation,needle",
        [
            (("participant Owner;", "participant Owner"), "expected"),
            (("count := seed;", "count := ;"), "unexpected"),
            (("count := seed;", "ghost := seed;"), "not a declared global"),
            (("(step: UInt)", "(step: Float)"), "unknown type"),
            (("return count;", "return mystery;"), "unknown name"),
        ],
    )
    def test_syntax_errors_are_reported(self, mutation, needle):
        old, new = mutation
        with pytest.raises(ParseError) as excinfo:
            parse_contract(MINI.replace(old, new))
        assert needle in str(excinfo.value)

    def test_empty_source_rejected(self):
        with pytest.raises(ParseError):
            parse_contract("")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_contract(MINI + "\nextra tokens")

    def test_operator_precedence(self):
        source = MINI.replace("count := seed;", "count := seed + 2 * 3;")
        program = parse_contract(source)
        statement = program.publish_body[0]
        # seed + (2*3), not (seed+2)*3
        assert isinstance(statement.value, A.BinOp)
        assert statement.value.op == "add"
        assert statement.value.right.op == "mul"

    def test_pays_must_name_a_parameter(self):
        source = MINI.replace("returns UInt {", "returns UInt pays nothing {")
        with pytest.raises(ParseError):
            parse_contract(source)


class TestCrowdfundingRshFile:
    def test_parses_verifies_and_runs(self):
        path = RSH_PATH.parent / "crowdfunding.rsh"
        program = parse_contract_file(str(path))
        compiled = compile_program(program)
        assert compiled.lint_report().failures == []
        chain = EthereumChain(profile="eth-devnet", seed=202, validator_count=4)
        client = ReachClient(chain)
        owner = chain.create_account(seed=b"owner", funding=10**19)
        backer = chain.create_account(seed=b"backer", funding=10**19)
        deployed = client.deploy(compiled, owner, ["save the hedgehogs"])
        deployed.api("backerAPI.pledge", 1, 10_000, sender=backer, pay=10_000)
        assert deployed.view("getRaised") == 10_000
        sweep = deployed.api("settleAPI.sweep", owner.address, sender=owner)
        assert deployed.balance == 0
        assert sweep.value == 1


class TestPolRshFile:
    @pytest.fixture(scope="class")
    def parsed(self):
        return parse_contract_file(str(RSH_PATH))

    def test_parses_and_verifies(self, parsed):
        compiled = compile_program(parsed)
        assert compiled.lint_report().failures == []

    def test_same_entry_points_as_python_build(self, parsed):
        from_rsh = set(compile_program(parsed).ir.functions)
        from_python = set(compile_program(build_pol_program(max_users=4, reward=10_000)).ir.functions)
        assert from_rsh == from_python

    def test_same_globals(self, parsed):
        assert parsed.globals == build_pol_program(max_users=4, reward=10_000).globals

    def test_behavioural_equivalence(self, parsed):
        """The same scenario yields identical traces for both sources."""

        def run_scenario(program):
            chain = EthereumChain(profile="eth-devnet", seed=201, validator_count=4)
            client = ReachClient(chain)
            compiled = compile_program(program)
            creator = chain.create_account(seed=b"c", funding=10**19)
            users = [chain.create_account(seed=f"u{i}".encode(), funding=10**19) for i in range(4)]
            deployed = client.deploy(
                compiled, creator, ["LOC", 1, pol_record("h", "s", creator.address, 1, "c1")]
            )
            trace = [deployed.view("getReward")]
            for index, user in enumerate(users[:3]):
                record = pol_record(f"h{index}", f"s{index}", user.address, index + 2, f"c{index}")
                result = deployed.attach_and_call(
                    "attacherAPI.insert_data", record, 10 + index, sender=user
                )
                trace.append(result.value)
            verifier = users[3]
            deployed.api("verifierAPI.insert_money", 50_000, sender=verifier, pay=50_000)
            trace.append(deployed.view("getCtcBalance"))
            deployed.api("verifierAPI.verify", 10, users[0].address, sender=verifier)
            trace.append(deployed.view("getCtcBalance"))
            try:
                deployed.api("verifierAPI.verify", 10, users[0].address, sender=verifier)
                trace.append("double-verify-accepted")
            except ReachCallError:
                trace.append("double-verify-rejected")
            return trace

        assert run_scenario(parsed) == run_scenario(build_pol_program(max_users=4, reward=10_000))
