"""Tests for the textual contract frontend.

``contracts/proof_of_location.rsh`` is the only source of the PoL
contract: the flagship tests pin the bytes it compiles to for every
parameter binding that runs use, and run a full scenario on it.
"""

import hashlib
import pathlib

import pytest

from repro.chain.ethereum import EthereumChain
from repro.chain.ethereum.evm import serialize_code
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

#: a second declaration of one map name
DUPLICATE_MAP = "\n    map m : UInt => Bytes(8);" * 2


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
            (("global count = 1;", "global count = 1;\n    global count = 5;"), "'count' is already declared"),
            (("view getCount = count;", "view getCount = count;\n    view getCount = 1;"), "already declared"),
            (("global count = 1;", "global count = 1;" + DUPLICATE_MAP), "'m' is already declared"),
            (("global count = 1;", "global count = 1;\n    global _phase = 0;"), "reserved for the runtime"),
            (("(step: UInt)", "(step: UInt, step: UInt)"), "duplicate parameter 'step'"),
            (("global count = 1;", "param count = 2;\n    global count = 1;"), "already declared"),
            (("global count = 1;", "global count = 1;\n    param count = 2;"), "already declared"),
            (("global count = 1;", "param n = 1;\n    param n = 2;\n    global count = 1;"), "already declared"),
            (("global count = 1;", "global count = 1;\n    global twice = count * 2;"), "must be a constant"),
            (("timeout (60)", "timeout (count)"), "must be a constant"),
        ],
    )
    def test_syntax_errors_are_reported(self, mutation, needle):
        old, new = mutation
        with pytest.raises(ParseError) as excinfo:
            parse_contract(MINI.replace(old, new))
        assert needle in str(excinfo.value)

    @pytest.mark.parametrize(
        "old, new, span",
        [("return count;", "return mystery;", (13, 24)), ("global count = 1;", "global count = 1;" + DUPLICATE_MAP, (6, 5))],
    )
    def test_errors_carry_the_offending_span(self, old, new, span):
        with pytest.raises(ParseError) as excinfo:
            parse_contract(MINI.replace(old, new))
        assert excinfo.value.span == span

    def test_empty_source_rejected(self):
        with pytest.raises(ParseError):
            parse_contract("")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_contract(MINI + "\nextra tokens")

    def test_operator_precedence(self):
        source = MINI.replace("count := seed;", "count := seed + count * 3;")
        program = parse_contract(source)
        statement = program.publish_body[0]
        # seed + (count*3), not (seed+count)*3
        assert isinstance(statement.value, A.BinOp)
        assert statement.value.op == "add"
        assert statement.value.right.op == "mul"

    def test_params_fold_to_constants(self):
        source = MINI.replace("global count = 1;", "param start = 7;\n    global count = start;")
        source = source.replace("timeout (60)", "timeout (start * 10)")
        source = source.replace("count := seed;", "count := start - 1;")
        program = parse_contract(source)
        assert program.globals["count"] == 7
        assert program.phases[0].timeout[0] == 70.0
        assert program.publish_body[0].value == A.const(6)
        bound = parse_contract(source, params={"start": 3})
        assert bound.globals["count"] == 3 and bound.publish_body[0].value == A.const(2)

    @pytest.mark.parametrize("expression", ["0 - 1", "1 / 0", "2 % 0", "4294967296 * 4294967296"])
    def test_constants_a_uint_cannot_hold_stay_operations(self, expression):
        # folding must not turn a call that reverts into one that succeeds
        program = parse_contract(MINI.replace("count := seed;", f"count := {expression};"))
        assert isinstance(program.publish_body[0].value, A.BinOp)

    @pytest.mark.parametrize(
        "params, needle",
        [({"ghost": 1}, "unknown parameter 'ghost'"), ({"start": -1}, "non-negative int"),
         ({"start": 1.5}, "non-negative int"), ({"start": True}, "non-negative int")],
    )
    def test_bad_param_bindings_are_parse_errors(self, params, needle):
        source = MINI.replace("global count = 1;", "param start = 7;\n    global count = start;")
        with pytest.raises(ParseError, match=needle):
            parse_contract(source, params=params)

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


#: SHA-256 prefixes of the deployed artifacts -- (EVM code with its method
#: table, TEAL source) -- for every (seats, reward, attach timeout, verify
#: timeout) a run, benchmark, example or test compiles.  Computed from the
#: Python AST builder the ``.rsh`` file replaced, so parameter folding
#: must reproduce its bytes exactly.
DEPLOYED_PINS = {
    (1, 5000, 86400, 86400): ("f3a426dc31d947b0", "b676dd74bf10a4f3"),
    (2, 1000, 86400, 86400): ("023db366371d5d14", "3bf43f1e28a50a9f"),
    (2, 5000, 86400, 86400): ("0f2a301425d26ee3", "a7cddffc671f010d"),
    (2, 5000, 86400, 3600): ("e8dfb85336e59caa", "8ef770b889df0e44"),
    (2, 10000, 86400, 86400): ("9bddf6779884c312", "0b1b34deb46a05d7"),
    (2, 50000, 86400, 86400): ("123375b9a1a5939c", "038ea47df19f447b"),
    (3, 1000, 86400, 86400): ("0fcdb990b374423c", "d49d737c05f53987"),
    (3, 1000, 500, 500): ("e1067a9092289d2a", "7667bca687994e7a"),
    (3, 5000, 50, 50): ("ed492404073fe650", "8bbe9859d5459b2e"),
    (4, 1000, 86400, 86400): ("9c0ce4085f921dc5", "5afb53c60727df4d"),
    (4, 5000, 86400, 86400): ("c5f4056d45b74246", "33c5b6a66ee8927c"),
    (4, 10000, 86400, 86400): ("9420d153b424b91a", "5a173e130aa58f0d"),
    (16, 5000, 86400, 86400): ("e9be145a9fb38fb1", "4675f6cc5edb8f29"),
    (16, 10000, 86400, 86400): ("25e1e0f20056c2f9", "1d7dce2290cb20f7"),
    (40, 1000, 86400, 86400): ("f6d40ef2f83fb59f", "9c979a5d868bb9f4"),
}


class TestPolRshFile:
    @pytest.fixture(scope="class")
    def parsed(self):
        return parse_contract_file(str(RSH_PATH))

    def test_parses_and_verifies(self, parsed):
        compiled = compile_program(parsed)
        assert compiled.lint_report().failures == []

    def test_deployed_bytes_pinned(self):
        moved = {}
        for (seats, reward, attach, verify), pinned in DEPLOYED_PINS.items():
            compiled = compile_program(
                build_pol_program(max_users=seats, reward=reward, attach_timeout=attach, verify_timeout=verify)
            )
            code = compiled.evm_code
            evm = serialize_code(code) + repr((sorted(code.methods.items()), code.init_entry)).encode()
            digests = (
                hashlib.sha256(evm).hexdigest()[:16],
                hashlib.sha256(compiled.teal_source.encode()).hexdigest()[:16],
            )
            if digests != pinned:
                moved[(seats, reward, attach, verify)] = digests
        assert moved == {}

    def test_defaults_bind_the_thesis_contract(self, parsed):
        assert parsed.globals == {"sits": 4, "pending": 0, "reward": 10_000, "position": "", "anchored": 0}
        assert [phase.timeout[0] for phase in parsed.phases] == [86_400.0, 86_400.0]

    def test_scenario_trace(self, parsed):
        """A full deploy/attach/fund/verify scenario on the parsed file."""
        chain = EthereumChain(profile="eth-devnet", seed=201, validator_count=4)
        client = ReachClient(chain)
        creator = chain.create_account(seed=b"c", funding=10**19)
        users = [chain.create_account(seed=f"u{i}".encode(), funding=10**19) for i in range(4)]
        deployed = client.deploy(
            compile_program(parsed), creator, ["LOC", 1, pol_record("h", "s", creator.address, 1, "c1")]
        )
        trace = [deployed.view("getReward")]
        for index, user in enumerate(users[:3]):
            record = pol_record(f"h{index}", f"s{index}", user.address, index + 2, f"c{index}")
            result = deployed.attach_and_call("attacherAPI.insert_data", record, 10 + index, sender=user)
            trace.append(result.value)
        verifier = users[3]
        deployed.api("verifierAPI.insert_money", 50_000, sender=verifier, pay=50_000)
        trace.append(deployed.view("getCtcBalance"))
        deployed.api("verifierAPI.verify", 10, users[0].address, sender=verifier)
        trace.append(deployed.view("getCtcBalance"))
        with pytest.raises(ReachCallError):
            deployed.api("verifierAPI.verify", 10, users[0].address, sender=verifier)
        assert trace == [10_000, 2, 1, 0, 50_000, 40_000]
