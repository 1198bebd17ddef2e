"""Tests for the compiler pipeline: AST -> IR -> EVM and TEAL artifacts."""

import pytest

from repro.chain.algorand.teal import assemble
from repro.chain.ethereum import EthereumChain
from repro.core.contract import build_pol_program
from repro.reach import ast as A
from repro.reach.compiler import CompileError, compile_program, lower_to_ir
from repro.reach.runtime import ReachClient, ReachRuntimeError
from repro.reach.types import Bytes, Fun, UInt


@pytest.fixture(scope="module")
def compiled():
    return compile_program(build_pol_program(max_users=4, reward=1_000))


class TestLowering:
    def test_all_entry_points_present(self, compiled):
        names = set(compiled.ir.functions)
        assert {
            "constructor",
            "publish0",
            "attacherAPI.insert_data",
            "verifierAPI.insert_money",
            "verifierAPI.verify",
            "timeout_0",
            "timeout_1",
        } <= names

    def test_phase_guards_assigned(self, compiled):
        functions = compiled.ir.functions
        assert functions["publish0"].phase == 0
        assert functions["attacherAPI.insert_data"].phase == 1
        assert functions["verifierAPI.verify"].phase == 2

    def test_views_compiled(self, compiled):
        assert set(compiled.ir.view_exprs) == {"getCtcBalance", "getReward", "getAnchored"}

    def test_undeclared_global_rejected(self):
        program = build_pol_program()
        program.publish_body = program.publish_body + (A.SetGlobal("ghost", A.const(1)),)
        with pytest.raises(CompileError):
            lower_to_ir(program)

    def test_arg_out_of_range_rejected(self):
        program = build_pol_program()
        program.publish_body = program.publish_body + (A.SetGlobal("sits", A.arg(9)),)
        with pytest.raises(CompileError):
            lower_to_ir(program)

    def test_bytes_map_key_rejected(self):
        program = build_pol_program()
        program.maps[0].key_type = Bytes(32)
        with pytest.raises(CompileError) as excinfo:
            lower_to_ir(program)
        assert "UInt" in str(excinfo.value)

    def test_reserved_global_names(self):
        program = build_pol_program()
        with pytest.raises(ValueError):
            program.declare_global("_phase")

    def test_duplicate_api_method_rejected(self):
        program = build_pol_program()
        method = A.ApiMethod("dup", Fun([], None), body=[])
        program.phase("p2", A.const(0), [A.ApiGroup("g", [method])])
        program.phase("p3", A.const(0), [A.ApiGroup("g", [method])])
        with pytest.raises(CompileError):
            lower_to_ir(program)


class TestBackends:
    def test_evm_artifact_has_all_methods(self, compiled):
        assert "attacherAPI.insert_data" in compiled.evm_code.methods
        assert compiled.evm_code.init_entry == 0

    def test_evm_code_is_substantial(self, compiled):
        # A full state machine should compile to a non-trivial artifact.
        assert len(compiled.evm_code.instrs) > 150
        assert compiled.evm_code.byte_size() > 1_000

    def test_evm_jumps_resolved(self, compiled):
        for instr in compiled.evm_code.instrs:
            if instr.op in ("JUMP", "JUMPI"):
                assert isinstance(instr.arg, int)
                assert compiled.evm_code.instrs[instr.arg].op == "JUMPDEST"

    def test_teal_source_assembles(self, compiled):
        program = assemble(compiled.teal_source)
        assert len(program.instrs) > 150

    def test_teal_has_dispatch_for_every_method(self, compiled):
        for name in compiled.ir.functions:
            if name == "constructor":
                continue
            assert f'byte "{name}"' in compiled.teal_source

    def test_teal_creation_branch_first(self, compiled):
        lines = [line for line in compiled.teal_source.splitlines() if line and not line.startswith("//")]
        assert lines[0] == "txn ApplicationID"
        assert lines[1] == "bnz dispatch"

    def test_single_source_two_artifacts(self, compiled):
        # The blockchain-agnostic claim: same IR feeds both backends.
        assert compiled.evm_code is not None
        assert "itxn_pay" in compiled.teal_source  # transfers exist on AVM side
        assert any(instr.op == "TRANSFER" for instr in compiled.evm_code.instrs)


class TestVerificationGate:
    def test_verified_program_compiles(self, compiled):
        assert compiled.lint_report().banner().endswith("theorems; No failures!")

    def test_unverified_program_refused(self):
        program = build_pol_program()
        # Break token linearity: remove the draining timeout of the last phase.
        bad = program.phases[-1]
        object.__setattr__(bad, "timeout", (60.0, ()))
        compiled = compile_program(program)
        chain = EthereumChain(profile="eth-devnet", seed=7, validator_count=4)
        creator = chain.create_account(seed=b"creator", funding=10**18)
        with pytest.raises(ReachRuntimeError, match="MC-SAFETY-FUNDS refuted"):
            ReachClient(chain).deploy(compiled, creator, ["7H369F4W+Q9", 1, "r" * 16])
        assert chain.next_nonce_for(creator.address) == 0
