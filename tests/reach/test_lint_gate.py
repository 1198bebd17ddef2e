"""The ``repro lint`` gate: exit codes, deploy refusal, determinism.

Pins the CLI's exit-code contract (0 clean, 1 findings, 2 internal),
the runtime's refusal to deploy a contract with lint errors, the
system facade's fail-fast, and a Python mirror of CI's determinism
grep so a wall-clock or unseeded-randomness regression fails locally
before it flakes in CI.
"""

import gc
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.chain.ethereum import EthereumChain
from repro.core.contract import build_pol_program
from repro.core.system import PolSystemError, ProofOfLocationSystem
from repro.reach.absint import equiv, modelcheck
from repro.reach.absint.equiv import drop_teal_store
from repro.reach.compiler import compile_program
from repro.reach.runtime import ReachClient, ReachRuntimeError

REPO = Path(__file__).resolve().parents[2]
POL = str(REPO / "contracts" / "proof_of_location.rsh")
CROWDFUNDING = str(REPO / "contracts" / "crowdfunding.rsh")
GOLDEN_POL_16 = REPO / "tests" / "reach" / "golden" / "lint_pol_16.txt"


def mutated_pol():
    compiled = compile_program(build_pol_program())
    return replace(compiled, teal_source=drop_teal_store(compiled.teal_source, 0), _lint=None)


class TestExitCodes:
    def test_clean_contract_exits_zero(self, capsys):
        assert main(["lint", POL]) == 0
        out = capsys.readouterr().out
        # The amortization theorem reports as info; info never gates.
        assert "[info] COST-BATCH-AMORTIZED" in out
        assert "EVM gas" in out  # the cost table is part of the report

    def test_directory_expands_to_all_contracts(self, capsys):
        assert main(["lint", str(REPO / "contracts")]) == 0
        out = capsys.readouterr().out
        assert "crowdfunding" in out and "proof-of-location" in out

    def test_mutated_contract_exits_one(self, capsys):
        assert main(["lint", POL, "--mutate-teal-drop", "0"]) == 1
        assert "EQ-DIVERGE" in capsys.readouterr().out

    def test_evm_mutation_exits_one(self, capsys):
        assert main(["lint", POL, "--mutate-evm-sstore", "2"]) == 1
        assert "EQ-DIVERGE" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", str(REPO / "no-such-place")]) == 2

    @pytest.mark.parametrize(
        "flag, index",
        [("--mutate-teal-drop", "999"), ("--mutate-evm-sstore", "999"), ("--mutate-reorder", "7")],
    )
    def test_out_of_range_mutation_index_exits_two(self, flag, index, capsys):
        # Exit 1 would read as "the seeded mutation was caught".
        assert main(["lint", POL, flag, index]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no " in captured.err and f"#{index}" in captured.err

    def test_parse_error_is_a_finding_not_a_crash(self, tmp_path, capsys):
        bad = tmp_path / "broken.rsh"
        bad.write_text('contract "broken" { this is not the syntax }\n')
        assert main(["lint", str(bad)]) == 1
        assert "PARSE-ERROR" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "old, new, declaration",
        [
            ("Bytes(64);\n", "Bytes(64);\n    map counts : UInt => UInt;\n", "map counts"),
            ("amount: UInt) returns", "amount: Bytes(8)) returns", "pledge("),
            ("    refund(", "    sweep(to: Address) returns UInt {\n                return 1;\n            }\n            refund(",
             "sweep(to:"),
        ],
        ids=["uint-map-value", "bytes-pay", "duplicate-method"],
    )
    def test_ill_formed_declaration_is_an_error_at_its_line(
        self, tmp_path, capsys, old, new, declaration
    ):
        broken = tmp_path / "crowdfunding.rsh"
        broken.write_text(Path(CROWDFUNDING).read_text().replace(old, new, 1))
        line, col = next(
            (number, text.index(declaration) + 1)
            for number, text in enumerate(broken.read_text().splitlines(), start=1)
            if declaration in text
        )
        assert main(["lint", str(broken)]) == 1
        assert f"  [error] COMPILE-ERROR {broken}:{line}:{col}: " in capsys.readouterr().out

    def test_duplicate_declaration_is_a_parse_error_at_its_line(self, tmp_path, capsys):
        duplicated = tmp_path / "dup-global.rsh"
        duplicated.write_text(
            Path(CROWDFUNDING).read_text().replace("global open = 1;\n", "global open = 1;\n    global goal = 5;\n", 1)
        )
        assert main(["lint", str(duplicated)]) == 1
        assert f"  [error] PARSE-ERROR {duplicated}:12:5: 'goal' is already declared" in capsys.readouterr().out

    def test_error_report_is_titled_by_the_declared_name(self, tmp_path, capsys):
        # A compile error is reported under the contract's declared name,
        # not the file's; a file that does not parse has only its stem.
        renamed = tmp_path / "uint-map.rsh"
        renamed.write_text(
            Path(CROWDFUNDING).read_text().replace("Bytes(64);\n", "Bytes(64);\n    map counts : UInt => UInt;\n", 1)
        )
        unparsable = tmp_path / "broken.rsh"
        unparsable.write_text('contract "declared" { this is not the syntax }\n')
        assert main(["lint", str(renamed), str(unparsable)]) == 1
        out = capsys.readouterr().out
        assert f"Lint report for contract 'crowdfunding' ({renamed})" in out
        assert "COMPILE-ERROR" in out and "'uint-map'" not in out
        assert f"Lint report for contract 'broken' ({unparsable})" in out

    def test_empty_directory_exits_two(self, tmp_path):
        assert main(["lint", str(tmp_path)]) == 2

    def test_json_output_carries_bounds(self, capsys):
        import json

        assert main(["lint", CROWDFUNDING, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entries = payload[0]["costs"]
        assert "constructor" in entries
        lo, hi = entries["constructor"]["evm_gas"]
        assert 0 < lo <= hi

    def test_info_only_findings_exit_zero(self, capsys):
        # A clean contract still reports [info] findings (amortization,
        # proved MC theorems); info alone never gates.
        assert main(["lint", POL]) == 0
        out = capsys.readouterr().out
        assert "[info]" in out
        assert "[error]" not in out and "[warning]" not in out
        for theorem in ("MC-SAFETY-FUNDS", "MC-SAFETY-REPLAY", "MC-LIVE-VERIFY"):
            assert f"[info] {theorem}" in out

    def test_json_findings_carry_data_field(self, capsys):
        import json

        assert main(["lint", CROWDFUNDING, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # Every finding exposes the machine-readable payload slot; it is
        # null except for MC-CEX schedules.
        assert all("data" in f for f in payload[0]["findings"])


class TestDeployGate:
    def test_runtime_refuses_divergent_artifacts(self):
        chain = EthereumChain(profile="eth-devnet", seed=7, validator_count=4)
        client = ReachClient(chain)
        creator = chain.create_account(seed=b"creator", funding=10**18)
        compiled = mutated_pol()
        args = ["7H369F4W+Q9", 9_999, "r" * 16]
        with pytest.raises(ReachRuntimeError, match="refusing to deploy"):
            client.deploy(compiled, creator, args)

    def test_system_facade_fails_fast(self):
        chain = EthereumChain(profile="eth-devnet", seed=7, validator_count=4)
        with pytest.raises(PolSystemError, match="fails lint"):
            ProofOfLocationSystem(chain=chain, compiled=mutated_pol())

    def test_clean_contract_still_deploys(self):
        chain = EthereumChain(profile="eth-devnet", seed=7, validator_count=4)
        system = ProofOfLocationSystem(chain=chain, reward=5_000, max_users=2)
        assert system.compiled.lint_report().exit_code == 0


class TestDeployedContract:
    def test_sixteen_seat_report_matches_golden(self):
        # the contract the batch-of-16 workloads deploy, rendered whole
        compiled = compile_program(build_pol_program(max_users=16, reward=5_000))
        assert compiled.lint_report().render() + "\n" == GOLDEN_POL_16.read_text()

    def test_cold_lint_leaves_no_cyclic_analysis_garbage(self, monkeypatch):
        # Analyses must free their CFGs and instruction streams by
        # reference counting, not leave them to the cycle collector.
        monkeypatch.setattr(equiv, "_CACHE", {})
        monkeypatch.setattr(modelcheck, "_CACHE", {})
        compiled = compile_program(build_pol_program())
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            compiled.lint_report()
            gc.collect()
            leaked = sorted({type(obj).__name__ for obj in gc.garbage} & {"TealInstr", "BasicBlock", "CFG"})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []


class TestDeterminismLint:
    """A local mirror of CI's determinism grep over ``src/repro``.

    The simulators derive all time and randomness from seeded sources;
    wall-clock reads or unseeded randomness would make benchmark
    numbers unreproducible.  Lines with backticks or ``#`` are prose
    (docstrings mentioning ``time.time()``), not calls.
    """

    FORBIDDEN = re.compile(
        r"time\.time\(|datetime\.now\(|random\.random\(\)|random\.randint\(|random\.choice\("
    )

    def test_no_wall_clock_or_unseeded_randomness(self):
        offenders = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), start=1):
                if "`" in line or "#" in line:
                    continue
                if self.FORBIDDEN.search(line):
                    offenders.append(f"{path.relative_to(REPO)}:{number}: {line.strip()}")
        assert not offenders, "\n".join(offenders)
