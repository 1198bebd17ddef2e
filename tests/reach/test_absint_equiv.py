"""Cross-backend equivalence: emitted EVM and TEAL must agree.

``check_equivalence`` executes both artifacts over shared IR-derived
vectors and diffs the observable effects (status, globals, map entries,
transfers, events, return value).  The seeded mutations are the
self-test: dropping a TEAL store or neutralizing an EVM SSTORE must be
*caught*, otherwise the checker proves nothing.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.contract import build_pol_program
from repro.reach.absint.equiv import (
    check_equivalence,
    drop_teal_store,
    neutralize_evm_sstore,
)
from repro.reach.absint.lint import lint_compiled
from repro.reach.compiler import compile_program
from repro.reach.parser import parse_contract_file

REPO = Path(__file__).resolve().parents[2]
GOLDEN = REPO / "tests" / "reach" / "golden" / "eq_diverge.json"


@pytest.fixture(scope="module")
def pol():
    return compile_program(build_pol_program())


@pytest.fixture(scope="module")
def crowdfunding():
    return compile_program(parse_contract_file("contracts/crowdfunding.rsh"))


class TestBackendsAgree:
    def test_pol_backends_agree(self, pol):
        assert check_equivalence(pol) == []

    def test_crowdfunding_backends_agree(self, crowdfunding):
        assert check_equivalence(crowdfunding) == []

    def test_compile_with_check_enforces_equivalence(self):
        # the lint gate every deploy path reads runs the equivalence check
        report = compile_program(build_pol_program()).lint_report()
        assert not any(f.theorem == "EQ-DIVERGE" for f in report.findings)
        assert not report.has_errors


class TestSeededMutationsAreCaught:
    def test_dropped_teal_store_diverges(self, pol):
        mutated = replace(pol, teal_source=drop_teal_store(pol.teal_source, 0), _lint=None)
        divergences = check_equivalence(mutated)
        assert divergences
        assert any("differs" in d for d in divergences)

    def test_neutralized_evm_sstore_diverges(self, pol):
        mutated = replace(pol, evm_code=neutralize_evm_sstore(pol.evm_code, 2), _lint=None)
        assert check_equivalence(mutated)

    def test_observable_teal_stores_are_load_bearing(self, crowdfunding):
        # Drop each store in turn.  Stores of zero are legitimately
        # unobservable (absent keys read back as zero on both
        # backends), but every store of a nonzero value must be caught.
        caught, total = [], 0
        while True:
            try:
                mutated_teal = drop_teal_store(crowdfunding.teal_source, total)
            except ValueError:
                break
            mutated = replace(crowdfunding, teal_source=mutated_teal, _lint=None)
            if check_equivalence(mutated):
                caught.append(total)
            total += 1
        assert total >= 10
        assert len(caught) >= (3 * total) // 4
        # the nonzero constructor stores (goal, open, _creator) specifically
        assert {1, 2, 3} <= set(caught)

    def test_mutation_surfaces_as_lint_error(self, pol):
        mutated = replace(pol, teal_source=drop_teal_store(pol.teal_source, 0), _lint=None)
        report = lint_compiled(mutated)
        assert report.has_errors
        assert any(f.theorem == "EQ-DIVERGE" for f in report.findings)

    def test_out_of_range_mutation_index_raises(self, pol):
        with pytest.raises(ValueError):
            drop_teal_store(pol.teal_source, 10_000)
        with pytest.raises(ValueError):
            neutralize_evm_sstore(pol.evm_code, 10_000)


class TestGoldenDivergences:
    """The exact EQ-DIVERGE messages of the seeded mutations, pinned: a
    change in how either artifact is run or observed shows up as a
    changed message, not only as a changed verdict."""

    @pytest.fixture(scope="class")
    def contracts(self):
        return {
            name: compile_program(parse_contract_file(str(REPO / "contracts" / f"{name}.rsh")))
            for name in ("proof_of_location", "crowdfunding")
        }

    def test_mutation_messages_match_golden(self, contracts):
        golden = json.loads(GOLDEN.read_text())
        pol, crowdfunding = contracts["proof_of_location"], contracts["crowdfunding"]
        cases = {
            "proof_of_location drop_teal_store(0)": replace(
                pol, teal_source=drop_teal_store(pol.teal_source, 0), _lint=None
            ),
            "proof_of_location neutralize_evm_sstore(2)": replace(
                pol, evm_code=neutralize_evm_sstore(pol.evm_code, 2), _lint=None
            ),
        }
        index = 0
        while True:  # every crowdfunding store: the caught ones are pinned, the rest stay clean
            try:
                mutated_teal = drop_teal_store(crowdfunding.teal_source, index)
            except ValueError:
                break
            cases[f"crowdfunding drop_teal_store({index})"] = replace(
                crowdfunding, teal_source=mutated_teal, _lint=None
            )
            index += 1
        assert set(golden) - set(cases) == {"crowdfunding unassemblable TEAL"}
        for case, mutated in cases.items():
            assert check_equivalence(mutated) == golden.get(case, []), case

    def test_unassemblable_teal_is_a_machine_error_divergence(self, contracts):
        crowdfunding = contracts["crowdfunding"]
        broken = replace(crowdfunding, teal_source=crowdfunding.teal_source + "no_such_opcode\n", _lint=None)
        divergences = check_equivalence(broken)
        assert divergences
        assert all("but AVM machine-error: " in d and "unknown opcode 'no_such_opcode'" in d for d in divergences)
        assert divergences == json.loads(GOLDEN.read_text())["crowdfunding unassemblable TEAL"]
