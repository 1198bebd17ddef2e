"""The protocol model checker: theorems, determinism, mutations, goldens.

Pins the properties the lint gate and CI rely on:

- both shipped contracts prove every ``MC-SAFETY-*``/``MC-LIVE-*``
  theorem on both backends;
- the sweep is deterministic (same state count, same space digest,
  same theorem list across runs) and backend-agnostic (the EVM and AVM
  artifacts agree on every explored transition);
- a seeded replay-screen mutation -- invisible to the per-vector
  differential because BOTH artifacts are weakened identically -- is
  refuted with a minimized ``MC-CEX``;
- a seeded single-store mutation the per-vector differential misses is
  reported as one ``MC-SPACE-DIVERGE`` whose replayable schedule
  diverges exactly at its last step;
- the committed golden bundle for the deliberately broken sample
  matches a fresh ``repro lint --json`` run byte for byte.
"""

import contextlib
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.reach.absint.equiv import check_equivalence, drop_teal_store
from repro.reach.absint.exec import make_lockstep
from repro.reach.absint.lint import Finding
from repro.reach.absint.modelcheck import (
    _CACHE,
    ALL_THEOREMS,
    MCConfig,
    check_protocol,
    protocol_findings,
    weaken_replay_screen,
)
from repro.reach.absint.modelcheck.universe import (
    batch_slots_of,
    derive_universe,
    find_consumers,
    find_screens,
)
from repro.reach.compiler import compile_program
from repro.reach.parser import parse_contract

REPO = Path(__file__).resolve().parents[2]
POL = REPO / "contracts" / "proof_of_location.rsh"
CROWDFUNDING = REPO / "contracts" / "crowdfunding.rsh"
BROKEN = REPO / "contracts" / "broken" / "proof_of_location_noreplay.rsh"
GOLDEN = REPO / "tests" / "reach" / "golden" / "noreplay_cex.json"


def compiled_from(path):
    return compile_program(parse_contract(path.read_text()))


@pytest.fixture(scope="module")
def pol():
    return compiled_from(POL)


@pytest.fixture(scope="module")
def crowdfunding():
    return compiled_from(CROWDFUNDING)


class TestUniverse:
    def test_pol_screens_found(self, pol):
        screens = find_screens(pol.ir)
        by_fn = {screen.fn for screen in screens}
        assert "attacherAPI.insert_data" in by_fn
        assert "attacherAPI.insert_batch" in by_fn

    def test_batch_slot_classified(self, pol):
        slots = batch_slots_of(pol.ir)
        assert slots == {pol.ir.map_slots["batch_map"]}

    def test_verify_is_the_easy_map_consumer(self, pol):
        consumers = find_consumers(pol.ir)
        assert pol.ir.map_slots["easy_map"] in consumers["verifierAPI.verify"]


class TestTheorems:
    def test_both_shipped_contracts_prove_everything(self, pol, crowdfunding):
        for compiled in (pol, crowdfunding):
            report = check_protocol(compiled)
            assert report.ok, report.render()
            assert report.proved == ALL_THEOREMS
            assert report.refuted == ()

    def test_crowdfunding_sweep_is_exhaustive(self, crowdfunding):
        report = check_protocol(crowdfunding)
        assert not report.bounded  # the state space genuinely closes
        assert report.run.states > 0

    def test_pol_sweep_is_bounded(self, pol):
        # insert_money grows the balance without bound; a bounded sweep
        # is the correct semantics and must say so.
        assert check_protocol(pol).bounded


class TestDeterminism:
    def test_two_cold_runs_are_identical(self, crowdfunding):
        _CACHE.clear()
        first = check_protocol(crowdfunding)
        _CACHE.clear()
        second = check_protocol(crowdfunding)
        assert first.run.states == second.run.states
        assert first.run.transitions == second.run.transitions
        assert first.run.space_digest == second.run.space_digest
        assert first.proved == second.proved

    def test_cache_returns_the_same_report(self, crowdfunding):
        assert check_protocol(crowdfunding) is check_protocol(crowdfunding)

    def test_space_digests_are_pinned(self, pol, crowdfunding):
        # The canonical state encoding feeds every dedup decision; a
        # drift in it (or in what the VMs write) moves these digests
        # even when the state counts happen to survive.
        pinned = {
            "36a629278333d1c085b864c28930a06965f9134d91cb049ced872494404a9a48": (pol, 1341, 8998),
            "6bd09b93f9305355fb0be59f5de8eca17e17321c4a6c6157acf485e397b1870e": (crowdfunding, 59, 191),
        }
        for digest, (compiled, states, transitions) in pinned.items():
            report = check_protocol(compiled)
            assert report.run.space_digest.hex() == digest
            assert (report.run.states, report.run.transitions) == (states, transitions)

    def test_cross_backend_spaces_match(self, pol, crowdfunding):
        for compiled in (pol, crowdfunding):
            report = check_protocol(compiled)
            assert not report.diverged


class TestMutation:
    def test_weakened_screen_is_refuted(self, pol):
        weakened = weaken_replay_screen(pol, 0)
        report = check_protocol(weakened)
        assert "MC-SAFETY-REPLAY" in report.refuted
        cex = next(c for c in report.counterexamples if c.theorem == "MC-SAFETY-REPLAY")
        # Greedy minimization: the essential attack is publish-then-replay.
        assert len(cex.steps) == 2
        assert cex.steps[-1].note == "MC-SAFETY-REPLAY"

    def test_mutated_artifacts_stay_equivalent(self, pol):
        # The point of the mutation: both backends weakened identically,
        # so the per-vector differential cannot catch it.
        assert check_equivalence(weaken_replay_screen(pol, 0)) == []

    def test_ir_keeps_the_declared_screen(self, pol):
        weakened = weaken_replay_screen(pol, 0)
        assert find_screens(weakened.ir) == find_screens(pol.ir)

    def test_out_of_range_screen_index_rejected(self, pol):
        with pytest.raises(ValueError, match="no screen"):
            weaken_replay_screen(pol, 99)

    def test_cli_flag_exits_nonzero_with_cex(self, capsys):
        assert main(["lint", str(POL), "--mutate-reorder", "0"]) == 1
        out = capsys.readouterr().out
        assert "MC-CEX" in out
        assert "MC-SAFETY-REPLAY refuted" in out


class TestFindings:
    def test_proved_theorems_report_as_info(self, crowdfunding):
        findings = protocol_findings(check_protocol(crowdfunding), "x.rsh")
        assert {f.theorem for f in findings} == set(ALL_THEOREMS)
        assert all(f.severity == "info" for f in findings)
        assert all("states" in f.message for f in findings)

    def test_cex_finding_carries_replayable_schedule(self, pol):
        report = check_protocol(weaken_replay_screen(pol, 0))
        findings = protocol_findings(report, "x.rsh")
        cex = next(f for f in findings if f.theorem == "MC-CEX")
        assert cex.severity == "error"
        assert cex.data["theorem"] == "MC-SAFETY-REPLAY"
        steps = cex.data["steps"]
        assert steps[0]["entry"] == "publish0"
        assert steps[-1]["expect"] == "accepted"
        json.dumps(cex.data)  # schedule must be JSON-safe as-is

    def test_unknown_severity_rejected_at_construction(self):
        # SEVERITIES.index(f.severity) used to blow up at render time
        # instead; the constructor is the right place to fail.
        with pytest.raises(ValueError, match="unknown finding severity"):
            Finding(severity="fatal", theorem="X", message="m")

    def test_mc_depth_flag_changes_the_bound(self, capsys):
        assert main(["lint", str(CROWDFUNDING), "--mc-depth", "6"]) == 0
        assert "depth 6" in capsys.readouterr().out

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_mc_depth_below_one_is_a_usage_error(self, depth, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["lint", str(CROWDFUNDING), "--mc-depth", depth])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert "--mc-depth: must be at least 1" in captured.err
        assert "holds" not in captured.out


class TestDivergence:
    """The lockstep sweep names the first transition the backends disagree on."""

    def test_store_drop_the_vectors_miss_is_a_replayable_divergence(self, pol):
        mutated = replace(pol, teal_source=drop_teal_store(pol.teal_source, 16), _lint=None)
        assert check_equivalence(mutated) == []
        report = check_protocol(mutated)
        assert [cex.theorem for cex in report.counterexamples] == ["MC-SPACE-DIVERGE"]
        assert report.refuted == ()
        assert report.proved == ()  # nothing is proved while the backends disagree
        (cex,) = report.counterexamples
        assert cex.steps[-1].expect == "diverges"

        # The schedule, replayed on both models, agrees up to its last step.
        lockstep = make_lockstep(mutated, derive_universe(mutated).keys)
        pair = lockstep.deploy().pair
        for step in cex.steps[:-1]:
            result = lockstep.step(pair, step.action)
            assert not result.divergence
            pair = result.pair
        assert lockstep.step(pair, cex.steps[-1].action).divergence

        (finding,) = protocol_findings(report, "x.rsh")
        assert (finding.severity, finding.theorem) == ("error", "MC-SPACE-DIVERGE")
        assert "counterexample for MC-SPACE-DIVERGE" in finding.message
        assert finding.data["steps"][-1]["expect"] == "diverges"
        json.dumps(finding.data)

    def test_constructor_divergence_reports_only_the_divergence(self, pol):
        mutated = replace(pol, teal_source=drop_teal_store(pol.teal_source, 5), _lint=None)
        report = check_protocol(mutated, MCConfig(depth=4))
        assert [cex.theorem for cex in report.counterexamples] == ["MC-SPACE-DIVERGE"]
        assert report.counterexamples[0].steps == ()  # the deploy itself diverges
        assert "MC-LIVE-VERIFY" not in report.refuted

    def test_unassemblable_teal_is_a_divergence_not_a_crash(self, crowdfunding):
        broken = replace(crowdfunding, teal_source=crowdfunding.teal_source + "no_such_opcode\n", _lint=None)
        (cex,) = check_protocol(broken).counterexamples
        assert (cex.theorem, cex.steps) == ("MC-SPACE-DIVERGE", ())
        assert "but AVM machine-error: " in cex.message

    def test_cli_reports_the_divergence_journey(self, capsys):
        assert main(["lint", str(POL), "--mutate-teal-drop", "16"]) == 1
        out = capsys.readouterr().out
        assert "EQ-DIVERGE" not in out
        assert "MC-CEX" not in out
        tail = out.split("MC-SPACE-DIVERGE", 1)[1]
        assert tail.splitlines()[1].startswith("counterexample for MC-SPACE-DIVERGE")


class TestGolden:
    """The committed counterexample bundle stays in sync with the checker."""

    def test_golden_bundle_matches_fresh_lint(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["lint", str(BROKEN), "--json"])
        report = json.loads(buf.getvalue())[0]
        fresh = {
            "contract": report["contract"],
            "exit_code": code,
            "findings": [f for f in report["findings"] if f["theorem"].startswith("MC-")],
        }
        golden = json.loads(GOLDEN.read_text())
        assert fresh == golden

    def test_broken_sample_refutes_anchor(self):
        report = check_protocol(compiled_from(BROKEN))
        assert report.refuted == ("MC-SAFETY-ANCHOR",)
