"""The backend models' read-footprint memo is exact.

The memo answers a VM call from an earlier one with the same action,
clock and balance whose store reads found the same values.  These tests
hold it to its claim on the sweeps the lint gate and CI run (the PoL
contract at 4 and 16 seats, crowdfunding, and the two seeded mutants
only the lockstep sweep catches):

- every memoized step equals a fresh run of the real VM: status,
  successor state, transfers, error text, logs and return value;
- the sweep with the memo on and the sweep with every lookup forced to
  miss produce the same ``MCRun``;
- the check has teeth: a memo key that drops the clock or the balance
  fails it;
- the memo is what keeps the 4-seat gate cheap: its sweep runs at most
  a thousand calls per VM (ten thousand without it).
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.chain.algorand.avm import AVM
from repro.chain.ethereum.evm import EVM
from repro.core.contract import build_pol_program
from repro.reach.absint import modelcheck
from repro.reach.absint.equiv import drop_teal_store
from repro.reach.absint.exec import BackendModel, make_lockstep
from repro.reach.absint.modelcheck import MCConfig, check_protocol, weaken_replay_screen
from repro.reach.absint.modelcheck.explore import explore
from repro.reach.absint.modelcheck.universe import derive_universe
from repro.reach.compiler import compile_program
from repro.reach.parser import parse_contract

REPO = Path(__file__).resolve().parents[2]
#: the memoized step, as defined (tests below patch the class attribute)
EXECUTE = BackendModel._execute


def _from_file(name):
    return compile_program(parse_contract((REPO / "contracts" / name).read_text()))


def _contract(name):
    if name == "pol-4":
        return compile_program(build_pol_program(max_users=4, reward=1_000))
    if name == "pol-16":
        return compile_program(build_pol_program(max_users=16, reward=5_000))
    if name == "crowdfunding":
        return _from_file("crowdfunding.rsh")
    pol = _from_file("proof_of_location.rsh")
    if name == "teal-drop-16":
        return replace(pol, teal_source=drop_teal_store(pol.teal_source, 16), _lint=None)
    assert name == "reorder-0"
    return weaken_replay_screen(pol, 0)


def _sweep(compiled):
    """One default-depth lockstep sweep on fresh models (no report cache)."""
    config = MCConfig()
    universe = derive_universe(compiled, config)
    return explore(make_lockstep(compiled, universe.keys), universe, config, compiled.ir.phase_count)


def _unmemoized(model, state, template):
    """The step as the VM computes it, bypassing the model's memo."""
    model._recall = model._run  # an instance attribute shadows the method
    try:
        return EXECUTE(model, state, template)
    finally:
        del model._recall


def _checking(monkeypatch, mismatches):
    """Re-run every step on the real VM and log each one the memo got wrong."""

    def execute(self, state, template):
        result = EXECUTE(self, state, template)
        expected = _unmemoized(self, state, template)
        if result != expected:
            mismatches.append((template.name, result, expected))
        return result

    monkeypatch.setattr(BackendModel, "_execute", execute)


def _run_vm(model, state, template, stores):
    return model._run(state, template, stores)


@pytest.mark.parametrize("name", ["pol-4", "pol-16", "crowdfunding", "teal-drop-16", "reorder-0"])
def test_memo_is_exact(name):
    compiled = _contract(name)
    mismatches = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        _checking(monkeypatch, mismatches)
        memoized = _sweep(compiled)
    assert mismatches == []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(BackendModel, "_recall", _run_vm)  # every lookup misses
        unmemoized = _sweep(compiled)
    assert memoized == unmemoized
    assert memoized.states > 0


@pytest.mark.parametrize(
    "prefix",
    [
        pytest.param(lambda state, template: (template, state.balance), id="drops-now"),
        pytest.param(lambda state, template: (template, state.now), id="drops-balance"),
    ],
)
def test_check_fails_on_a_key_that_drops_an_input(monkeypatch, prefix):
    monkeypatch.setattr(BackendModel, "_prefix", staticmethod(prefix))
    mismatches = []
    _checking(monkeypatch, mismatches)
    _sweep(_contract("pol-4"))
    assert mismatches


def test_pol_gate_runs_at_most_a_thousand_calls_per_vm(monkeypatch):
    calls = {"evm": 0, "avm": 0}
    real_evm, real_avm = EVM.execute, AVM.execute

    def evm_execute(self, *args, **kwargs):
        calls["evm"] += 1
        return real_evm(self, *args, **kwargs)

    def avm_execute(self, *args, **kwargs):
        calls["avm"] += 1
        return real_avm(self, *args, **kwargs)

    monkeypatch.setattr(modelcheck, "_CACHE", {})
    monkeypatch.setattr(EVM, "execute", evm_execute)
    monkeypatch.setattr(AVM, "execute", avm_execute)
    report = check_protocol(_contract("pol-4"), MCConfig(depth=12))
    assert report.ok and report.run.states == 1341
    assert calls["evm"] <= 1_000 and calls["avm"] <= 1_000, calls
