"""The backend models' read-footprint memo is exact.

The memo answers a VM call from an earlier one with the same action
whose reads -- store cells, and the balance and the clock when the call
used them -- found the same values.  These tests hold it to its claim on
the sweeps the lint gate and CI run (the PoL contract at 4 and 16
seats, crowdfunding, and the two seeded mutants only the lockstep sweep
catches):

- every memoized outcome equals a fresh run of the real VM: status,
  error text, cell edits, transfers, logs and return value;
- the sweep with the memo on and the sweep with every lookup forced to
  miss produce the same ``MCRun``;
- the check has teeth: a memo that drops a recorded clock or balance
  read fails it;
- the gate's work is pinned exactly: VM calls and lockstep steps per
  backend on the 4- and 16-seat PoL sweeps and crowdfunding.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.chain.algorand.avm import AVM
from repro.chain.ethereum.evm import EVM
from repro.core.contract import build_pol_program
from repro.reach.absint import modelcheck
from repro.reach.absint.equiv import drop_teal_store
from repro.reach.absint.encode import UNSET
from repro.reach.absint.exec import BackendModel, Lockstep, _Input, _Recording, make_lockstep
from repro.reach.absint.modelcheck import MCConfig, check_protocol, weaken_replay_screen
from repro.reach.absint.modelcheck.explore import explore
from repro.reach.absint.modelcheck.universe import derive_universe
from repro.reach.compiler import compile_program
from repro.reach.parser import parse_contract

REPO = Path(__file__).resolve().parents[2]
#: the memoized outcome, as defined (tests below patch the class attribute)
OUTCOME = BackendModel._outcome


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


def _run_vm(model, state, template, cells):
    """The call's outcome as the VM computes it on fresh stores, with the
    clock and the balance as plain numbers: no memo, nothing recorded."""
    return model._run(template, model._stores(state), float(state.now), state.balance)


def _checking(monkeypatch, mismatches):
    """Re-run every call on the real VM and log each one the memo got
    wrong: an outcome holds the call's status, error text, cell edits,
    transfers, logs and return value, and with its state it makes the
    step's result."""

    def outcome(self, state, template, cells):
        found = OUTCOME(self, state, template, cells)
        expected = _run_vm(self, state, template, cells)
        if found != expected:
            mismatches.append((template.name, found, expected))
        return found

    monkeypatch.setattr(BackendModel, "_outcome", outcome)


@pytest.mark.parametrize("name", ["pol-4", "pol-16", "crowdfunding", "teal-drop-16", "reorder-0"])
def test_memo_is_exact(name):
    compiled = _contract(name)
    mismatches = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        _checking(monkeypatch, mismatches)
        memoized = _sweep(compiled)
    assert mismatches == []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(BackendModel, "_outcome", _run_vm)  # every lookup misses
        unmemoized = _sweep(compiled)
    assert memoized == unmemoized
    assert memoized.states > 0


def _drops_clock(monkeypatch):
    def inputs(model, state, log):
        return float(state.now), _Input(state.balance, model.balance_cell, log)

    monkeypatch.setattr(BackendModel, "_inputs", inputs)


def _drops_balance(monkeypatch):
    def inputs(model, state, log):
        return _Input(state.now, model.clock_cell, log), state.balance

    monkeypatch.setattr(BackendModel, "_inputs", inputs)


def _drops_store_reads(monkeypatch):
    monkeypatch.setattr(_Recording, "_read", lambda store, key: dict.get(store, key, UNSET))


@pytest.mark.parametrize(
    "drop", [_drops_clock, _drops_balance, _drops_store_reads], ids=["drops-now", "drops-balance", "drops-store-reads"]
)
def test_check_fails_on_a_key_that_drops_an_input(monkeypatch, drop):
    """A memo whose key -- the recorded read sequence -- leaves out a
    clock, balance or store read the call made answers some call wrong."""
    drop(monkeypatch)
    mismatches = []
    _checking(monkeypatch, mismatches)
    _sweep(_contract("pol-4"))
    assert mismatches


@pytest.mark.parametrize(
    "name, states, transitions, vm_calls, steps, liveness_steps",
    [
        ("pol-4", 1_341, 8_998, 248, 10_251, 1_252),
        ("pol-16", 961, 6_326, 213, 7_227, 900),
        ("crowdfunding", 59, 191, 55, 192, 0),
    ],
    ids=["pol-4", "pol-16", "crowdfunding"],
)
def test_gate_work_is_pinned(monkeypatch, name, states, transitions, vm_calls, steps, liveness_steps):
    """Per backend: VM calls, and lockstep steps (the sweep's transitions,
    the deploy, and the liveness certifier's steps)."""
    counts = {"evm": 0, "avm": 0, "steps": 0}
    real_evm, real_avm, real_step_all = EVM.execute, AVM.execute, Lockstep.step_all

    def evm_execute(self, *args, **kwargs):
        counts["evm"] += 1
        return real_evm(self, *args, **kwargs)

    def avm_execute(self, *args, **kwargs):
        counts["avm"] += 1
        return real_avm(self, *args, **kwargs)

    def step_all(self, pair, templates):
        counts["steps"] += len(templates)
        return real_step_all(self, pair, templates)

    monkeypatch.setattr(modelcheck, "_CACHE", {})
    monkeypatch.setattr(EVM, "execute", evm_execute)
    monkeypatch.setattr(AVM, "execute", avm_execute)
    monkeypatch.setattr(Lockstep, "step_all", step_all)
    report = check_protocol(_contract(name), MCConfig(depth=12))
    assert report.ok
    assert (report.run.states, report.run.transitions) == (states, transitions)
    assert counts == {"evm": vm_calls, "avm": vm_calls, "steps": steps}
    assert steps - transitions - 1 == liveness_steps
