"""Golden transcript of every VM call the model checker makes.

The checker's state digests deliberately ignore gas, opcode counts and
error strings, so a sweep can stay byte-identical while an interpreter
drifts underneath it.  This test closes that gap: it records every
``EVM.execute`` / ``AVM.execute`` outcome of the PoL and crowdfunding
sweeps at a reduced depth, plus the per-vector equivalence check the
lint gate runs beside them -- inputs, status, error text, gas or opcode count,
writes, deletes, transfers, logs and return value -- and pins a SHA-256
over the sorted set of distinct (inputs, outcome) records.

The set, not the call sequence, is hashed: the explorer may skip
re-executing a (state, action) pair it has already run without changing
what the interpreters compute.  The backend models' read-footprint memo
skips far more (a sweep then runs about one VM call in eleven), so this
test forces every memo lookup to miss: the interpreters still run on
every input the sweep explores, and the pinned set stays the one the
memo's exactness rests on.
"""

import hashlib
import inspect
from pathlib import Path

import pytest

from repro.chain.algorand.avm import AVM, AvmError, AvmPanic
from repro.chain.ethereum.evm import EVM, VMError, VMRevert
from repro.reach.absint import equiv, modelcheck
from repro.reach.absint.exec import BackendModel
from repro.reach.absint.modelcheck import MCConfig, check_protocol
from repro.reach.compiler import compile_program
from repro.reach.parser import parse_contract

REPO = Path(__file__).resolve().parents[2]
CONTRACTS = ("proof_of_location.rsh", "crowdfunding.rsh")
DEPTH = 8

#: computed with the string-dispatch interpreters the decoded ones replaced
GOLDEN_SHA256 = "69d575131fda85665e41892ba0d794cc1a6b56f829e4bd52c874912a3c36a7fb"
GOLDEN_RECORDS = 7484


def _items(mapping):
    return tuple(sorted(mapping.items()))


def _evm_outcome(result):
    return (
        "ok",
        result.gas_used,
        result.refund,
        result.return_value,
        tuple(result.logs),
        tuple(result.transfers),
        _items(result.storage_writes),
    )


def _avm_outcome(result):
    return (
        "ok",
        result.approved,
        result.ops_used,
        result.return_value,
        tuple(result.logs),
        _items(result.global_writes),
        tuple(sorted(result.global_deletes)),
        _items(result.box_writes),
        tuple(sorted(result.box_deletes)),
        tuple(result.inner_payments),
    )


def _recording(monkeypatch, records):
    real_evm, real_avm = EVM.execute, AVM.execute
    evm_signature = inspect.signature(real_evm)

    def evm_execute(self, contract, *args, **kwargs):
        bound = evm_signature.bind(self, contract, *args, **kwargs)
        bound.apply_defaults()
        call = {name: value for name, value in bound.arguments.items() if name not in ("self", "contract")}
        call["args"] = tuple(call["args"])
        inputs = ("evm", contract.address, contract.creator, _items(call), _items(contract.storage))
        try:
            result = real_evm(self, contract, *args, **kwargs)
        except (VMRevert, VMError) as exc:
            records.add(repr((inputs, (type(exc).__name__, str(exc), getattr(exc, "gas_used", None)))))
            raise
        records.add(repr((inputs, _evm_outcome(result))))
        return result

    def avm_execute(self, app, ctx):
        inputs = ("avm", app.app_id, app.address, app.creator, repr(ctx), _items(app.global_state), _items(app.boxes))
        try:
            result = real_avm(self, app, ctx)
        except (AvmPanic, AvmError) as exc:
            records.add(repr((inputs, (type(exc).__name__, str(exc)))))
            raise
        records.add(repr((inputs, _avm_outcome(result))))
        return result

    monkeypatch.setattr(EVM, "execute", evm_execute)
    monkeypatch.setattr(AVM, "execute", avm_execute)


def _run_vm(model, state, template, cells):
    """A memo lookup forced to miss: the VM runs on every call, on fresh
    stores, with the clock and the balance as plain numbers."""
    return model._run(template, model._stores(state), float(state.now), state.balance)


@pytest.fixture(scope="module")
def transcript():
    records: set[str] = set()
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(modelcheck, "_CACHE", {})
        monkeypatch.setattr(equiv, "_CACHE", {})
        monkeypatch.setattr(BackendModel, "_outcome", _run_vm)
        _recording(monkeypatch, records)
        for name in CONTRACTS:
            compiled = compile_program(parse_contract((REPO / "contracts" / name).read_text()))
            assert equiv.check_equivalence(compiled) == []
            report = check_protocol(compiled, MCConfig(depth=DEPTH))
            assert report.ok, report.render()
    return sorted(records)


def test_sweeps_cover_both_interpreters_and_every_outcome_kind(transcript):
    backends = {line[3:6] for line in transcript}
    assert backends == {"evm", "avm"}
    assert any("'VMRevert'" in line for line in transcript)
    assert any("'AvmPanic'" in line for line in transcript)


def test_vm_transcript_matches_golden(transcript):
    digest = hashlib.sha256("\n".join(transcript).encode()).hexdigest()
    assert (len(transcript), digest) == (GOLDEN_RECORDS, GOLDEN_SHA256)
