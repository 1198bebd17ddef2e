"""Waves pause the cyclic garbage collector and restore it on the way out.

``drive`` and the facade's waves (``submit_many``, ``fund_contracts``,
``verify_many``, ``light_verify_many``) run under
:func:`repro.chain.base.collector_paused`: automatic collection is off
inside, and the caller's setting is back when the wave returns or
raises.  The block listeners below see the collector's state at every
block a wave produces.
"""

import gc
from types import SimpleNamespace

import pytest

from repro.chain import ChainError, drive
from repro.chain.base import collector_paused
from repro.chain.ethereum import EthereumChain
from repro.core import system as system_module
from repro.core.contract import build_pol_program, pol_record
from repro.core.system import ProofOfLocationSystem
from repro.reach.compiler import compile_program
from repro.reach.runtime import ReachClient
from repro.simnet import EventQueue

ETH = 10**18
LAT, LNG = 44.4949, 11.3426
NEAR = 0.0002


@pytest.fixture(autouse=True)
def collector_enabled():
    """Start each test with the collector on; leave it as it was found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


def watch_collector(chain) -> list[bool]:
    """``gc.isenabled()`` at every block ``chain`` produces from now on."""
    seen: list[bool] = []
    chain.block_listeners.append(lambda _chain, _block: seen.append(gc.isenabled()))
    return seen


def facade(provers: tuple[str, ...]):
    """A devnet facade with one seat per prover, and each prover's proof."""
    chain = EthereumChain(profile="eth-devnet", seed=31, validator_count=4)
    # One seat each: funding reverts until every seat is taken.
    system = ProofOfLocationSystem(chain=chain, reward=5_000, max_users=len(provers))
    for name in provers:
        system.register_prover(name, LAT, LNG, funding=ETH)
    system.register_witness("walter", LAT, LNG + NEAR)
    submissions = []
    for name in provers:
        request, proof, _cid = system.request_location_proof(name, "walter", name.encode())
        submissions.append((name, request, proof))
    return system, submissions


def assert_paused_inside(seen: list[bool]) -> None:
    assert seen, "the wave produced no block"
    assert not any(seen), seen
    assert gc.isenabled()
    seen.clear()


class TestWavesPause:
    def test_facade_waves(self, monkeypatch):
        system, submissions = facade(("anna", "bruno"))
        system.register_verifier("vera", funding=ETH)
        seen = watch_collector(system.chain)

        outcomes = system.submit_many(submissions)
        assert_paused_inside(seen)
        olc = outcomes[0].olc
        system.fund_contracts("vera", {olc: 10_000})
        assert_paused_inside(seen)
        targets = [(olc, system.provers[name].did_uint) for name, _r, _p in submissions]
        assert [f.name for f in system.verify_many("vera", targets)] == ["OK", "OK"]
        assert_paused_inside(seen)

        # light_verify_many produces no block: probe the read it makes.
        contract_at = system._contract_at
        reads: list[bool] = []

        def probed(olc_):
            reads.append(gc.isenabled())
            return contract_at(olc_)

        monkeypatch.setattr(system, "_contract_at", probed)
        ghost = SimpleNamespace(olc=olc, batch_id=1, records=[])
        assert system.light_verify_many("vera", [ghost]) == []
        assert reads == [False]
        assert gc.isenabled()

    def test_blocking_reach_client_operation(self):
        chain = EthereumChain(profile="eth-devnet", seed=5, validator_count=4)
        creator = chain.create_account(seed=b"pause/creator", funding=10 * ETH)
        compiled = compile_program(build_pol_program(max_users=4, reward=1_000))
        record = pol_record("hash-1", "sig-1", creator.address, 7, "cid-1")
        seen = watch_collector(chain)
        deployed = ReachClient(chain).deploy(compiled, creator, ["8FPHC9C2+22", 1, record])
        assert deployed.ref
        assert_paused_inside(seen)


class TestCallerSettingRestored:
    def test_a_wave_that_raises_leaves_the_collector_enabled(self):
        seen: list[bool] = []

        def never() -> bool:
            seen.append(gc.isenabled())
            return False

        with pytest.raises(ChainError, match="ran dry"):
            drive(EventQueue(), never)
        assert seen == [False]
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self):
        gc.disable()
        drive(EventQueue(), lambda: True)
        assert not gc.isenabled()
        with pytest.raises(ChainError):
            drive(EventQueue(), lambda: False)
        assert not gc.isenabled()

    def test_a_nested_wave_does_not_resume_collection_early(self, monkeypatch):
        after_inner: list[bool] = []
        real_drain = system_module.drain

        def probed_drain(chain, handles):
            real_drain(chain, handles)  # drives: the inner wave
            after_inner.append(gc.isenabled())

        monkeypatch.setattr(system_module, "drain", probed_drain)
        system, submissions = facade(("anna",))
        system.submit_many(submissions)
        assert after_inner == [False]
        assert gc.isenabled()

        with collector_paused():
            drive(EventQueue(), lambda: True)
            assert not gc.isenabled()
        assert gc.isenabled()
