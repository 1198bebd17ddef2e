"""The blocking facade calls, pinned span for span.

``submit``, ``fund_contract`` and ``verify_and_reward`` are one-element
waves of ``submit_many``, ``fund_contracts`` and ``verify_many``.  The
golden file was recorded from the blocking calls on seeded goerli and
algorand-testnet runs: four provers at one location submit one by one,
the verifier funds the contract and verifies each record.  Every span
(name, track, ids, sim-time bounds, args), the recorder snapshot, every
balance and the final clock must match it exactly.

Regenerate (only when a change to these numbers is intended) with
``PYTHONPATH=src python tests/core/test_facade_golden.py``.
"""

import json
from pathlib import Path

import pytest

from repro.chain import make_chain
from repro.core.system import ProofOfLocationSystem
from repro.obs.recorder import Recorder
from repro.reach.runtime import ReachCallError

GOLDEN = Path(__file__).parent / "golden" / "blocking_facade_seed3.json"
NETWORKS = ("goerli", "algorand-testnet")
SEED = 3
REWARD = 5_000
PROVERS = ("p0", "p1", "p2", "p3")
LAT, LNG = 44.4949, 11.3426


def build(network: str) -> ProofOfLocationSystem:
    """Four provers at one location, one witness, one verifier, traced."""
    chain = make_chain(network, seed=SEED, recorder=Recorder())
    system = ProofOfLocationSystem(chain=chain, reward=REWARD, max_users=len(PROVERS))
    funding = chain.profile.simulation_funding
    system.register_witness("walter", LAT, LNG + 0.0002)
    system.register_verifier("vera", funding=funding * len(PROVERS))
    for name in PROVERS:
        system.register_prover(name, LAT, LNG, funding=funding)
    return system


def submit_all(system: ProofOfLocationSystem, names=PROVERS) -> str:
    """Each prover requests a proof and submits it blocking; the OLC."""
    for name in names:
        request, proof, _cid = system.request_location_proof(
            name, "walter", f"report by {name}".encode()
        )
        system.submit(name, request, proof)
    return system.provers[PROVERS[0]].olc


def capture(network: str) -> dict:
    """Run the blocking scenario and return everything the golden pins."""
    system = build(network)
    olc = submit_all(system)
    system.fund_contract("vera", olc, REWARD * len(PROVERS))
    outcomes = [
        system.verify_and_reward("vera", olc, system.provers[name].did_uint).name
        for name in PROVERS
    ]
    chain = system.chain
    recorder = chain.recorder
    return {
        "outcomes": outcomes,
        "spans": [
            {
                "name": span.name,
                "track": span.track,
                "cat": span.cat,
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "start": span.started_at,
                "end": span.finished_at,
                "args": span.args,
            }
            for span in recorder.spans
        ],
        "snapshot": recorder.snapshot(),
        "balances": {address: chain.balances[address] for address in sorted(chain.balances)},
        "clock": chain.queue.clock.now,
    }


@pytest.mark.parametrize("network", NETWORKS)
def test_blocking_calls_match_golden(network):
    golden = json.loads(GOLDEN.read_text())[network]
    # A JSON round trip turns the snapshot's tuples and int-keyed
    # entries into the shapes the golden file stores.
    assert json.loads(json.dumps(capture(network))) == golden


@pytest.mark.parametrize("network", NETWORKS)
def test_reverted_verify_tags_its_span_on_both_paths(network):
    """Half the seats filled keeps the contract in its attach phase, so
    ``verifierAPI.verify`` reverts: the blocking call and the wave both
    raise, and both close the record's ``proof:verify`` span with the
    error named."""
    system = build(network)
    olc = submit_all(system, PROVERS[:2])
    first, second = (system.provers[name].did_uint for name in PROVERS[:2])
    with pytest.raises(ReachCallError):
        system.verify_and_reward("vera", olc, first)
    with pytest.raises(ReachCallError):
        system.verify_many("vera", [(olc, second)])
    verify_spans = [span for span in system.chain.recorder.spans if span.name == "proof:verify"]
    assert [span.args["did"] for span in verify_spans] == [str(first), str(second)]
    assert all(span.done for span in verify_spans)
    assert [span.args.get("error") for span in verify_spans] == ["ReachCallError"] * 2


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({network: capture(network) for network in NETWORKS}, indent=1, sort_keys=True)
        + "\n"
    )
