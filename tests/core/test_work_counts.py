"""Work-count guard: what one proof request, one onboarded prover and one
accepted batched record pay, counted rather than timed.

A seeded 64-user facade campaign runs with a profile hook installed only
inside ``register_prover``, ``request_location_proof`` and
``submit_batched``; the hook counts how often each costed function body
runs there.  The counts are pinned exactly: they are the same on any
host, under any hash seed and on either comb (CI runs this module again
with ``REPRO_NO_NATIVE=1``), so a change that makes the off-chain proof
path derive something twice moves a count here even where no timing
would show it.

What the pins say, per unit of work:

- a request costs 3 comb exponentiations (2 to encrypt the DID
  challenge, 1 to sign), 5 tagged hashes (witness nonce, challenge KDF,
  proof digest, signing nonce, Schnorr challenge), 3 SHA-256 calls (the
  report's CID, the challenge stream on encrypt and on decrypt), 1
  haversine, and one OLC decode per distinct claimed cell;
- an onboarded prover costs 1 comb exponentiation and 1 tagged hash (its
  key), 1 fingerprint (hashed once for its address and its DID; an
  Algorand address hashes the key once more) and 1 DID parse;
- an accepted record costs 1 tagged hash for the digest re-check, its
  Merkle leaf and its share of the Merkle nodes and of the anchoring
  transaction (signed when its batch fills), and no exponentiation of
  its own: the witness signature it checks was made in this process.
"""

import sys

import pytest

from repro.bench.simulation import run_traced_journeys
from repro.core.system import ProofOfLocationSystem
from repro.crypto import fastexp, hashing, keys
from repro.did import document
from repro.geo import distance, olc

#: function bodies whose runs are counted
COSTED = {
    fastexp._comb_pow.__wrapped__.__code__: "comb",
    hashing.tagged_hash.__code__: "tagged_hash",
    hashing.sha256.__code__: "sha256",
    distance.haversine_km.__code__: "haversine",
    olc._decode.__wrapped__.__code__: "olc_decode",
    keys._fingerprint.__wrapped__.__code__: "fingerprint",
    document.parse_did.__code__: "parse_did",
}

#: facade call -> the unit of work it is
UNITS = {
    "register_prover": "prover",
    "request_location_proof": "request",
    "submit_batched": "record",
}

#: (network, batch size) -> unit -> (units, {counted body: runs}); the
#: runs of a count missing from a unit's dict are zero
PINNED = {
    ("goerli", None): {
        "prover": (64, {"comb": 64, "fingerprint": 64, "parse_did": 64, "sha256": 64, "tagged_hash": 64}),
        "request": (64, {"comb": 192, "haversine": 64, "olc_decode": 16, "sha256": 192, "tagged_hash": 320}),
    },
    ("goerli", 16): {
        "prover": (64, {"comb": 64, "fingerprint": 64, "parse_did": 64, "sha256": 64, "tagged_hash": 64}),
        "request": (64, {"comb": 192, "haversine": 64, "olc_decode": 4, "sha256": 192, "tagged_hash": 320}),
        "record": (60, {"comb": 4, "sha256": 4, "tagged_hash": 184}),
    },
    ("algorand-testnet", None): {
        "prover": (64, {"comb": 64, "fingerprint": 64, "parse_did": 64, "sha256": 128, "tagged_hash": 64}),
        "request": (64, {"comb": 192, "haversine": 64, "olc_decode": 16, "sha256": 192, "tagged_hash": 320}),
    },
    ("algorand-testnet", 16): {
        "prover": (64, {"comb": 64, "fingerprint": 64, "parse_did": 64, "sha256": 128, "tagged_hash": 64}),
        "request": (64, {"comb": 192, "haversine": 64, "olc_decode": 4, "sha256": 192, "tagged_hash": 320}),
        "record": (60, {"comb": 4, "sha256": 4, "tagged_hash": 184}),
    },
}


def count_work(network: str, batch_size: int | None, monkeypatch) -> dict:
    """Run the campaign; unit -> (calls, {counted body: runs})."""
    counts = {unit: [0, {}] for unit in UNITS.values()}

    def hook(frame, event, arg):
        if event == "call":
            name = COSTED.get(frame.f_code)
            if name is not None:
                runs = counts[unit][1]
                runs[name] = runs.get(name, 0) + 1

    def counted(method, unit_name):
        def run(*args, **kwargs):
            nonlocal unit
            unit = unit_name
            counts[unit_name][0] += 1
            sys.setprofile(hook)
            try:
                return method(*args, **kwargs)
            finally:
                sys.setprofile(None)

        return run

    unit = ""
    for method_name, unit_name in UNITS.items():
        method = getattr(ProofOfLocationSystem, method_name)
        monkeypatch.setattr(ProofOfLocationSystem, method_name, counted(method, unit_name))
    # Start from cold memos, whatever ran earlier in this process.
    olc._decode.cache_clear()
    keys._fingerprint.cache_clear()
    run_traced_journeys(network, 64, seed=1, batch_size=batch_size)
    return {unit: (calls, runs) for unit, (calls, runs) in counts.items() if calls}


@pytest.mark.parametrize("batch_size", [None, 16], ids=["unbatched", "batch16"])
@pytest.mark.parametrize("network", ["goerli", "algorand-testnet"])
def test_off_chain_work_per_unit_is_pinned(network, batch_size, monkeypatch):
    assert count_work(network, batch_size, monkeypatch) == PINNED[(network, batch_size)]
