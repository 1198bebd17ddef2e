"""repro -- Proof of Location through a blockchain-agnostic smart contract language.

A complete reproduction of Bonini/Ferretti/Zichichi's Proof-of-Location
system: the protocol (provers, witnesses, verifiers, location proofs),
the blockchain-agnostic contract language it is written in, and every
substrate it runs on (Ethereum-, Polygon- and Algorand-style chain
simulators, a hypercube DHT, IPFS, DIDs).

Typical entry points:

- :class:`repro.core.ProofOfLocationSystem` -- the end-to-end facade.
- :func:`repro.core.build_pol_program` +
  :func:`repro.reach.compile_program` -- one contract source,
  ``contracts/proof_of_location.rsh``, compiled for every connector.
- :class:`repro.reach.ReachClient` -- deploy/attach/call on any chain.
- :func:`repro.bench.run_simulation` -- the chapter-5 evaluation harness.
"""

__version__ = "1.0.0"

__all__ = [
    "app",
    "bench",
    "chain",
    "core",
    "crypto",
    "did",
    "dht",
    "geo",
    "ipfs",
    "reach",
    "simnet",
]
