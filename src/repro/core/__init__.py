"""The paper's primary contribution: the Proof-of-Location system.

- :mod:`repro.core.proof` -- location-proof build/sign/verify
  (thesis section 2.3, eqs. 2.1-2.2).
- :mod:`repro.core.bluetooth` -- the range-limited proximity channel.
- :mod:`repro.core.actors` -- Prover, Witness, Verifier and the
  Certification Authority.
- :mod:`repro.core.contract` -- loads the PoL smart contract
  (section 4.1) from its one source, ``contracts/proof_of_location.rsh``,
  and formats its Map records.
- :mod:`repro.core.factory` -- the factory pattern (section 2.4.1).
- :mod:`repro.core.system` -- the end-to-end facade wiring chain + DHT +
  IPFS + DIDs together.
- :mod:`repro.core.attacks` -- the attack library the verifier must
  defeat (replay, CID swap, self-signing, fake location).
"""

from repro.core.contract import build_pol_program, pol_record, parse_pol_record
from repro.core.proof import (
    LocationProof,
    ProofFailure,
    ProofRequest,
    build_proof,
    verify_proof,
    verify_record,
)
from repro.core.actors import (
    CertificationAuthority,
    Prover,
    Verifier,
    Witness,
    WitnessRefusal,
)
from repro.core.bluetooth import BluetoothChannel, BluetoothError
from repro.did.document import uint_did
from repro.core.factory import ContractFactory, FactoryError
from repro.core.system import ProofOfLocationSystem, SubmissionOutcome

__all__ = [
    "build_pol_program",
    "pol_record",
    "parse_pol_record",
    "LocationProof",
    "ProofFailure",
    "ProofRequest",
    "build_proof",
    "verify_proof",
    "verify_record",
    "CertificationAuthority",
    "Prover",
    "Verifier",
    "Witness",
    "WitnessRefusal",
    "uint_did",
    "BluetoothChannel",
    "BluetoothError",
    "ContractFactory",
    "FactoryError",
    "ProofOfLocationSystem",
    "SubmissionOutcome",
]
