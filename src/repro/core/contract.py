"""The Proof-of-Location smart contract and its record format.

The contract of thesis chapter 4 has one source,
``contracts/proof_of_location.rsh``, and every run compiles it (the
thesis's ``index.rsh``: one source, every connector).  It has

- one ``Participant`` (the Creator: the first prover at a location) who
  deploys and publishes ``position``, ``did`` and his concatenated data
  (listings 4.1, 4.5);
- ``attacherAPI.insert_data(data, did) -> UInt`` lets up to ``seats``
  provers attach, returning the remaining seats (listings 4.2, 4.6)
  inside the first ``parallelReduce``;
- ``verifierAPI.insert_money(amount) -> UInt`` funds the reward pool and
  ``verifierAPI.verify(did, wallet) -> Address`` pays the reward, deletes
  the Map row and logs the outcome (listings 4.3, 4.8, 4.9) inside the
  second ``parallelReduce``;
- ``View``s ``getCtcBalance`` and ``getReward`` (listing 4.4);
- a timeout closes the contract and returns leftover tokens to the
  creator ("the number of tokens that remains in the contract will be
  sent to the creator").

The Map is keyed by the prover's DID as a ``UInt`` -- the same connector
restriction the thesis hit -- and the value is the concatenation
``hashedProof-signedProof-wallet-nonce-CID`` (listing 4.13).
"""

from __future__ import annotations

from pathlib import Path

from repro.reach import ast as A
from repro.reach.parser import parse_contract_file

#: the contract source (the repository's ``contracts`` directory)
POL_SOURCE = Path(__file__).resolve().parents[3] / "contracts" / "proof_of_location.rsh"

#: field separator of the concatenated Map value (listing 4.13)
RECORD_SEPARATOR = "|"


def pol_record(hashed_proof: str, signed_proof: str, wallet: str, nonce: int, cid: str) -> str:
    """Concatenate the prover's data the way the frontend does (listing 4.13)."""
    return RECORD_SEPARATOR.join([hashed_proof, signed_proof, wallet, str(nonce), cid])


def parse_pol_record(record: str) -> dict[str, str | int]:
    """Split a Map value back into its five fields (the verifier's read path)."""
    parts = record.split(RECORD_SEPARATOR)
    if len(parts) != 5:
        raise ValueError(f"malformed PoL record: expected 5 fields, got {len(parts)}")
    hashed_proof, signed_proof, wallet, nonce, cid = parts
    return {
        "hashed_proof": hashed_proof,
        "signed_proof": signed_proof,
        "wallet": wallet,
        "nonce": int(nonce),
        "cid": cid,
    }


def build_pol_program(
    max_users: int = 4,
    reward: int = 10_000,
    attach_timeout: float = 86_400.0,
    verify_timeout: float = 86_400.0,
) -> A.Program:
    """Parse the PoL contract with its compile-time parameters bound.

    ``reward`` is in the connector's base units, so callers pick the
    chain-appropriate amount; everything else is connector-independent
    (the whole point of the agnostic language).  Timeouts are whole
    seconds.
    """
    if max_users < 1:
        raise ValueError("the contract needs at least one seat")
    params = {"seats": max_users, "payout": reward, "attach_timeout": attach_timeout, "verify_timeout": verify_timeout}
    # the grammar's parameters are ints: a whole-second float binds as one
    params = {name: int(value) if value == int(value) else value for name, value in params.items()}
    return parse_contract_file(str(POL_SOURCE), params)
