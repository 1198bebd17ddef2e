"""The baseline location-proof system from the related work (thesis 1.7).

- :mod:`repro.baselines.applaus` -- an APPLAUS-style system (Zhu & Cao):
  infrastructure-independent proof generation between pseudonymous
  peers, but a *centralized* server stores the proofs and a Central
  Authority holds the pseudonym-to-identity mapping.

The centralized-baseline ablation bench uses it to quantify the
thesis's architectural arguments: the single point of failure and the
privacy cost of a mapping-holding authority.
"""

from repro.baselines.applaus import (
    ApplausSystem,
    CentralAuthority,
    CentralServer,
    PseudonymousUser,
    ServerUnavailable,
)

__all__ = [
    "ApplausSystem",
    "CentralAuthority",
    "CentralServer",
    "PseudonymousUser",
    "ServerUnavailable",
]
