"""Location encoding systems (thesis section 1.3.1).

- :mod:`repro.geo.olc` -- Open Location Code encoding, decoding and
  validity, the thesis's chosen encoding.
- :mod:`repro.geo.rbit` -- the OLC -> r-bit-string hypercube keyword
  encoding of figure 1.3 (Zichichi et al.).
- :mod:`repro.geo.distance` -- haversine distances for the proximity
  channel.
"""

from repro.geo.olc import (
    CodeArea,
    OLC_ALPHABET,
    decode,
    encode,
    is_full,
    is_valid,
)
from repro.geo.rbit import olc_to_rbit, rbit_to_int
from repro.geo.distance import haversine_km

__all__ = [
    "CodeArea",
    "OLC_ALPHABET",
    "encode",
    "decode",
    "is_valid",
    "is_full",
    "olc_to_rbit",
    "rbit_to_int",
    "haversine_km",
]
