"""The OLC -> r-bit-string hypercube keyword encoding (thesis figure 1.3).

The dual encoding that keys the hypercube DHT:

1. take the 10 significant digits of a full OLC (separator stripped);
2. split them into five 2-character pieces and pad each piece with
   zeros to its original position within a 10-character frame
   ("zeros in Open Location Codes must not be followed by any other
   digits", so zero is a safe padding symbol);
3. hash every piece and reduce modulo ``r`` to pick which bit of an
   r-bit string to turn on;
4. XOR the five one-hot strings into the final node ID (collisions
   cancel pairwise, exactly as in the worked example where
   000100 xor 010000 xor 100000 xor 000100 xor 010000 = 110100).
"""

from __future__ import annotations

from functools import lru_cache

from repro.crypto.hashing import hash_to_int
from repro.geo.olc import PAIR_CODE_LENGTH, SEPARATOR, is_full

PIECE_SIZE = 2

# Both encodings are pure functions of their arguments, and a
# population's requests concentrate on a small set of distinct OLC
# cells, so the DHT re-derives the same node IDs thousands of times
# at scale; the caches hold comfortably more cells than a 100k-user
# run touches.


@lru_cache(maxsize=65536)
def _segments(code: str) -> tuple[str, ...]:
    if not is_full(code):
        raise ValueError(f"r-bit encoding needs a full OLC, got {code!r}")
    digits = code.upper().replace(SEPARATOR, "")[:PAIR_CODE_LENGTH]
    if len(digits) < PAIR_CODE_LENGTH:
        digits = digits + "0" * (PAIR_CODE_LENGTH - len(digits))
    segments = []
    for start in range(0, PAIR_CODE_LENGTH, PIECE_SIZE):
        piece = digits[start : start + PIECE_SIZE]
        segments.append("0" * start + piece + "0" * (PAIR_CODE_LENGTH - start - PIECE_SIZE))
    return tuple(segments)


@lru_cache(maxsize=65536)
def olc_to_rbit(code: str, r: int) -> str:
    """Encode a full OLC to the r-bit node-ID string."""
    if r <= 0:
        raise ValueError("r must be positive")
    bits = [0] * r
    for segment in _segments(code):
        position = hash_to_int(segment.encode(), r)
        bits[position] ^= 1
    return "".join(str(bit) for bit in bits)


@lru_cache(maxsize=65536)
def rbit_to_int(bit_string: str) -> int:
    """The node key: the bit string read as a binary number.

    "the key for an r-bit string equal to 1010, with r = 4, is 10".
    """
    if not bit_string or set(bit_string) - {"0", "1"}:
        raise ValueError(f"not a bit string: {bit_string!r}")
    return int(bit_string, 2)
