"""Content IDentifiers.

"The IPFS protocol assigns each object to a unique address called
Content IDentifier (CID) built hashing the file content" with SHA-256
(thesis section 1.5).  We produce CIDv1-shaped strings: a ``b``
multibase prefix over base32(version || raw-codec || sha2-256 multihash).
"""

from __future__ import annotations

import base64

from repro.crypto.hashing import sha256

_VERSION = b"\x01"
_RAW_CODEC = b"\x55"
_SHA256_CODE = b"\x12\x20"  # multihash: sha2-256, 32 bytes


class CidError(ValueError):
    """A malformed or mismatching CID."""


#: base32 digit value -> lower-case RFC 4648 character, as a byte table
_BASE32 = bytes.maketrans(bytes(range(32)), b"abcdefghijklmnopqrstuvwxyz234567")
#: payload length -> (5-bit groups, spreading steps); see :func:`base32`
_SPREADS: dict[int, tuple[int, tuple[tuple[int, int, int], ...]]] = {}


def _spread_steps(padded: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Masks that move 5-bit group j (from the low end) up to bit 8j.

    Group j must rise by 3j bits.  Step b, from the top bit of j down,
    lifts the groups whose j has bit b set by 3 * 2**b; a group never
    overtakes its neighbour, so one (keep, move, shift) mask pair per
    step does it for every group at once.
    """
    groups = padded * 8 // 5
    steps = []
    for bit in reversed(range((groups - 1).bit_length())):
        keep = move = 0
        for j in range(groups):
            at = 5 * j + 3 * (j >> (bit + 1) << (bit + 1))
            if j >> bit & 1:
                move |= 31 << at
            else:
                keep |= 31 << at
        steps.append((keep, move, 3 << bit))
    return groups, tuple(steps)


def base32(data: bytes) -> str:
    """Unpadded lower-case RFC 4648 base32, as CIDv1's ``b`` multibase.

    Equal to ``base64.b32encode(data).decode().lower().rstrip("=")``
    without its per-chunk Python loop: the data, zero-filled to whole
    5-byte chunks, is one integer whose 5-bit groups are spread to one
    byte each by a few mask-and-shift steps, then mapped to characters
    by a byte table.
    """
    size = len(data)
    if not size:
        return ""
    fill = -size % 5
    spread = _SPREADS.get(size)
    if spread is None:
        spread = _SPREADS[size] = _spread_steps(size + fill)
    groups, steps = spread
    value = int.from_bytes(data, "big") << (8 * fill)
    for keep, move, shift in steps:
        value = (value & keep) | ((value & move) << shift)
    return value.to_bytes(groups, "big").translate(_BASE32).decode()[: (size * 8 + 4) // 5]


def compute_cid(content: bytes) -> str:
    """The CID of a block of content."""
    if not isinstance(content, bytes):
        raise CidError("content must be bytes")
    return "b" + base32(_VERSION + _RAW_CODEC + _SHA256_CODE + sha256(content))


def verify_cid(content: bytes, cid: str) -> bool:
    """True iff ``content`` hashes to ``cid`` (self-certifying address)."""
    try:
        return compute_cid(content) == cid
    except CidError:
        return False


def parse_cid(cid: str) -> bytes:
    """Extract the 32-byte content digest from a CID."""
    if not cid or not cid.startswith("b"):
        raise CidError(f"not a base32 CIDv1: {cid!r}")
    body = cid[1:].upper()
    body += "=" * (-len(body) % 8)
    try:
        payload = base64.b32decode(body)
    except Exception as exc:
        raise CidError(f"undecodable CID {cid!r}") from exc
    if payload[:4] != _VERSION + _RAW_CODEC + _SHA256_CODE or len(payload) != 36:
        raise CidError(f"unsupported CID layout in {cid!r}")
    return payload[4:]
