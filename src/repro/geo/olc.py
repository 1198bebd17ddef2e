"""Open Location Code: encoding, decoding and validity.

OLC (plus codes) partitions the Earth into tiles addressed by strings
over the 20-character alphabet ``23456789CFGHJMPQRVWX``.  The default
10-digit code identifies a ~13.9 m x 13.9 m area -- the precision the
thesis uses to balance utility and privacy (section 2.6).

This implementation follows the public specification: pair encoding for
the first 10 digits (base 20, interleaved latitude/longitude), 4x5 grid
refinement beyond, ``+`` after the 8th digit and zero padding for
short area codes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

OLC_ALPHABET = "23456789CFGHJMPQRVWX"
SEPARATOR = "+"
SEPARATOR_POSITION = 8
PADDING = "0"
PAIR_CODE_LENGTH = 10
MAX_CODE_LENGTH = 15
GRID_COLUMNS = 4
GRID_ROWS = 5
LATITUDE_MAX = 90.0
LONGITUDE_MAX = 180.0

_CHAR_INDEX = {char: index for index, char in enumerate(OLC_ALPHABET)}


class OlcError(ValueError):
    """Malformed Open Location Code input."""


class CodeArea(NamedTuple):
    """The rectangle a code decodes to."""

    latitude_low: float
    longitude_low: float
    latitude_high: float
    longitude_high: float
    code_length: int

    @property
    def height_degrees(self) -> float:
        """North-south extent in degrees."""
        return self.latitude_high - self.latitude_low


def _clip_latitude(latitude: float) -> float:
    return min(max(latitude, -LATITUDE_MAX), LATITUDE_MAX)


def _normalize_longitude(longitude: float) -> float:
    while longitude < -LONGITUDE_MAX:
        longitude += 2 * LONGITUDE_MAX
    while longitude >= LONGITUDE_MAX:
        longitude -= 2 * LONGITUDE_MAX
    return longitude


# Integer precision of the full 15-digit code: pairs give 1/8000 degree,
# grid digits refine by 5 (lat) and 4 (lng) five more times.
_PAIR_PRECISION = 20**3  # units per degree after 10 digits
_FINAL_LAT_PRECISION = _PAIR_PRECISION * GRID_ROWS ** (MAX_CODE_LENGTH - PAIR_CODE_LENGTH)
_FINAL_LNG_PRECISION = _PAIR_PRECISION * GRID_COLUMNS ** (MAX_CODE_LENGTH - PAIR_CODE_LENGTH)


@lru_cache(maxsize=65536)
def encode(latitude: float, longitude: float, code_length: int = PAIR_CODE_LENGTH) -> str:
    """Encode a location to an Open Location Code.

    ``code_length`` counts significant digits (2..15; odd lengths below
    10 are invalid per the spec, as is a length of less than 2).

    Digits are computed with integer arithmetic (like the reference
    implementation) so polar and cell-boundary coordinates round-trip
    exactly.  Encoding is a pure function and campaign workloads revisit
    the same few thousand cells, so results are memoized.
    """
    if code_length < 2 or (code_length < PAIR_CODE_LENGTH and code_length % 2 == 1):
        raise OlcError(f"invalid code length {code_length}")
    code_length = min(code_length, MAX_CODE_LENGTH)
    latitude = _clip_latitude(latitude)
    longitude = _normalize_longitude(longitude)

    lat_units = int(round((latitude + LATITUDE_MAX) * _FINAL_LAT_PRECISION * 1e6) // 1e6)
    lng_units = int(round((longitude + LONGITUDE_MAX) * _FINAL_LNG_PRECISION * 1e6) // 1e6)
    lat_units = min(max(lat_units, 0), int(2 * LATITUDE_MAX) * _FINAL_LAT_PRECISION - 1)
    lng_units = min(max(lng_units, 0), int(2 * LONGITUDE_MAX) * _FINAL_LNG_PRECISION - 1)

    digits: list[str] = []
    # Grid digits first (least significant), building right to left.
    for _ in range(MAX_CODE_LENGTH - PAIR_CODE_LENGTH):
        row = lat_units % GRID_ROWS
        col = lng_units % GRID_COLUMNS
        digits.append(OLC_ALPHABET[row * GRID_COLUMNS + col])
        lat_units //= GRID_ROWS
        lng_units //= GRID_COLUMNS
    for _ in range(PAIR_CODE_LENGTH // 2):
        digits.append(OLC_ALPHABET[lng_units % 20])
        digits.append(OLC_ALPHABET[lat_units % 20])
        lat_units //= 20
        lng_units //= 20
    code = "".join(reversed(digits))[:code_length]

    if code_length < SEPARATOR_POSITION:
        code = code + PADDING * (SEPARATOR_POSITION - code_length) + SEPARATOR
    else:
        code = code[:SEPARATOR_POSITION] + SEPARATOR + code[SEPARATOR_POSITION:]
    return code


def decode(code: str) -> CodeArea:
    """Decode a full code to its :class:`CodeArea`."""
    return CodeArea._make(_decode(code))


@lru_cache(maxsize=65536)
def _decode(code: str) -> tuple[float, float, float, float, int]:
    """The numbers of :func:`decode`'s area, as a plain tuple.

    Memoized like :func:`encode`: a witness decodes every claimed code,
    and a campaign claims the same few thousand cells over and over.  A
    plain tuple of numbers is one the cyclic collector stops tracking,
    so the memo adds nothing to its passes.
    """
    if not is_full(code):
        raise OlcError(f"cannot decode a non-full code: {code!r}")
    clean = code.replace(SEPARATOR, "").rstrip(PADDING).upper()
    lat_units = 0
    lng_units = 0
    # Place values: the first pair digit covers 20 degrees, so seed at
    # 400 degrees and divide by 20 per pair (then by the grid factors).
    lat_place = 400 * _FINAL_LAT_PRECISION
    lng_place = 400 * _FINAL_LNG_PRECISION
    index = 0
    while index < min(len(clean), PAIR_CODE_LENGTH):
        lat_place //= 20
        lng_place //= 20
        lat_units += _CHAR_INDEX[clean[index]] * lat_place
        lng_units += _CHAR_INDEX[clean[index + 1]] * lng_place
        index += 2
    # After five pairs the place value per digit is exactly the pair
    # precision times the remaining grid factor.
    while index < len(clean):
        lat_place //= GRID_ROWS
        lng_place //= GRID_COLUMNS
        digit = _CHAR_INDEX[clean[index]]
        lat_units += (digit // GRID_COLUMNS) * lat_place
        lng_units += (digit % GRID_COLUMNS) * lng_place
        index += 1
    return (
        lat_units / _FINAL_LAT_PRECISION - LATITUDE_MAX,
        lng_units / _FINAL_LNG_PRECISION - LONGITUDE_MAX,
        (lat_units + lat_place) / _FINAL_LAT_PRECISION - LATITUDE_MAX,
        (lng_units + lng_place) / _FINAL_LNG_PRECISION - LONGITUDE_MAX,
        len(clean),
    )


def is_valid(code: str) -> bool:
    """Structural validity per the spec (separator, padding, alphabet)."""
    if not code or not isinstance(code, str):
        return False
    code = code.upper()
    if code.count(SEPARATOR) != 1:
        return False
    separator_index = code.index(SEPARATOR)
    if separator_index > SEPARATOR_POSITION or separator_index % 2 == 1:
        return False
    if len(code) == 1:
        return False
    if PADDING in code:
        if separator_index < SEPARATOR_POSITION and separator_index == 0:
            return False
        first_pad = code.index(PADDING)
        pad_run = code[first_pad:separator_index]
        if set(pad_run) != {PADDING} or len(pad_run) % 2 == 1 or first_pad % 2 == 1:
            return False
        if not code.endswith(SEPARATOR):
            return False  # "zeros must not be followed by any other digits"
    if len(code) - separator_index - 1 == 1:
        return False
    for char in code:
        if char in (SEPARATOR, PADDING):
            continue
        if char not in _CHAR_INDEX:
            return False
    return True


def is_full(code: str) -> bool:
    """A full (non-shortened) code with an in-range first tile."""
    if not is_valid(code):
        return False
    code = code.upper()
    if code.index(SEPARATOR) != SEPARATOR_POSITION:
        return False
    if _CHAR_INDEX[code[0]] * 20.0 > LATITUDE_MAX * 2:
        return False
    if len(code) > 1 and code[1] in _CHAR_INDEX and _CHAR_INDEX[code[1]] * 20.0 > LONGITUDE_MAX * 2:
        return False
    return True
