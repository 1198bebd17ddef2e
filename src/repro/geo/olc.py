"""Open Location Code: a complete codec.

OLC (plus codes) partitions the Earth into tiles addressed by strings
over the 20-character alphabet ``23456789CFGHJMPQRVWX``.  The default
10-digit code identifies a ~13.9 m x 13.9 m area -- the precision the
thesis uses to balance utility and privacy (section 2.6).

This implementation follows the public specification: pair encoding for
the first 10 digits (base 20, interleaved latitude/longitude), 4x5 grid
refinement beyond, ``+`` after the 8th digit, zero padding for short
area codes, and shorten/recover relative to a reference location.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
#: degree resolution of each successive *pair* of digits
_PAIR_RESOLUTIONS = (20.0, 1.0, 0.05, 0.0025, 0.000125)


class OlcError(ValueError):
    """Malformed Open Location Code input."""


@dataclass(frozen=True)
class CodeArea:
    """The rectangle a code decodes to."""

    latitude_low: float
    longitude_low: float
    latitude_high: float
    longitude_high: float
    code_length: int

    @property
    def latitude_center(self) -> float:
        """Latitude midpoint (clipped to the pole)."""
        return min((self.latitude_low + self.latitude_high) / 2, LATITUDE_MAX)

    @property
    def longitude_center(self) -> float:
        """Longitude midpoint."""
        return (self.longitude_low + self.longitude_high) / 2

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
    return CodeArea(
        latitude_low=lat_units / _FINAL_LAT_PRECISION - LATITUDE_MAX,
        longitude_low=lng_units / _FINAL_LNG_PRECISION - LONGITUDE_MAX,
        latitude_high=(lat_units + lat_place) / _FINAL_LAT_PRECISION - LATITUDE_MAX,
        longitude_high=(lng_units + lng_place) / _FINAL_LNG_PRECISION - LONGITUDE_MAX,
        code_length=len(clean),
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


def is_short(code: str) -> bool:
    """A shortened code (separator before position 8)."""
    return is_valid(code) and code.upper().index(SEPARATOR) < SEPARATOR_POSITION


def shorten(code: str, latitude: float, longitude: float) -> str:
    """Remove leading digits recoverable from a nearby reference point."""
    if not is_full(code):
        raise OlcError("can only shorten full codes")
    if PADDING in code:
        raise OlcError("cannot shorten padded codes")
    code = code.upper()
    area = decode(code)
    range_degrees = max(
        abs(area.latitude_center - _clip_latitude(latitude)),
        abs(area.longitude_center - _normalize_longitude(longitude)),
    )
    # Starting from the most precise pair, find how many we can drop.
    for pairs_removable in (4, 3, 2, 1):
        pair_resolution = _PAIR_RESOLUTIONS[pairs_removable - 1]
        if range_degrees < pair_resolution * 0.3:
            return code[pairs_removable * 2 :]
    return code


def recover_nearest(short_code: str, latitude: float, longitude: float) -> str:
    """Expand a short code to the nearest matching full code."""
    if is_full(short_code):
        return short_code.upper()
    if not is_short(short_code):
        raise OlcError(f"not a valid short code: {short_code!r}")
    short_code = short_code.upper()
    latitude = _clip_latitude(latitude)
    longitude = _normalize_longitude(longitude)
    padding_length = SEPARATOR_POSITION - short_code.index(SEPARATOR)
    pair_resolution = 20.0 ** (2 - padding_length / 2)
    half_resolution = pair_resolution / 2.0
    reference = encode(latitude, longitude)
    candidate = reference.replace(SEPARATOR, "")[:padding_length] + short_code
    area = decode(candidate)
    # Nudge by one cell if the reference is more than half a cell away.
    center_lat = area.latitude_center
    center_lng = area.longitude_center
    if latitude + half_resolution < center_lat and center_lat - pair_resolution >= -LATITUDE_MAX:
        center_lat -= pair_resolution
    elif latitude - half_resolution > center_lat and center_lat + pair_resolution <= LATITUDE_MAX:
        center_lat += pair_resolution
    if longitude + half_resolution < center_lng:
        center_lng -= pair_resolution
    elif longitude - half_resolution > center_lng:
        center_lng += pair_resolution
    return encode(center_lat, center_lng, area.code_length)
