"""Tests for the Open Location Code codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import olc

# Reference vectors from the public OLC test data (encoding + decoding).
KNOWN_CODES = [
    (20.375, 2.775, 6, "7FG49Q00+"),
    (20.3700625, 2.7821875, 10, "7FG49QCJ+2V"),
    (47.0000625, 8.0000625, 10, "8FVC2222+22"),
    (-41.2730625, 174.7859375, 10, "4VCPPQGP+Q9"),
    (0.5, -179.5, 4, "62G20000+"),
    (-89.5, -179.5, 4, "22220000+"),
]


class TestEncode:
    @pytest.mark.parametrize("lat,lng,length,expected", KNOWN_CODES)
    def test_reference_vectors(self, lat, lng, length, expected):
        assert olc.encode(lat, lng, length) == expected

    def test_default_length_is_ten(self):
        code = olc.encode(44.494, 11.342)  # Bologna, the thesis's home
        assert len(code.replace("+", "")) == 10

    def test_latitude_clipping(self):
        assert olc.is_full(olc.encode(95.0, 0.0))
        assert olc.is_full(olc.encode(-95.0, 0.0))

    def test_longitude_normalization(self):
        assert olc.encode(10.0, 190.0) == olc.encode(10.0, -170.0)

    def test_north_pole_encodes(self):
        assert olc.is_full(olc.encode(90.0, 0.0))

    def test_bad_lengths_rejected(self):
        with pytest.raises(olc.OlcError):
            olc.encode(0, 0, 1)
        with pytest.raises(olc.OlcError):
            olc.encode(0, 0, 3)
        with pytest.raises(olc.OlcError):
            olc.encode(0, 0, 7)

    def test_eleven_digit_codes(self):
        code = olc.encode(44.494, 11.342, 11)
        assert len(code.replace("+", "")) == 11
        assert olc.is_full(code)


class TestDecode:
    def test_decode_contains_original_point(self):
        lat, lng = 44.494887, 11.3426163
        area = olc.decode(olc.encode(lat, lng))
        assert area.latitude_low <= lat < area.latitude_high
        assert area.longitude_low <= lng < area.longitude_high

    def test_ten_digit_precision_is_about_14_meters(self):
        area = olc.decode(olc.encode(44.494, 11.342))
        # 0.000125 degrees latitude ~ 13.9 m (thesis footnote 3).
        assert area.height_degrees == pytest.approx(0.000125)

    def test_padded_code_decodes_to_large_area(self):
        area = olc.decode("7FG40000+")
        assert area.longitude_high - area.longitude_low == pytest.approx(1.0)

    def test_decode_short_code_raises(self):
        with pytest.raises(olc.OlcError):
            olc.decode("9QCJ+2V")

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(min_value=-90, max_value=90, allow_nan=False),
        st.floats(min_value=-180, max_value=179.9999, allow_nan=False),
    )
    def test_property_roundtrip_center_reencodes_same(self, lat, lng):
        code = olc.encode(lat, lng)
        area = olc.decode(code)
        center = (area.latitude_low + area.latitude_high) / 2, (area.longitude_low + area.longitude_high) / 2
        assert olc.encode(*center) == code

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(min_value=-89.999, max_value=89.999, allow_nan=False),
        st.floats(min_value=-180, max_value=179.9999, allow_nan=False),
    )
    def test_property_point_always_inside_area(self, lat, lng):
        area = olc.decode(olc.encode(lat, lng))
        # Tolerance covers float rounding at exact cell boundaries.
        assert area.latitude_low - 1e-9 <= lat <= area.latitude_high + 1e-9
        assert area.longitude_low - 1e-9 <= lng <= area.longitude_high + 1e-9


class TestValidity:
    @pytest.mark.parametrize(
        "code,valid",
        [
            ("8FVC2222+22", True),
            ("7FG49Q00+", True),
            ("7FG49QCJ+2V", True),
            ("8FVC2222+", True),
            ("", False),
            ("8FVC2222", False),  # no separator
            ("8FVC2+22", False),  # separator at odd position
            ("8FVCIIII+II", False),  # invalid chars
            ("8F0VC222+22", False),  # zero followed by digits
            ("7FG49QCJ+2", False),  # single trailing digit
        ],
    )
    def test_is_valid(self, code, valid):
        assert olc.is_valid(code) is valid

    def test_full_vs_short(self):
        assert olc.is_full("8FVC2222+22")
        assert olc.is_valid("2222+22")
        assert not olc.is_full("2222+22")

