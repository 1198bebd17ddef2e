"""Tests for the r-bit hypercube encoding and haversine distances."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import haversine_km, olc_to_rbit, rbit_to_int
from repro.geo.rbit import _segments


class TestSegments:
    def test_figure_1_3_segmentation(self):
        segments = _segments("6PH57VP3+PR")
        assert segments == (
            "6P00000000",
            "00H5000000",
            "00007V0000",
            "000000P300",
            "00000000PR",
        )

    def test_padded_code_segments(self):
        segments = _segments("7FG49Q00+")
        assert segments[0] == "7F00000000"
        assert all(len(segment) == 10 for segment in segments)

    def test_short_code_rejected(self):
        with pytest.raises(ValueError):
            olc_to_rbit("9QCJ+2V", 6)


class TestRbit:
    def test_length_and_alphabet(self):
        rbit = olc_to_rbit("6PH57VP3+PR", r=6)
        assert len(rbit) == 6
        assert set(rbit) <= {"0", "1"}

    def test_deterministic(self):
        assert olc_to_rbit("6PH57VP3+PR", 8) == olc_to_rbit("6PH57VP3+PR", 8)

    def test_different_codes_usually_differ(self):
        from repro.geo import encode

        codes = {olc_to_rbit(encode(44.0 + i * 0.5, 11.0 + i * 0.5), 10) for i in range(30)}
        assert len(codes) > 10

    def test_invalid_r_rejected(self):
        with pytest.raises(ValueError):
            olc_to_rbit("6PH57VP3+PR", 0)

    def test_rbit_to_int_thesis_example(self):
        # "the key for an r-bit string equal to 1010, with r = 4, is 10"
        assert rbit_to_int("1010") == 10

    def test_rbit_to_int_rejects_garbage(self):
        with pytest.raises(ValueError):
            rbit_to_int("10a0")
        with pytest.raises(ValueError):
            rbit_to_int("")

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=-89, max_value=89, allow_nan=False),
        st.floats(min_value=-179, max_value=179, allow_nan=False),
        st.integers(min_value=1, max_value=16),
    )
    def test_property_rbit_always_well_formed(self, lat, lng, r):
        from repro.geo import encode

        rbit = olc_to_rbit(encode(lat, lng), r)
        assert len(rbit) == r
        assert 0 <= rbit_to_int(rbit) < 2**r


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(44.49, 11.34, 44.49, 11.34) == 0.0

    def test_bologna_to_milan(self):
        distance = haversine_km(44.4949, 11.3426, 45.4642, 9.19)
        assert 190 < distance < 220

    def test_symmetry(self):
        assert haversine_km(10, 20, 30, 40) == pytest.approx(haversine_km(30, 40, 10, 20))

    def test_quarter_meridian(self):
        assert haversine_km(0, 0, 90, 0) == pytest.approx(10_007.5, rel=0.01)
