"""Where the facade campaign puts its location groups.

Group ``g`` of :func:`repro.bench.simulation.run_traced_journeys` is one
contract, one witness and one OLC cell.  A single 0.01-degree column of
groups would pass the North Pole at group 4,551 (about 18k unbatched
users), where codes clip and witnesses refuse every proof.
"""

from repro.bench.simulation import group_position
from repro.core.bluetooth import DEFAULT_RANGE_M
from repro.geo.distance import haversine_km
from repro.geo.olc import decode as olc_decode
from repro.geo.olc import encode as olc_encode


class TestLocationGroups:
    """Facade-campaign locations stay distinct and witnessable at scale."""

    def test_every_group_has_its_own_cell_and_a_witness_in_range(self):
        cells = set()
        for group in range(25_000):
            latitude, longitude = group_position(group)
            assert -90.0 < latitude < 90.0, group
            code = olc_encode(latitude, longitude)
            cells.add(code[:8])
            witness = (latitude, longitude + 0.0002)
            assert olc_encode(*witness)[:8] == code[:8], group
            assert haversine_km(latitude, longitude, *witness) * 1000.0 <= DEFAULT_RANGE_M
            # The witness's position check: the claimed cell (plus the
            # tolerated margin) must cover where the witness stands.
            area = olc_decode(code)
            margin = max(area.height_degrees, 0.002)
            assert area.latitude_low - margin <= witness[0] <= area.latitude_high + margin
            assert area.longitude_low - margin <= witness[1] <= area.longitude_high + margin
        assert len(cells) == 25_000

    def test_first_column_keeps_the_historical_coordinates(self):
        for group in (0, 1, 3_999):
            assert group_position(group) == (44.4949 + 0.01 * group, 11.3426)
