import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geocontext.errors import NonFiniteInput, OutOfRangeLatitude
from geocontext.geomodel import (
    AdminArea,
    BoundingBox,
    GeoPoint,
    LandmarkRecord,
    TimeWindow,
    normalize_point,
    point_in_bbox,
    wrap_longitude,
)

LATS = st.floats(min_value=-90, max_value=90, allow_nan=False)
LONS = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


class TestNormalizePoint:
    def test_identity(self):
        p = normalize_point(0, 0)
        assert (p.lat, p.lon) == (0, 0)

    def test_wraps_lon(self):
        assert normalize_point(10, 190).lon == -170

    def test_rejects_out_of_range_lat(self):
        with pytest.raises(OutOfRangeLatitude):
            normalize_point(91, 0)
        with pytest.raises(OutOfRangeLatitude):
            normalize_point(-90.0001, 0)

    def test_rejects_non_finite(self):
        for lat, lon in [(float("nan"), 0), (0, float("inf")), (float("-inf"), 0)]:
            with pytest.raises(NonFiniteInput):
                normalize_point(lat, lon)

    def test_minus_180_becomes_plus_180(self):
        assert normalize_point(0, -180).lon == 180
        assert normalize_point(0, 180).lon == 180

    @given(LATS, LONS)
    def test_wrap_range_and_multiple_of_360(self, lat, lon):
        p = normalize_point(lat, lon)
        assert -180 < p.lon <= 180
        turns = (lon - p.lon) / 360.0
        assert abs(turns - round(turns)) < 1e-9

    @given(LATS, st.floats(min_value=-180, max_value=180, exclude_min=True)
           | st.sampled_from([180.0, -0.0, 0.0, 5e-324, 179.99999999999997, -179.99999999999997]))
    def test_float_in_range_kept_as_given(self, lat, lon):
        # GeoPoint keeps such floats without converting them, so they must
        # be what float() and wrap_longitude would make of them.
        p = GeoPoint(lat, lon)
        assert math.copysign(1.0, p.lon) == math.copysign(1.0, wrap_longitude(lon))
        assert (p.lat, p.lon) == (float(lat), wrap_longitude(lon)) == (lat, lon)

    def test_other_number_types_become_floats(self):
        for lat, lon in ((1, 2), (np.float64(1.5), np.float64(2.5)), (np.float32(1.5), 190.0), (True, 179)):
            p = GeoPoint(lat, lon)
            assert type(p.lat) is float and type(p.lon) is float
            assert (p.lat, p.lon) == (float(lat), wrap_longitude(float(lon)))

    @given(LATS, LONS)
    def test_idempotent(self, lat, lon):
        p = normalize_point(lat, lon)
        q = normalize_point(p.lat, p.lon)
        assert (q.lat, q.lon) == (p.lat, p.lon)


class TestBoundingBox:
    def test_interior_boundary_outside(self):
        b = BoundingBox(-1, 1, -1, 1)
        assert point_in_bbox(GeoPoint(0, 0), b)
        assert point_in_bbox(GeoPoint(1, 1), b)
        assert not point_in_bbox(GeoPoint(2, 0), b)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            BoundingBox(1, -1, 0, 0)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 10, -10)

    @given(
        st.floats(-90, 90), st.floats(-90, 90), st.floats(-180, 180), st.floats(-180, 180),
        st.floats(0, 5), st.floats(0, 5), st.floats(0, 5), st.floats(0, 5),
        LATS, st.floats(min_value=-180, max_value=180, allow_nan=False),
    )
    def test_monotone_under_enlargement(self, a, b, c, d, g1, g2, g3, g4, plat, plon):
        lo_lat, hi_lat = sorted((a, b))
        lo_lon, hi_lon = sorted((c, d))
        inner = BoundingBox(lo_lat, hi_lat, lo_lon, hi_lon)
        outer = BoundingBox(
            max(-90, lo_lat - g1), min(90, hi_lat + g2), max(-180, lo_lon - g3), min(180, hi_lon + g4)
        )
        p = GeoPoint(plat, plon)
        if point_in_bbox(p, inner):
            assert point_in_bbox(p, outer)


class TestTimeWindow:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            TimeWindow(2, 1)
        w = TimeWindow(0, 10)
        assert w.contains(0) and w.contains(10) and not w.contains(11)


class TestAdminArea:
    def test_ring_closed_on_construction(self):
        area = AdminArea("a", "A", 0, (GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 1)))
        assert area.polygon[0] == area.polygon[-1]
        assert len(area.polygon) == 4

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            AdminArea("a", "A", 0, (GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(0, 0)))

    def test_rejects_bad_level(self):
        ring = (GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 1))
        with pytest.raises(ValueError):
            AdminArea("a", "A", 4, ring)


class TestLandmarkRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            LandmarkRecord(id="x", name="", point=GeoPoint(0, 0), category="city")
        with pytest.raises(ValueError):
            LandmarkRecord(id="x", name="X", point=GeoPoint(0, 0), category="city", credibility=1.5)

    def test_defaults(self):
        rec = LandmarkRecord(id="x", name="X", point=GeoPoint(0, 0), category="city")
        assert rec.window is None and rec.event_text is None and rec.admin_path == ()
