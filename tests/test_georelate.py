import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bearing_3d, distance_3d, distance_law_of_cosines, winding_number_inside

from geocontext.errors import DegeneratePolygon, EmptyPath, InvalidArgument, UndefinedBearing
from geocontext.geomodel import AdminArea, GeoPoint, LandmarkRecord
from geocontext.georelate import (
    CARDINAL_8,
    EARTH_RADIUS_M,
    HierarchyPath,
    cardinal,
    containment_path,
    haversine,
    haversine_array,
    initial_bearing,
    point_in_polygon,
    proximity_phrase,
    render_hierarchy,
    render_relation,
)

LATS = st.floats(-90, 90, allow_nan=False)
LONS = st.floats(-180, 180, allow_nan=False)
POINTS = st.builds(GeoPoint, LATS, LONS)


class TestHaversine:
    def test_zero_self_distance(self):
        p = GeoPoint(1.3521, 103.8198)
        assert haversine(p, p) == 0.0

    def test_antipodal_half_circumference(self):
        d = haversine(GeoPoint(0, 0), GeoPoint(0, 180))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-9)

    def test_against_independent_oracles(self):
        a = GeoPoint(1.3521, 103.8198)
        b = GeoPoint(1.2806, 103.8505)
        d = haversine(a, b)
        assert d == pytest.approx(distance_3d(a, b, EARTH_RADIUS_M), rel=1e-6)
        assert d == pytest.approx(distance_law_of_cosines(a, b, EARTH_RADIUS_M), rel=1e-6)

    def test_near_antipodal_pair_is_finite(self):
        # Rounding puts the haversine term just above 1 for this pair.
        a = GeoPoint(-83.59841063608013, -140.89987463008316)
        b = GeoPoint(83.59841063493201, 39.100125367551286)
        half_circumference = math.pi * EARTH_RADIUS_M
        assert haversine(a, b) == pytest.approx(half_circumference, rel=1e-9)
        [d] = haversine_array(a, np.array([b.lat]), np.array([b.lon]))
        assert d == pytest.approx(half_circumference, rel=1e-9)

    @given(POINTS, POINTS)
    def test_symmetry(self, a, b):
        assert haversine(a, b) == haversine(b, a)

    @given(POINTS, POINTS, POINTS)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert haversine(a, c) <= haversine(a, b) + haversine(b, c) + 1e-6 * EARTH_RADIUS_M

    @given(POINTS, st.lists(POINTS, max_size=20))
    def test_array_matches_scalar(self, a, others):
        lat = np.array([p.lat for p in others], dtype=np.float64)
        lon = np.array([p.lon for p in others], dtype=np.float64)
        got = haversine_array(a, lat, lon)
        assert got.shape == (len(others),)
        for d, b in zip(got, others):
            assert d == pytest.approx(haversine(a, b), rel=1e-12, abs=1e-6)


class TestBearing:
    def test_due_north(self):
        assert initial_bearing(GeoPoint(0, 0), GeoPoint(1, 0)) == 0.0

    def test_due_east(self):
        assert initial_bearing(GeoPoint(0, 0), GeoPoint(0, 1)) == 90.0

    def test_undefined_cases(self):
        p = GeoPoint(1, 1)
        with pytest.raises(UndefinedBearing):
            initial_bearing(p, p)
        with pytest.raises(UndefinedBearing):
            initial_bearing(GeoPoint(10, 20), GeoPoint(-10, -160))

    def test_against_vector_oracle(self):
        a = GeoPoint(1.3521, 103.8198)
        b = GeoPoint(3.1390, 101.6869)
        assert initial_bearing(a, b) == pytest.approx(bearing_3d(a, b), abs=1e-6)

    @given(POINTS, POINTS)
    @settings(max_examples=50)
    def test_range(self, a, b):
        if a == b or (a.lat == -b.lat and abs(a.lon - b.lon) == 180.0):
            return
        assert 0.0 <= initial_bearing(a, b) < 360.0

    def test_meridian_swap_flips_cardinal(self):
        a, b = GeoPoint(0, 10), GeoPoint(5, 10)
        assert cardinal(initial_bearing(a, b)) == "north"
        assert cardinal(initial_bearing(b, a)) == "south"

    def test_equator_swap_flips_cardinal(self):
        a, b = GeoPoint(0, 10), GeoPoint(0, 15)
        assert cardinal(initial_bearing(a, b)) == "east"
        assert cardinal(initial_bearing(b, a)) == "west"


class TestCardinal:
    @pytest.mark.parametrize(
        "bearing,token",
        [(0, "north"), (90, "east"), (180, "south"), (270, "west"), (337.5, "north"),
         (22.4, "north"), (22.5, "northeast"), (45, "northeast"), (315, "northwest")],
    )
    def test_sectors(self, bearing, token):
        assert cardinal(bearing, 8) == token

    def test_sixteen_way(self):
        assert cardinal(22.5, 16) == "north-northeast"
        assert cardinal(0, 16) == "north"

    @given(st.floats(0, 359.999999, allow_nan=False))
    def test_always_a_token(self, bearing):
        assert cardinal(bearing, 8) in CARDINAL_8


class TestProximityPhrase:
    def test_thresholds(self):
        assert proximity_phrase(0, 10_000) == "adjacent to"
        assert proximity_phrase(999, 10_000) == "close to"
        assert proximity_phrase(5000, 10_000) == "within a radius of 10000 m"
        assert proximity_phrase(20_000, 10_000) == "far from"

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            proximity_phrase(-1, 100)

    def test_bad_radius_rejected(self):
        for radius_m in (-5.0, float("nan"), float("inf")):
            with pytest.raises(InvalidArgument):
                proximity_phrase(50, radius_m)


UNIT_SQUARE = (GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 1), GeoPoint(1, 0))


class TestPointInPolygon:
    def test_centroid_inside(self):
        assert point_in_polygon(GeoPoint(0.5, 0.5), UNIT_SQUARE)

    def test_far_point_outside(self):
        assert not point_in_polygon(GeoPoint(5, 5), UNIT_SQUARE)

    def test_vertex_counts_as_inside(self):
        assert point_in_polygon(GeoPoint(0, 0), UNIT_SQUARE)

    def test_edge_counts_as_inside(self):
        assert point_in_polygon(GeoPoint(0, 0.5), UNIT_SQUARE)

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePolygon):
            point_in_polygon(GeoPoint(0, 0), (GeoPoint(0, 0), GeoPoint(1, 1)))

    @staticmethod
    def _on_boundary(p, ring, eps=1e-9):
        verts = list(ring)
        for i in range(len(verts)):
            a, b = verts[i], verts[(i + 1) % len(verts)]
            cross = (b.lon - a.lon) * (p.lat - a.lat) - (b.lat - a.lat) * (p.lon - a.lon)
            if (
                abs(cross) <= eps
                and min(a.lon, b.lon) - eps <= p.lon <= max(a.lon, b.lon) + eps
                and min(a.lat, b.lat) - eps <= p.lat <= max(a.lat, b.lat) + eps
            ):
                return True
        return False

    @given(st.floats(-2, 3), st.floats(-2, 3))
    @settings(max_examples=200)
    def test_agrees_with_winding_oracle(self, lat, lon):
        p = GeoPoint(lat, lon)
        concave = (GeoPoint(0, 0), GeoPoint(0, 2), GeoPoint(1, 1), GeoPoint(2, 2), GeoPoint(2, 0))
        if self._on_boundary(p, concave):
            return  # boundary points are inside by contract; the oracle is ambiguous there
        angle = abs(winding_number_inside(p, concave))
        if not (angle < 0.4 * math.pi or angle > 1.6 * math.pi):
            return
        assert point_in_polygon(p, concave) == (angle > 1.6 * math.pi)


def nested_areas():
    def square(size):
        return (
            GeoPoint(-size, -size), GeoPoint(-size, size), GeoPoint(size, size), GeoPoint(size, -size)
        )

    return [
        AdminArea("city", "Cityville", 0, square(1)),
        AdminArea("county", "Countyshire", 1, square(2)),
        AdminArea("state", "Statia", 2, square(3)),
    ]


class TestContainment:
    def test_nested_path(self):
        path = containment_path(GeoPoint(0, 0), nested_areas())
        assert path.ids() == ["city", "county", "state"]

    def test_outside_all(self):
        assert len(containment_path(GeoPoint(50, 50), nested_areas())) == 0

    def test_partial_containment(self):
        path = containment_path(GeoPoint(2.5, 2.5), nested_areas())
        assert path.ids() == ["state"]

    def test_hierarchy_path_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            HierarchyPath(steps=(("a", 1), ("b", 1)))


class TestRenderHierarchy:
    def test_chain_sentence(self):
        path = HierarchyPath(steps=(("x", 0), ("y", 1), ("z", 2)))
        names = {"x": "X", "y": "Y", "z": "Z"}
        assert render_hierarchy(path, names) == "X is within Y, which is within Z"

    def test_single_element(self):
        assert render_hierarchy(HierarchyPath(steps=(("x", 0),)), {"x": "X"}) == "X"

    def test_empty_raises(self):
        with pytest.raises(EmptyPath):
            render_hierarchy(HierarchyPath(steps=()), {})


def landmark(lid, name, lat, lon):
    return LandmarkRecord(id=lid, name=name, point=GeoPoint(lat, lon), category="landmark")


class TestRenderRelation:
    def test_distance_cardinal_form(self):
        a = landmark("a", "A", 0.0, 0.0)
        # ~2 km northeast: bearing 45 via equal lat/lon offsets near the equator.
        delta = math.degrees(2000.0 / EARTH_RADIUS_M) / math.sqrt(2)
        b = landmark("b", "B", delta, delta)
        phrase = render_relation(a, b)
        assert phrase.rendered == "B is 2.0 km northeast of A"
        assert phrase.cardinal == "northeast"

    def test_same_point_adjacent(self):
        a = landmark("a", "A", 1.0, 1.0)
        b = landmark("b", "B", 1.0, 1.0)
        phrase = render_relation(a, b)
        assert phrase.rendered == "B is adjacent to A"
        assert phrase.distance_m == 0.0

    def test_close_form(self):
        a = landmark("a", "A", 0.0, 0.0)
        b = landmark("b", "B", 0.005, 0.0)  # ~556 m
        phrase = render_relation(a, b)
        assert phrase.rendered == "B is close to A"

    def test_whole_km_above_10km(self):
        a = landmark("a", "A", 0.0, 0.0)
        b = landmark("b", "B", 0.0, 0.2)  # ~22 km
        phrase = render_relation(a, b)
        assert re.fullmatch(r"B is \d+ km east of A", phrase.rendered)

    def test_struct_always_carries_both_tokens(self):
        a = landmark("a", "A", 0.0, 0.0)
        b = landmark("b", "B", 0.3, 0.3)
        phrase = render_relation(a, b)
        assert phrase.cardinal in CARDINAL_8
        assert phrase.proximity in ("adjacent to", "close to", "far from") or phrase.proximity.startswith(
            "within a radius of"
        )

    def test_rendered_contains_exactly_one_direction_or_proximity_token(self):
        vocab = sorted(CARDINAL_8 + ("adjacent to", "close to", "far from"), key=len, reverse=True)
        pattern = re.compile("|".join(re.escape(v) for v in vocab))
        for dlat, dlon in [(0.0, 0.0), (0.003, 0.0), (0.05, 0.05), (1.0, -1.0)]:
            phrase = render_relation(landmark("a", "A", 0, 0), landmark("b", "B", dlat, dlon))
            assert len(pattern.findall(phrase.rendered)) == 1
