import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geocontext import geocompute
from geocontext.errors import EmptyInput, NonPositiveSpeed, ParseError, UnsupportedGeometry
from geocontext.geocompute import (
    _BLOCK_VALUES,
    _KERNEL_MIN_VALUES,
    ComputeResult,
    FeatureSet,
    distance_matrix,
    load_geo_file,
    nearest_join,
    parse_feature_collection,
    representative_point,
    travel_time,
    travel_time_result,
    _float_text,
    within_radius,
    write_result,
)
from geocontext.geomodel import GeoPoint
from geocontext.georelate import EARTH_RADIUS_M, haversine


def fc(*points, polygon=None):
    features = [
        {
            "type": "Feature",
            "id": pid,
            "geometry": {"type": "Point", "coordinates": [lon, lat]},
            "properties": {"name": pid},
        }
        for pid, lat, lon in points
    ]
    if polygon is not None:
        features.append(
            {
                "type": "Feature",
                "id": "poly",
                "geometry": {"type": "Polygon", "coordinates": [polygon]},
                "properties": {},
            }
        )
    return {"type": "FeatureCollection", "features": features}


def pts(*points):
    return parse_feature_collection(fc(*points))


class TestLoadGeoFile:
    def test_single_point(self, tmp_path):
        path = tmp_path / "a.geojson"
        path.write_text(json.dumps(fc(("p1", 1.3, 103.8))), encoding="utf-8")
        fs = load_geo_file(path)
        assert len(fs) == 1
        assert fs.features[0].geometry == GeoPoint(1.3, 103.8)

    def test_empty_collection(self, tmp_path):
        path = tmp_path / "empty.geojson"
        path.write_text('{"type": "FeatureCollection", "features": []}', encoding="utf-8")
        assert len(load_geo_file(path)) == 0

    def test_unsupported_geometry_named(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature", "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 1]]}}
            ],
        }
        path = tmp_path / "line.geojson"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(UnsupportedGeometry, match="LineString"):
            load_geo_file(path)

    def test_json_error_carries_line_and_offset(self, tmp_path):
        path = tmp_path / "broken.geojson"
        path.write_text('{"type": "FeatureCollection",\n  "features": [}', encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_geo_file(path)
        assert err.value.line == 2
        assert err.value.offset is not None

    def test_missing_ids_assigned(self):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature", "geometry": {"type": "Point", "coordinates": [0, 0]}},
                {"type": "Feature", "geometry": {"type": "Point", "coordinates": [1, 1]}},
            ],
        }
        fs = parse_feature_collection(doc)
        assert [f.id for f in fs.features] == ["f0", "f1"]

    @pytest.mark.parametrize("fid", [True, False, {"x": 1}, [1], []], ids=["true", "false", "object", "array", "empty-array"])
    def test_id_that_is_not_a_string_or_number_is_parse_error(self, fid):
        # RFC 7946 section 3.2: a feature id is a JSON string or number.
        doc = fc(("p0", 0, 0), ("p1", 1, 1))
        doc["features"][1]["id"] = fid
        with pytest.raises(ParseError, match="feature 1: id must be a string or a number"):
            parse_feature_collection(doc)

    def test_string_and_number_ids_keep_their_text(self):
        doc = fc(("a", 0, 0), ("b", 1, 1), ("c", 2, 2), ("d", 3, 3))
        for feature, fid in zip(doc["features"], ["caf\u00e9", 7, 2.5, -0.0]):
            feature["id"] = fid
        fs = parse_feature_collection(doc)
        assert [f.id for f in fs.features] == ["caf\u00e9", "7", "2.5", "-0.0"]

    def test_duplicate_ids_rejected(self):
        doc = fc(("same", 0, 0), ("same", 1, 1))
        with pytest.raises(ParseError, match="duplicate"):
            parse_feature_collection(doc)

    def test_lonlat_order_converted(self):
        fs = pts(("p", 1.25, 103.5))
        assert fs.features[0].geometry.lat == 1.25
        assert fs.features[0].geometry.lon == 103.5

    def test_polygon_centroid(self):
        ring = [[0, 0], [2, 0], [2, 2], [0, 2], [0, 0]]
        fs = parse_feature_collection(fc(polygon=ring))
        assert representative_point(fs.features[0]) == GeoPoint(1.0, 1.0)

    @pytest.mark.parametrize(
        "doc",
        [
            {"type": "FeatureCollection", "features": 5},
            {"type": "FeatureCollection", "features": [
                {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [5]}}]},
            {"type": "FeatureCollection", "features": [
                {"type": "Feature", "geometry": {"type": "Point", "coordinates": [True, False]}}]},
            fc(polygon=[[0, 0], [2, 0], [2, True], [0, 2], [0, 0]]),
            fc(polygon=[[0, 0], [2, 0], [2, 10**400], [0, 2], [0, 0]]),
        ],
        ids=["features-number", "polygon-ring-number", "point-bools", "polygon-bool", "int-overflow"],
    )
    def test_malformed_collection_is_parse_error(self, doc):
        with pytest.raises(ParseError):
            parse_feature_collection(doc)


class TestDistanceMatrix:
    def test_identical_single_points(self):
        a = pts(("x", 1.0, 2.0))
        assert distance_matrix(a, a).payload == [[0.0]]

    def test_symmetric_zero_diagonal(self):
        a = pts(("p0", 0, 0), ("p1", 1, 1), ("p2", 2, -1))
        result = distance_matrix(a, a)
        m = result.payload
        for i in range(3):
            assert m[i][i] == 0.0
            for j in range(3):
                assert m[i][j] == m[j][i]

    def test_matches_elementwise_haversine(self):
        a = pts(("a0", 0, 0), ("a1", 1.5, 2.5), ("a2", -3, 7))
        b = pts(("b0", 10, 10), ("b1", -5, -5))
        m = distance_matrix(a, b).payload
        for i, fa in enumerate(a.features):
            for j, fb in enumerate(b.features):
                assert m[i][j] == haversine(fa.geometry, fb.geometry)

    def test_transpose_equals_swapped_args(self):
        a = pts(("a0", 0, 0), ("a1", 1, 1), ("a2", 5, 5))
        b = pts(("b0", 2, 2), ("b1", -2, 3))
        ab = distance_matrix(a, b).payload
        ba = distance_matrix(b, a).payload
        for i in range(len(a)):
            for j in range(len(b)):
                assert ab[i][j] == ba[j][i]

    def test_empty_rejected(self):
        a = pts(("a", 0, 0))
        empty = FeatureSet(features=())
        with pytest.raises(EmptyInput):
            distance_matrix(a, empty)

    def test_summary_stats_match_payload(self):
        a = pts(*[(f"a{i}", i * 1.7 - 40, i * 3.1 - 90) for i in range(7)])
        b = pts(*[(f"b{i}", 30 - i * 2.3, i * 5.9) for i in range(5)])
        for result in (distance_matrix(a, b), travel_time_result(distance_matrix(a, b), 7.0)):
            flat = [v for row in result.payload for v in row]
            assert f"min={min(flat)!r} max={max(flat)!r} mean={math.fsum(flat) / len(flat)!r}" in result.summary


class TestNearestJoin:
    def test_singleton_b(self):
        a = pts(("a0", 0, 0), ("a1", 5, 5))
        b = pts(("only", 1, 1))
        pairs = nearest_join(a, b).payload
        assert [p[1] for p in pairs] == ["only", "only"]

    def test_coincident_point_zero_distance(self):
        a = pts(("a0", 2, 2))
        b = pts(("b0", 9, 9), ("b1", 2, 2))
        pairs = nearest_join(a, b).payload
        assert pairs == [("a0", "b1", 0.0)]

    def test_matches_matrix_row_min(self):
        import numpy as np

        rng = np.random.default_rng(23)
        a = pts(*[(f"a{i}", float(rng.uniform(-50, 50)), float(rng.uniform(-170, 170))) for i in range(30)])
        b = pts(*[(f"b{i}", float(rng.uniform(-50, 50)), float(rng.uniform(-170, 170))) for i in range(30)])
        matrix = distance_matrix(a, b).payload
        pairs = nearest_join(a, b).payload
        for i, (_, bid, dist) in enumerate(pairs):
            row_min = min(matrix[i])
            assert dist == row_min
            assert bid == b.features[matrix[i].index(row_min)].id

    def test_tie_broken_by_ascending_id(self):
        a = pts(("a0", 0, 0))
        b = pts(("zz", 0, 1), ("aa", 0, -1))  # equidistant east/west
        pairs = nearest_join(a, b).payload
        assert pairs[0][1] == "aa"


class TestWithinRadius:
    def test_zero_radius_exact_match(self):
        a = pts(("here", 1, 1), ("there", 2, 2))
        result = within_radius(a, GeoPoint(1, 1), 0.0)
        assert [s[0] for s in result.payload] == ["here"]

    def test_radius_covering_sphere_returns_all(self):
        import math

        a = pts(("p0", 0, 0), ("p1", 50, 120), ("p2", -80, -170))
        result = within_radius(a, GeoPoint(0, 0), math.pi * EARTH_RADIUS_M)
        assert len(result.payload) == 3

    def test_matches_matrix_thresholding(self):
        import numpy as np

        rng = np.random.default_rng(24)
        a = pts(*[(f"p{i}", float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10))) for i in range(40)])
        center = GeoPoint(0, 0)
        r = 800_000.0
        expected = sorted(
            (haversine(center, f.geometry), f.id) for f in a.features if haversine(center, f.geometry) <= r
        )
        result = within_radius(a, center, r)
        assert [(d, i) for i, d in result.payload] == expected

    @given(st.floats(0, 2e7), st.floats(0, 2e7))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_radius(self, r1, r2):
        a = pts(("p0", 0, 0), ("p1", 10, 10), ("p2", 30, -40), ("p3", -60, 100))
        lo, hi = sorted((r1, r2))
        inner = {s[0] for s in within_radius(a, GeoPoint(5, 5), lo).payload}
        outer = {s[0] for s in within_radius(a, GeoPoint(5, 5), hi).payload}
        assert inner <= outer


class TestTravelTime:
    def test_zero_distance(self):
        assert travel_time(0, 10) == 0.0

    def test_arithmetic(self):
        assert travel_time(1000, 10) == 100.0

    def test_zero_speed_rejected(self):
        with pytest.raises(NonPositiveSpeed):
            travel_time(1000, 0)

    @pytest.mark.parametrize("speed", [math.nan, math.inf])
    def test_non_finite_speed_rejected(self, speed):
        distances = distance_matrix(pts(("a0", 0, 0)), pts(("b0", 0, 1)))
        with pytest.raises(NonPositiveSpeed):
            travel_time(1000, speed)
        with pytest.raises(NonPositiveSpeed):
            travel_time_result(distances, speed)

    def test_matrix_durations(self):
        a = pts(("a0", 0, 0))
        b = pts(("b0", 0, 1))
        result = travel_time_result(distance_matrix(a, b), speed=25.0)
        assert result.kind == "travel_time"
        assert result.payload[0][0] == haversine(GeoPoint(0, 0), GeoPoint(0, 1)) / 25.0


class TestWriteResult:
    def test_matrix_document_layout(self, tmp_path):
        a = pts(("a0", 0, 0), ("a1", 1, 1))
        b = pts(("b0", 2, 2))
        out = tmp_path / "matrix.json"
        summary_path = write_result(distance_matrix(a, b), out)
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["rows"] == ["a0", "a1"]
        assert doc["cols"] == ["b0"]
        assert len(doc["meters"]) == 2 and len(doc["meters"][0]) == 1
        assert summary_path.exists()
        assert "distance_matrix" in summary_path.read_text(encoding="utf-8")

    def test_subset_written_as_feature_collection(self, tmp_path):
        a = pts(("p0", 0, 0), ("p1", 20, 20))
        out = tmp_path / "subset.geojson"
        write_result(within_radius(a, GeoPoint(0, 0), 100.0), out)
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["type"] == "FeatureCollection"
        assert [f["id"] for f in doc["features"]] == ["p0"]
        assert doc["features"][0]["properties"]["distance_m"] == 0.0

    def test_reproducible_bytes(self, tmp_path):
        a = pts(("p0", 0, 0), ("p1", 1, 1))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_result(distance_matrix(a, a), out1)
        write_result(distance_matrix(a, a), out2)
        assert out1.read_bytes() == out2.read_bytes()


def reference_bytes(document) -> bytes:
    return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode("utf-8")


# Strings that stress the encoder: ", " (the separator the writer re-spaces),
# non-ASCII, control characters and quotes.
_strings = st.text() | st.sampled_from(["", ", ", "a, b", '", "', "caf\u00e9", "\U0001f600", "\x00\n\t\\"])
_numbers = st.integers() | st.floats() | st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf])
_values = st.recursive(
    st.none() | st.booleans() | _numbers | _strings,
    lambda inner: (
        st.lists(inner, max_size=6)
        | st.lists(_numbers, max_size=6)
        | st.lists(_numbers | _strings, max_size=6)
        | st.dictionaries(_strings, inner, max_size=6)
    ),
    max_leaves=20,
)


class TestWriteResultBytes:
    """write_result writes exactly what json.dumps(sort_keys=True, indent=2) does."""

    @given(st.dictionaries(_strings, _values, max_size=6))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_json_dumps(self, tmp_path, document):
        out = tmp_path / "doc.json"
        write_result(ComputeResult(kind="doc", payload=None, summary="", document=document), out)
        assert out.read_bytes() == reference_bytes(document)

    def test_large_result_is_written_without_a_copy_of_its_text(self, tmp_path):
        side = [(f"p{i}", -60 + 0.4 * i, -170 + 1.1 * i) for i in range(300)]
        result = distance_matrix(pts(*side), pts(*side))
        out = tmp_path / "matrix.json"
        tracemalloc.start()
        try:
            write_result(result, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.read_bytes() == reference_bytes(result.document)
        assert peak < out.stat().st_size / 4

    def test_all_ops_match_json_dumps(self, tmp_path):
        properties = {
            "name": "Caf\u00e9, \"Quay\"\n",
            "score": math.nan,
            "limits": [-math.inf, math.inf, -0.0, 5e-324, 3],
            "labels": ["a, b", 2, 0.5],
            "mixed": [1, "a, b", None, True, 2.5, [], {}],
            "nested": {"empty": {}, "list": [], "deep": [[1.5, 2], ["x", ", "]]},
        }
        doc = fc(("p0", 1.25, 103.5), ("p1", 1.3, 103.9), ("p2", -33.9, 151.2),
                 polygon=[[103.8, 1.2], [103.9, 1.2], [103.9, 1.3], [103.8, 1.2]])
        for feature in doc["features"]:
            feature["properties"] = properties
        a = parse_feature_collection(doc)
        b = pts(("b0", 1.3, 103.8), ("b1", 0, 0))
        matrix = distance_matrix(a, b)
        results = [
            matrix,
            travel_time_result(matrix, 13.9),
            nearest_join(a, b),
            within_radius(a, GeoPoint(1.3, 103.8), 50_000.0),
            # Non-string keys, which json.dumps converts before writing.
            ComputeResult(kind="doc", payload=None, summary="", document={"k": {2: [1.5], 1: {False: None}}}),
        ]
        for i, result in enumerate(results):
            out = tmp_path / f"{i}.json"
            write_result(result, out)
            assert out.read_bytes() == reference_bytes(result.document), result.kind


# Every float64, by bit pattern: NaN payloads, subnormals, both zeros.
_bit_floats = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))
_any_floats = _bit_floats | st.floats()


def _mixed_floats(rng: np.random.Generator, n: int) -> list[float]:
    """Seeded doubles over every range the formatter treats differently."""
    values = np.concatenate([
        10 ** rng.uniform(-6, 18, n) * rng.choice([-1.0, 1.0], n),
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        np.round(rng.uniform(0, 1000, n), 3),
        [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-4, 0.5, 2.0**53],
    ])
    return rng.permutation(values)[:n].tolist()


class TestFloatFormatter:
    """Float lists long enough to go through write_result's float kernel
    come out as json.dumps writes them."""

    def write(self, tmp_path, document) -> bytes:
        out = tmp_path / "doc.json"
        write_result(ComputeResult(kind="doc", payload=None, summary="", document=document), out)
        return out.read_bytes()

    @pytest.fixture
    def low_cut_off(self, monkeypatch):
        """The kernel takes runs from 8 values, so that short generated lists reach it."""
        monkeypatch.setattr(geocompute, "_KERNEL_MIN_VALUES", 8)

    @given(st.lists(_any_floats, min_size=8, max_size=100))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_float_list_matches_json_dumps(self, tmp_path, low_cut_off, values):
        document = {"values": values, "nested": {"deeper": [values]}}
        assert self.write(tmp_path, document) == reference_bytes(document)

    @given(st.lists(
        st.lists(_any_floats, max_size=20) | st.lists(st.integers() | _any_floats, max_size=4),
        max_size=12,
    ))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_ragged_lists_of_float_lists_match_json_dumps(self, tmp_path, low_cut_off, rows):
        # Empty rows and rows holding ints break the runs the kernel takes.
        document = {"rows": rows, "nested": [{"rows": rows}]}
        assert self.write(tmp_path, document) == reference_bytes(document)

    @pytest.mark.parametrize("n", sorted({
        1, _KERNEL_MIN_VALUES - 1, _KERNEL_MIN_VALUES, _KERNEL_MIN_VALUES + 1,
        _BLOCK_VALUES - 1, _BLOCK_VALUES, _BLOCK_VALUES + 1, 2 * _BLOCK_VALUES + 3,
    }))
    def test_lengths_around_the_cut_off_and_the_block_size(self, tmp_path, n):
        rng = np.random.default_rng(n)
        flat = _mixed_floats(rng, n)
        split = n // 3
        document = {
            "flat": flat,
            "rows": [flat, flat[:split], flat[split:]],
            "runs": [flat[:split], "break", flat[split:], [1, 2.5], flat],
            "short_rows": [[v] for v in flat[:_KERNEL_MIN_VALUES + 2]],
            "tuple": tuple(flat),
        }
        assert self.write(tmp_path, document) == reference_bytes(document)

    def test_sweep_has_no_mismatch_against_repr(self):
        """Every power of two and of ten within 1e-5..1e17, one ulp either
        side, and 10^5 random doubles per decade, both signs."""
        rng = np.random.default_rng(20261019)
        anchors = np.concatenate([2.0 ** np.arange(-17, 57), [float(f"1e{k}") for k in range(-5, 18)]])
        values = np.concatenate([
            anchors,
            np.nextafter(anchors, 0.0),
            np.nextafter(anchors, np.inf),
            *(rng.uniform(10.0**d, 10.0 ** (d + 1), 100_000) for d in range(-5, 17)),
        ])
        values = np.concatenate([values, -values[::7]])
        mismatches = []
        for start in range(0, values.size, _BLOCK_VALUES):
            block = values[start:start + _BLOCK_VALUES]
            got, want = _float_text(block, ", ", [], ""), ", ".join(map(repr, block.tolist()))
            if got != want:
                mismatches += [(w, g) for g, w in zip(got.split(", "), want.split(", ")) if g != w]
        assert not mismatches, f"{len(mismatches)} of {values.size} differ, first {mismatches[:5]}"
