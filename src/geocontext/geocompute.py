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

from .errors import EmptyInput, NonPositiveSpeed, ParseError, UnsupportedGeometry, decode_utf8
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
        if fid is None:
            fid = f"f{i}"
        elif isinstance(fid, str) or _is_number(fid):  # RFC 7946 section 3.2
            fid = str(fid)
        else:
            raise ParseError(f"{where}: id must be a string or a number, got {type(fid).__name__}")
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

    Bytes that are not UTF-8 and JSON syntax errors surface as ParseError
    with line and offset; unsupported geometry types name the offending
    type.
    """
    raw = decode_utf8(Path(path).read_bytes(), f"geospatial file {path}")
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
# A float list, or a run of sibling float lists, with fewer values than this
# is written by json.dumps: below it the kernel's fixed cost per call (about
# 0.13 ms) is more than it saves on 17-digit values (json.dumps: about
# 0.7 us each). A GeoJSON [lon, lat] pair always stays there.
_KERNEL_MIN_VALUES = 512
# Values formatted per kernel call. It bounds what one call holds, about
# 100 bytes per value at its peak.
_BLOCK_VALUES = 4096

# 10^k = 5^k * 2^k is exact in float64 while 5^k < 2^53, that is for k <= 22.
_POW10 = np.array([float(10**k) for k in range(23)])
_MANTISSA_BITS = np.uint64((1 << 52) - 1)


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each part with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)
# Factors that put a 15- or 16-digit candidate back at the scale of x:
# c * _MULn[k] / _DIVn[k] is one correctly rounded operation (the other factor is 1).
_k = np.arange(len(_POW10))
_MUL15, _DIV15 = _POW10[np.maximum(2 - _k, 0)], _POW10[np.maximum(_k - 2, 0)]
_MUL16, _DIV16 = _POW10[np.maximum(1 - _k, 0)], _POW10[np.maximum(_k - 1, 0)]
del _k


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each i < 10^4: its four ASCII digits, zero-padded, as one uint32
    word, and how many of them are trailing zeros."""
    i = np.arange(10_000, dtype=np.uint16)
    digits = np.empty((i.size, 4), np.uint8)
    zeros = np.zeros(i.size, np.uint8)
    for col, j in enumerate((3, 2, 1, 0)):
        digits[:, col] = i // 10**j % 10 + ord("0")
        zeros += i % 10 ** (j + 1) == 0
    return digits.view(np.uint32).ravel(), zeros


_DIGITS4, _ZEROS4 = _digit_tables()
# _KEEP[d]: a mask over five digit words (three zeros, then 17 digits) that
# keeps the zeros and the first d digits.
_KEEP = np.where(np.arange(20) < np.arange(3, 21)[:, None], 0xFF, 0).astype(np.uint8).view(np.uint32)
_FALLBACK_KEY = 20  # sorts after the fast path's exponent keys 0..19 (E + 4)
_VALUE_BYTES = 24  # the longest JSON of a float64, "-2.2250738585072014e-308"
_BREAK = "\x01"  # stands for a row break until the text is assembled


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fast, e10, m) for the float64 values x. Where fast is set, repr(x)
    in fixed notation has the digits of the 17-digit integer m, less its
    trailing zeros, with the first at 10^e10. Elsewhere e10 and m mean
    nothing, and the value needs float.__repr__.

    float.__repr__, which json.dumps writes, gives the shortest decimal that
    reads back as x, the nearest to x if several do, in fixed notation when
    1e-4 <= |x| < 1e16. For such x:

    - Exact scaling. With e10 = floor(log10 |x|) and k = 16 - e10, 10^k is
      exact (k <= 22), and Dekker's TwoProduct with Veltkamp splitting
      (T. J. Dekker, "A floating-point technique for extending the available
      precision", 1971) gives |x| * 10^k exactly as p + p_lo, with no FMA.
      p is at least 10^16 > 2^53, so an integer, and m17 = p + rint(p_lo) is
      the correctly rounded 17-digit significand. That always reads back.
    - Shortest digits. A double's rounding interval is narrower than the gap
      between 15-digit decimals, so at most one 15-digit decimal reads back
      as x, and if one does, the nearest, c15, does. Likewise the nearest
      16-digit decimal c16 reads back if any 16-digit decimal does, and it
      is the one repr picks. Each test is Clinger's exact fast path (W. D.
      Clinger, "How to read floating point numbers accurately", 1990): for
      an integer c < 2^53 and an exact power of ten, c / 10^j is one
      correctly rounded operation, so it equals x exactly when the decimal
      reads back as x.
    - Not covered, so not fast: |x| outside [1e-4, 1e16) and zeros; NaN and
      infinities, which JSON spells NaN and Infinity; powers of two, whose
      rounding interval is asymmetric; a 16-digit candidate >= 2^53, which
      the fast path cannot test; an exact tie between two candidates; and a
      log10 estimate that is off by one, which leaves m outside
      [10^16, 10^17).

    Every operation is masked first: no log10 of zero, NaN or infinity.
    """
    xs = np.abs(x)
    fast = (xs >= 1e-4) & (xs < 1e16) & ((x.view(np.uint64) & _MANTISSA_BITS) != 0)
    xs[~fast] = 1.0
    e10 = np.floor(np.log10(xs)).astype(np.intp)
    k = 16 - e10
    p = xs * _POW10[k]
    x_hi, x_lo = _veltkamp(xs)
    t_hi, t_lo = _POW10_HI[k], _POW10_LO[k]
    p_lo = ((x_hi * t_hi - p) + x_hi * t_lo + x_lo * t_hi) + x_lo * t_lo
    del x_hi, x_lo, t_hi, t_lo  # frees: a block's arrays are most of what the writer holds
    rounded = np.rint(p_lo)
    m = p.astype(np.int64) + rounded.astype(np.int64)
    rest = p_lo - rounded  # exact: |x| * 10^k - m17, within [-0.5, 0.5]
    del p, p_lo, rounded
    above = rest > 0
    c16, r16 = np.divmod(m, 10)
    c16 += (r16 > 5) | ((r16 == 5) & above)
    unsure16 = ((r16 == 5) & (rest == 0)) | (c16 >= 2**53)
    c15, r15 = np.divmod(m, 100)
    c15 += (r15 > 50) | ((r15 == 50) & above)
    del r16, r15, above
    ok15 = c15 * _MUL15[k] / _DIV15[k] == xs
    ok16 = c16 * _MUL16[k] / _DIV16[k] == xs
    np.copyto(m, c16 * 10, where=ok16)
    np.copyto(m, c15 * 100, where=ok15)
    fast &= (np.abs(rest) != 0.5) & (ok15 | ~unsure16) & (m >= 10**16) & (m < 10**17)
    return fast, e10, m


def _digits(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of each m in [10^16, 10^17), as the rows of a
    uint8 array, and the same with trailing zeros NUL: uint32 divmods into
    four-digit groups, then a table of four-digit words."""
    hi9, lo8 = np.divmod(m, 10**8)  # the only int64 division; the rest fit in uint32
    lead, mid8 = np.divmod(hi9.astype(np.uint32), 10**8)
    g3, g4 = np.divmod(lo8.astype(np.uint32), 10_000)
    del hi9, lo8
    g1, g2 = np.divmod(mid8, 10_000)
    words = np.empty((m.size, 5), np.uint32)
    for col, group in enumerate((lead, g1, g2, g3, g4)):
        np.take(_DIGITS4, group, out=words[:, col])
    zeros = _ZEROS4[g4] + (g4 == 0) * (_ZEROS4[g3] + (g3 == 0) * (_ZEROS4[g2] + (g2 == 0) * _ZEROS4[g1]))
    trimmed = np.take(_KEEP, 17 - zeros, axis=0)
    trimmed &= words
    return words.view(np.uint8)[:, 3:], trimmed.view(np.uint8)[:, 3:]


def _fixed_notation(x: np.ndarray) -> np.ndarray:
    """The JSON of each float64 of x, NUL-padded to _VALUE_BYTES, as the
    rows of a uint8 array: byte for byte what json.dumps writes.

    `_shortest_digits` finds the digits, and float.__repr__, through one
    json.dumps call, writes what it does not cover. The values are sorted by
    decimal exponent, so each exponent's static layout is a few column
    slices.
    """
    fast, e10, m = _shortest_digits(x)
    key = np.where(fast, e10 + 4, _FALLBACK_KEY).astype(np.uint8)
    del fast, e10
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=_FALLBACK_KEY + 1)
    m = m[order]
    digits, trimmed = _digits(m)
    del m

    grid = np.zeros((x.size, _VALUE_BYTES), np.uint8)
    grid[:, 0] = (x < 0)[order] * ord("-")
    start = 0
    for key_e in np.flatnonzero(counts[:_FALLBACK_KEY]).tolist():
        rows = slice(start, start + counts[key_e])
        start = rows.stop
        e = key_e - 4
        if e >= 0:  # integer digits, ".", at least one fraction digit
            grid[rows, 1:e + 2] = digits[rows, :e + 1]
            grid[rows, e + 2] = ord(".")
            grid[rows, e + 3] = digits[rows, e + 1]
            grid[rows, e + 4:19] = trimmed[rows, e + 2:]
        else:  # "0.", -e - 1 zeros, the digits
            grid[rows, 1:2 - e] = np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8)
            grid[rows, 2 - e:19 - e] = trimmed[rows]
    del digits, trimmed
    if start < x.size:
        texts = json.dumps(x[order[start:]].tolist())[1:-1].split(", ")
        padded = "".join(t.ljust(_VALUE_BYTES, "\0") for t in texts).encode("ascii")
        grid[start:] = np.frombuffer(padded, np.uint8).reshape(-1, _VALUE_BYTES)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(x.size)
    return np.take(grid.view(f"V{_VALUE_BYTES}"), inverse, axis=0).view(np.uint8)


def _float_text(x: np.ndarray, value_sep: str, breaks: list[int], row_sep: str) -> str:
    """The JSON of each float64 of x, byte for byte as json.dumps writes it,
    each but the last followed by value_sep, or by row_sep where its index
    is in breaks.

    The separators take the last columns of the NUL-padded grid of
    `_fixed_notation`, and one bytes.translate deletes the padding.
    """
    values = _fixed_notation(x)
    sep_bytes = len(value_sep)
    grid = np.empty((x.size, _VALUE_BYTES + sep_bytes), np.uint8)
    grid[:, :_VALUE_BYTES] = values
    del values
    grid[:, _VALUE_BYTES:] = np.frombuffer(value_sep.encode("ascii"), np.uint8)
    grid[breaks, _VALUE_BYTES:] = np.frombuffer(_BREAK.ljust(sep_bytes, "\0").encode("ascii"), np.uint8)
    grid[-1, _VALUE_BYTES:] = 0
    padded = grid.tobytes()
    del grid
    text = padded.translate(None, b"\0").decode("ascii")
    return text.replace(_BREAK, row_sep) if breaks else text


def _row_blocks(rows: list):
    """rows in runs of whole rows holding at most _BLOCK_VALUES values in
    all, or a longer row alone."""
    block: list = []
    size = 0
    for row in rows:
        if block and size + len(row) > _BLOCK_VALUES:
            yield block
            block, size = [], 0
        block.append(row)
        size += len(row)
    yield block


def _float_lists_pieces(rows: list, pad: str):
    """The text of rows, non-empty lists of floats, each as
    `_indented_json(row, pad)` and joined by ",\n" + pad, in pieces: one
    kernel call per block of whole rows, and a row longer than a block
    split across calls."""
    inner = pad + "  "
    value_sep = ",\n" + inner
    row_sep = "\n" + pad + "],\n" + pad + "[\n" + inner
    sep = "[\n" + inner
    for block in _row_blocks(rows):
        x = np.fromiter(itertools.chain.from_iterable(block), np.float64, sum(map(len, block)))
        breaks = [end - 1 for end in itertools.accumulate(map(len, block[:-1]))]
        for start in range(0, x.size, _BLOCK_VALUES):  # more than one call only for a lone row
            yield sep
            yield _float_text(x[start:start + _BLOCK_VALUES], value_sep, breaks, row_sep)
            sep = value_sep
        sep = row_sep
    yield "\n" + pad + "]"


def _is_float_list(value) -> bool:
    return isinstance(value, (list, tuple)) and bool(value) and set(map(type, value)) == {float}


def _number_list_json(obj, pad: str) -> str:
    """`_indented_json(obj, pad)` of a non-empty list of ints and floats: one
    json.dumps call whose ", " separators are re-spaced, since no number's
    JSON contains ", "."""
    inner = pad + "  "
    return "[\n" + inner + json.dumps(obj)[1:-1].replace(", ", ",\n" + inner) + "\n" + pad + "]"


def _list_pieces(obj, pad: str):
    """`_indented_json(obj, pad)` of a non-empty list or tuple, in pieces.

    A list holding only ints and floats is `_number_list_json`. With enough
    values, a list of floats, and a run of sibling lists of floats such as
    the rows of a matrix, go through the float kernel instead. Any other
    element is one piece.
    """
    inner = pad + "  "
    sep = ",\n" + inner
    types = set(map(type, obj))
    if types <= _NUMBER_TYPES:
        if types == {float} and len(obj) >= _KERNEL_MIN_VALUES:
            yield from _float_lists_pieces([obj], pad)
        else:
            yield _number_list_json(obj, pad)
        return
    yield "[\n" + inner
    lead = ""
    if any(issubclass(t, (list, tuple)) for t in types):
        runs = ((is_floats, list(group)) for is_floats, group in itertools.groupby(obj, _is_float_list))
    else:  # no lists in it, such as a list of features: one run
        runs = [(False, obj)]
    for is_floats, group in runs:
        if is_floats and sum(map(len, group)) >= _KERNEL_MIN_VALUES:
            yield lead
            yield from _float_lists_pieces(group, inner)
            lead = sep
        else:
            for value in group:
                yield lead + _indented_json(value, inner)
                lead = sep
    yield "\n" + pad + "]"


def _indented_json(obj, pad: str = "") -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2), nested at pad.

    With an indent, CPython 3.11's json runs its pure-Python encoder, one
    generator step per value. Here strings go straight to the C string
    encoder, lists through `_list_pieces` and other leaves through
    json.dumps.

    Long float lists go through a numpy kernel, and the bytes stay exact:
    Dekker's TwoProduct (1971) scales each |x| in [1e-4, 1e16) by 10^k
    without rounding, and Clinger's fast path (1990) tests the nearest 15-
    and 16-digit decimals for reading back as x, so the digits are
    float.__repr__'s. float.__repr__ itself writes what that argument does
    not cover: zeros, |x| outside the range, NaN and infinities, powers of
    two, a 16-digit candidate >= 2^53, exact ties and a log10 estimate off
    by one (see `_shortest_digits`).
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = pad + "  "
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        items = (f"{encode_basestring_ascii(k)}: {_indented_json(v, inner)}" for k, v in sorted(obj.items()))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if len(obj) < _KERNEL_MIN_VALUES and set(map(type, obj)) <= _NUMBER_TYPES:
            return _number_list_json(obj, pad)  # a short leaf, such as a [lon, lat] pair: no generator
        return "".join(_list_pieces(obj, pad))
    if isinstance(obj, dict):
        # Empty, or with keys json converts to strings. The output of
        # ensure_ascii holds no raw newline, so every "\n" is indentation.
        return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)
    return json.dumps(obj)


def _json_pieces(document):
    """`_indented_json(document)` in pieces: one per member of a dict
    document and per element or block of float values of each of its lists.
    Writing them one at a time holds no string of the whole text, of which
    building one makes several copies (25 MB each for a 1000 x 1000
    distance matrix)."""
    if not (isinstance(document, dict) and document and all(isinstance(k, str) for k in document)):
        yield _indented_json(document)
        return
    opening = "{\n  "
    for key, value in sorted(document.items()):
        yield f"{opening}{encode_basestring_ascii(key)}: "
        if isinstance(value, (list, tuple)) and value:
            yield from _list_pieces(value, "  ")
        else:
            yield _indented_json(value, "  ")
        opening = ",\n  "
    yield "\n}"


def write_result(result: ComputeResult, out_path: str | Path) -> Path:
    """Write the result document to out_path and the analysis summary next to
    it as <out_path>.summary.txt; returns the summary path.

    The document's bytes are json.dumps(document, sort_keys=True, indent=2)
    and a newline, written a piece at a time by `_json_pieces`; floats in
    long lists come from an exact numpy kernel that leaves every case it
    cannot prove to float.__repr__ (see `_indented_json`).
    """
    out = Path(out_path)
    with out.open("w", encoding="utf-8") as fh:
        fh.writelines(_json_pieces(result.document))
        fh.write("\n")
    summary_path = out.with_name(out.name + ".summary.txt")
    summary_path.write_text(result.summary + "\n", encoding="utf-8")
    return summary_path
