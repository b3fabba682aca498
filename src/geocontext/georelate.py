"""Spatial relationships: geodesic distance, bearing, cardinal direction,
proximity phrases, containment hierarchies, and natural-language rendering.

All geometry is spherical; the radius is the IUGG mean Earth radius unless a
config overrides it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import DegeneratePolygon, EmptyPath, InvalidArgument, MissingPoint, UndefinedBearing
from .geomodel import AdminArea, GeoPoint, LandmarkRecord

EARTH_RADIUS_M = DEFAULT_CONFIG.earth_radius_m

CARDINAL_8 = ("north", "northeast", "east", "southeast", "south", "southwest", "west", "northwest")
CARDINAL_16 = (
    "north", "north-northeast", "northeast", "east-northeast",
    "east", "east-southeast", "southeast", "south-southeast",
    "south", "south-southwest", "southwest", "west-southwest",
    "west", "west-northwest", "northwest", "north-northwest",
)

PROXIMITY_ADJACENT = "adjacent to"
PROXIMITY_CLOSE = "close to"
PROXIMITY_FAR = "far from"


def check_radius(radius_m: float) -> None:
    """The rule for every radius the engine takes: finite and >= 0, else
    InvalidArgument."""
    if not (math.isfinite(radius_m) and radius_m >= 0):
        raise InvalidArgument(f"radius must be finite and >= 0, got {radius_m}")


def haversine(a: GeoPoint, b: GeoPoint, radius_m: float = EARTH_RADIUS_M) -> float:
    """Great-circle distance in meters via the haversine formula."""
    return float(haversine_array(a, np.array([b.lat]), np.array([b.lon]), radius_m)[0])


def haversine_array(a: GeoPoint, lat: np.ndarray, lon: np.ndarray, radius_m: float = EARTH_RADIUS_M) -> np.ndarray:
    """Great-circle meters from `a` to every (lat, lon) pair, as a float64
    array: the engine's one haversine. An element does not depend on its
    position, so `haversine` equals it. `h` is clamped to 1 because rounding
    lifts it past 1 for near-antipodal pairs, where `sqrt(1 - h)` is NaN."""
    phi1, phi2 = math.radians(a.lat), np.radians(lat)
    dphi = np.radians(lat - a.lat)
    dlam = np.radians(lon - a.lon)
    h = np.minimum(np.sin(dphi / 2.0) ** 2 + math.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2, 1.0)
    return radius_m * 2.0 * np.arctan2(np.sqrt(h), np.sqrt(1.0 - h))


def initial_bearing(a: GeoPoint, b: GeoPoint) -> float:
    """Forward azimuth from a to b in degrees, clockwise from true north.

    Undefined (raises) for identical or antipodal points, where every
    great circle through the pair is equally valid.
    """
    if a == b:
        raise UndefinedBearing("bearing undefined for identical points")
    if a.lat == -b.lat and abs(a.lon - b.lon) == 180.0:
        raise UndefinedBearing("bearing undefined for antipodal points")
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dlam = math.radians(b.lon - a.lon)
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    bearing = math.degrees(math.atan2(y, x)) % 360.0
    # A tiny negative azimuth wraps to exactly 360.0 in float modulo.
    return 0.0 if bearing == 360.0 else bearing


def cardinal(bearing: float, ways: int = 8) -> str:
    """Map a bearing to one of 8 or 16 compass tokens (half-open sectors,
    north spans [360 - half, 360) and [0, half))."""
    if ways == 8:
        tokens: Sequence[str] = CARDINAL_8
    elif ways == 16:
        tokens = CARDINAL_16
    else:
        raise ValueError(f"ways must be 8 or 16, got {ways}")
    if not 0.0 <= bearing < 360.0:
        raise ValueError(f"bearing {bearing} outside [0, 360)")
    sector = 360.0 / ways
    return tokens[int(((bearing + sector / 2.0) % 360.0) // sector)]


def _format_radius(radius_m: float) -> str:
    return str(int(radius_m)) if float(radius_m).is_integer() else str(radius_m)


def proximity_phrase(
    d: float,
    radius_m: float,
    adjacent_m: float = DEFAULT_CONFIG.adjacent_m,
    close_m: float = DEFAULT_CONFIG.close_m,
) -> str:
    """Qualitative proximity token for a distance, thresholds overridable."""
    if d < 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    check_radius(radius_m)
    if d < adjacent_m:
        return PROXIMITY_ADJACENT
    if d < close_m:
        return PROXIMITY_CLOSE
    if d <= radius_m:
        return f"within a radius of {_format_radius(radius_m)} m"
    return PROXIMITY_FAR


def point_in_polygon(p: GeoPoint, ring: Sequence[GeoPoint]) -> bool:
    """Even-odd ray casting in the lat/lon plane; boundary points are inside.

    The polygon must have at least 3 distinct vertices and span less than
    180 degrees of longitude.
    """
    verts = list(ring)
    if len(verts) >= 2 and verts[0] == verts[-1]:
        verts = verts[:-1]
    if len({(v.lat, v.lon) for v in verts}) < 3:
        raise DegeneratePolygon("polygon has fewer than 3 distinct vertices")

    x, y = p.lon, p.lat
    # Boundary counts as inside: collinear within segment bounds.
    for i in range(len(verts)):
        ax, ay = verts[i].lon, verts[i].lat
        bx, by = verts[(i + 1) % len(verts)].lon, verts[(i + 1) % len(verts)].lat
        cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        if abs(cross) <= 1e-12 and min(ax, bx) - 1e-12 <= x <= max(ax, bx) + 1e-12 and min(ay, by) - 1e-12 <= y <= max(ay, by) + 1e-12:
            return True

    inside = False
    j = len(verts) - 1
    for i in range(len(verts)):
        xi, yi = verts[i].lon, verts[i].lat
        xj, yj = verts[j].lon, verts[j].lat
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return inside


@dataclass(frozen=True)
class HierarchyPath:
    """Containment chain, innermost first; levels strictly increase."""

    steps: tuple[tuple[str, int], ...]

    def __post_init__(self):
        levels = [level for _, level in self.steps]
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"levels must strictly increase, got {levels}")

    def __len__(self) -> int:
        return len(self.steps)

    def ids(self) -> list[str]:
        return [area_id for area_id, _ in self.steps]


def containment_path(p: GeoPoint, areas: Iterable[AdminArea]) -> HierarchyPath:
    """All areas containing p, ascending by level.

    Overlapping same-level areas resolve to the lexicographically smallest id
    so the path keeps strictly increasing levels.
    """
    containing = sorted(
        ((a.level, a.id) for a in areas if point_in_polygon(p, a.polygon)),
        key=lambda t: (t[0], t[1]),
    )
    steps: list[tuple[str, int]] = []
    for level, area_id in containing:
        if steps and steps[-1][1] == level:
            continue
        steps.append((area_id, level))
    return HierarchyPath(steps=tuple(steps))


@dataclass(frozen=True)
class RelationPhrase:
    subject_id: str
    object_id: str
    distance_m: float
    bearing_deg: float
    cardinal: str
    proximity: str
    rendered: str


def _format_km(d_m: float) -> str:
    km = d_m / 1000.0
    return f"{km:.1f} km" if d_m < 10_000.0 else f"{round(km)} km"


def render_relation(
    a: LandmarkRecord,
    b: LandmarkRecord,
    config: EngineConfig = DEFAULT_CONFIG,
    radius_m: float = 10_000.0,
) -> RelationPhrase:
    """Describe where b lies relative to a.

    Within the adjacent/close thresholds the proximity token replaces the
    distance-and-cardinal phrasing ("B is close to A"); farther out the
    rendered form is "B is {dist} {cardinal} of A".
    """
    if a.point is None or b.point is None:
        raise MissingPoint("both records need points to relate")
    d = haversine(a.point, b.point, config.earth_radius_m)
    if a.point == b.point:
        bearing, token = 0.0, cardinal(0.0, config.cardinal_ways)
    else:
        bearing = initial_bearing(a.point, b.point)
        token = cardinal(bearing, config.cardinal_ways)
    proximity = proximity_phrase(d, radius_m, config.adjacent_m, config.close_m)

    if proximity in (PROXIMITY_ADJACENT, PROXIMITY_CLOSE):
        rendered = f"{b.name} is {proximity} {a.name}"
    else:
        rendered = f"{b.name} is {_format_km(d)} {token} of {a.name}"
    return RelationPhrase(
        subject_id=a.id,
        object_id=b.id,
        distance_m=d,
        bearing_deg=bearing,
        cardinal=token,
        proximity=proximity,
        rendered=rendered,
    )


def render_hierarchy(path: HierarchyPath, names: Mapping[str, str]) -> str:
    """Chain containment as "X is within Y, which is within Z"."""
    if len(path) == 0:
        raise EmptyPath("cannot render an empty hierarchy path")
    labels = [names.get(area_id, area_id) for area_id in path.ids()]
    if len(labels) == 1:
        return labels[0]
    rendered = f"{labels[0]} is within {labels[1]}"
    for label in labels[2:]:
        rendered += f", which is within {label}"
    return rendered
