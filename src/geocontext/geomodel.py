"""Core validated domain types shared by every other module.

All types are immutable values after construction and safe to share across
threads. Geometry is spherical lat/lon; no datums or projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NonFiniteInput, OutOfRangeLatitude


def wrap_longitude(lon: float) -> float:
    """Wrap a finite longitude into (-180, 180]; -180 maps to +180."""
    wrapped = lon - 360.0 * math.floor((lon + 180.0) / 360.0)
    if wrapped <= -180.0:
        wrapped += 360.0
    return wrapped


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude pair; lat in [-90, 90], lon normalized to (-180, 180]."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise NonFiniteInput(f"coordinates must be finite, got ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise OutOfRangeLatitude(f"latitude {self.lat} outside [-90, 90]")
        # Floats already in range (as a parsed file gives them) are kept:
        # `float` and `wrap_longitude` return them unchanged.
        if type(self.lat) is not float or type(self.lon) is not float or not -180.0 < self.lon <= 180.0:
            object.__setattr__(self, "lat", float(self.lat))
            object.__setattr__(self, "lon", wrap_longitude(float(self.lon)))


def normalize_point(lat: float, lon: float) -> GeoPoint:
    """Validate latitude and wrap longitude into the canonical range."""
    return GeoPoint(lat, lon)


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned lat/lon box. Antimeridian-crossing boxes are rejected;
    callers split those into two boxes."""

    min_lat: float
    max_lat: float
    min_lon: float
    max_lon: float

    def __post_init__(self):
        vals = (self.min_lat, self.max_lat, self.min_lon, self.max_lon)
        if not all(math.isfinite(v) for v in vals):
            raise NonFiniteInput(f"bounding box must be finite, got {vals}")
        if self.min_lat > self.max_lat:
            raise ValueError(f"min_lat {self.min_lat} > max_lat {self.max_lat}")
        if self.min_lon > self.max_lon:
            raise ValueError(f"min_lon {self.min_lon} > max_lon {self.max_lon} (antimeridian boxes are rejected)")
        if not (-90.0 <= self.min_lat and self.max_lat <= 90.0):
            raise OutOfRangeLatitude(f"box latitudes {self.min_lat}..{self.max_lat} outside [-90, 90]")
        if not (-180.0 <= self.min_lon and self.max_lon <= 180.0):
            raise ValueError(f"box longitudes {self.min_lon}..{self.max_lon} outside [-180, 180]")


def point_in_bbox(p: GeoPoint, b: BoundingBox) -> bool:
    """Inclusive containment test."""
    return b.min_lat <= p.lat <= b.max_lat and b.min_lon <= p.lon <= b.max_lon


@dataclass(frozen=True)
class TimeWindow:
    """Half-closed-free UTC window [start, end], epoch seconds."""

    start: float
    end: float

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise NonFiniteInput("time window bounds must be finite")
        if self.start > self.end:
            raise ValueError(f"window start {self.start} after end {self.end}")

    def contains(self, t: float) -> bool:
        return self.start <= t <= self.end


@dataclass(frozen=True)
class AdminArea:
    """Administrative area on the 4-level ladder: 0=city, 1=county, 2=state, 3=country.

    The polygon ring is closed on construction (first vertex appended if the
    input ring is open) and must have at least 3 distinct vertices.
    """

    id: str
    name: str
    level: int
    polygon: tuple[GeoPoint, ...]

    def __post_init__(self):
        if self.level not in (0, 1, 2, 3):
            raise ValueError(f"admin level {self.level} outside 0..3")
        ring = tuple(self.polygon)
        if ring and ring[0] != ring[-1]:
            ring = ring + (ring[0],)
        distinct = {(p.lat, p.lon) for p in ring}
        if len(distinct) < 3:
            raise ValueError("polygon needs at least 3 distinct vertices")
        object.__setattr__(self, "polygon", ring)


@dataclass(frozen=True)
class LandmarkRecord:
    """A gazetteer entry: named place with description, provenance, and
    optional event metadata (window + event_text) for time-bounded happenings."""

    id: str
    name: str
    point: GeoPoint
    category: str
    description: str = ""
    source: str = ""
    credibility: float = 1.0
    admin_path: tuple[str, ...] = field(default_factory=tuple)
    window: TimeWindow | None = None
    event_text: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("landmark name must be non-empty")
        if not 0.0 <= self.credibility <= 1.0:
            raise ValueError(f"credibility {self.credibility} outside [0, 1]")
        object.__setattr__(self, "admin_path", tuple(self.admin_path))
