"""Seeded synthetic inputs: gazetteers, prompts and GeoJSON feature files.

About 90% of places fall in a Singapore-sized cluster and 10% anywhere on
Earth; 10% carry a time window plus event text; credibility is uniform in
[0.5, 1]. Every name ends in the record's index, so names are unique and a
prompt that mentions one anchors on exactly that place.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLUSTER_LAT = (1.22, 1.47)
CLUSTER_LON = (103.60, 104.05)
CLUSTER_SHARE = 0.9
WINDOW_SHARE = 0.1
WINDOW_START = (1.6e9, 1.9e9)
WINDOW_DAYS = (1.0, 90.0)

HEADER = (
    "id", "name", "lat", "lon", "category", "description", "source", "credibility",
    "admin_path", "window_start", "window_end", "event",
)

_ADJ = (
    "amber", "basalt", "cedar", "coral", "crimson", "dusky", "eastern", "emerald", "golden", "granite",
    "hidden", "hollow", "iron", "ivory", "jade", "lantern", "lower", "lunar", "marble", "misty",
    "northern", "old", "pearl", "quiet", "royal", "ruby", "sandy", "silver", "southern", "stone",
    "sunny", "upper", "velvet", "western", "willow", "windy",
)
_NOUN = (
    "arcade", "bay", "bridge", "canal", "causeway", "cove", "court", "crescent", "dock", "estate",
    "fountain", "garden", "gate", "grove", "harbour", "hill", "jetty", "junction", "lane", "market",
    "marsh", "meadow", "mill", "park", "pier", "plaza", "point", "quay", "reservoir", "ridge",
    "square", "station", "temple", "terrace", "tower", "wharf",
)
_FILLER = (
    "serene", "historic", "lively", "modern", "scenic", "bustling", "renovated", "iconic", "popular",
    "restored", "famous", "tranquil", "vibrant", "leafy", "busy", "charming", "sprawling", "compact",
)
_TOPIC = (
    "food", "hawker", "shopping", "museum", "heritage", "nightlife", "river", "waterfront", "sports",
    "music", "art", "library", "school", "hospital", "ferry", "bus", "train", "cycling", "hiking",
    "temple", "church", "mosque", "beach", "zoo", "aquarium", "theatre", "cinema", "office", "housing",
)
_EVENT = ("concert", "festival", "marathon", "exhibition", "fair", "parade", "conference", "tournament")
_CATEGORIES = ("landmark", "street", "city")
_SOURCES = ("survey", "registry", "guidebook", "crowd")


@dataclass
class Gazetteer:
    """Column arrays of one synthetic gazetteer, in row order."""

    ids: list[str]
    names: list[str]
    lat: np.ndarray
    lon: np.ndarray
    credibility: np.ndarray
    has_window: np.ndarray
    window_start: np.ndarray
    window_end: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def make_gazetteer(rng: np.random.Generator, n: int) -> tuple[Gazetteer, list[list[str]]]:
    """n places plus their CSV rows (floats written with repr, so exact)."""
    in_cluster = rng.random(n) < CLUSTER_SHARE
    lat = np.where(
        in_cluster,
        rng.uniform(*CLUSTER_LAT, n),
        np.degrees(np.arcsin(rng.uniform(-0.97, 0.97, n))),
    )
    lon = np.where(in_cluster, rng.uniform(*CLUSTER_LON, n), rng.uniform(-179.9, 179.9, n))
    credibility = rng.uniform(0.5, 1.0, n)
    has_window = rng.random(n) < WINDOW_SHARE
    start = np.floor(rng.uniform(*WINDOW_START, n))
    end = start + np.floor(rng.uniform(*WINDOW_DAYS, n) * 86400.0)
    words = rng.integers(0, 1 << 30, size=(n, 6))

    ids, names, rows = [], [], []
    for i in range(n):
        w = words[i]
        name = f"{_ADJ[w[0] % len(_ADJ)].title()} {_NOUN[w[1] % len(_NOUN)].title()} {i}"
        category = _CATEGORIES[w[2] % len(_CATEGORIES)]
        description = (
            f"{name} is a {_FILLER[w[3] % len(_FILLER)]} {category} known for "
            f"{_TOPIC[w[4] % len(_TOPIC)]} and {_TOPIC[w[5] % len(_TOPIC)]}."
        )
        doc_id = f"p{i:06d}"
        window = ("", "", "")
        if has_window[i]:
            event = f"{_TOPIC[w[4] % len(_TOPIC)]} {_EVENT[w[5] % len(_EVENT)]} at {name}"
            window = (repr(float(start[i])), repr(float(end[i])), event)
        ids.append(doc_id)
        names.append(name)
        rows.append([
            doc_id, name, repr(float(lat[i])), repr(float(lon[i])), category, description,
            _SOURCES[w[0] % len(_SOURCES)], repr(float(credibility[i])), "", *window,
        ])
    g = Gazetteer(ids, names, lat, lon, credibility, has_window, start, end)
    return g, rows


def write_csv(rows: list[list[str]], path: Path) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows(rows)
    return path


@dataclass(frozen=True)
class Prompt:
    """One answer_prompt request and the anchor point it must resolve to."""

    shape: str
    text: str
    time: float | None
    anchor: tuple[float, float] | None


PROMPT_SHAPES = ("place", "place_time", "coords", "no_place")


def make_prompt(rng: np.random.Generator, g: Gazetteer, shape: str) -> Prompt:
    if shape == "place":
        i = int(rng.integers(len(g)))
        return Prompt(shape, f"What is near {g.names[i]}?", None, (float(g.lat[i]), float(g.lon[i])))
    if shape == "place_time":
        windowed = np.flatnonzero(g.has_window)
        i = int(windowed[rng.integers(len(windowed))])
        t = float(np.floor(rng.uniform(g.window_start[i], g.window_end[i])))
        return Prompt(
            shape, f"Which events are on at {g.names[i]} then?", t, (float(g.lat[i]), float(g.lon[i]))
        )
    if shape == "coords":
        i = int(rng.integers(len(g)))
        lat = f"{g.lat[i] + rng.uniform(-0.01, 0.01):.4f}"
        lon = f"{g.lon[i] + rng.uniform(-0.01, 0.01):.4f}"
        return Prompt(shape, f"What is around {lat}, {lon}?", None, (float(lat), float(lon)))
    if shape == "no_place":
        a, b = rng.choice(len(_TOPIC), size=2, replace=False)
        f = int(rng.integers(len(_FILLER)))
        return Prompt(shape, f"Recommend a {_FILLER[f]} spot for {_TOPIC[a]} and {_TOPIC[b]}", None, None)
    raise ValueError(f"unknown prompt shape {shape!r}")


def make_features(rng: np.random.Generator, n: int, prefix: str, polygon_share: float = 0.1) -> dict:
    """A FeatureCollection of n Points and small closed Polygons."""
    in_cluster = rng.random(n) < CLUSTER_SHARE
    lat = np.where(in_cluster, rng.uniform(*CLUSTER_LAT, n), rng.uniform(-60.0, 70.0, n))
    lon = np.where(in_cluster, rng.uniform(*CLUSTER_LON, n), rng.uniform(-179.0, 179.0, n))
    is_polygon = rng.random(n) < polygon_share
    offsets = rng.uniform(0.0005, 0.005, size=(n, 4))
    features = []
    for i in range(n):
        la, lo = float(lat[i]), float(lon[i])
        if is_polygon[i]:
            d = offsets[i]
            ring = [[lo - d[0], la - d[1]], [lo + d[2], la - d[1]], [lo + d[2], la + d[3]], [lo - d[0], la + d[3]]]
            ring.append(ring[0])
            geometry = {"type": "Polygon", "coordinates": [[[float(x), float(y)] for x, y in ring]]}
        else:
            geometry = {"type": "Point", "coordinates": [lo, la]}
        features.append({"type": "Feature", "id": f"{prefix}{i}", "geometry": geometry, "properties": {"n": i}})
    return {"type": "FeatureCollection", "features": features}


def write_json(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path
