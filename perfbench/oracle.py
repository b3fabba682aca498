"""Independent full-scan oracles the benchmark checks the program against.

They read the store only through its public API (`doc_ids`, `get`), score
with whole-array numpy arithmetic instead of the program's per-record loop,
and compute great-circle distances from 3-D unit vectors instead of the
haversine formula. Arithmetic order differs from the program's, so scores
may differ in the last bits: a ranking that differs from the oracle's passes
only when every position holds a score within `SCORE_TOL` of the oracle's
score at that position.
"""

from __future__ import annotations

import math

import numpy as np

SCORE_TOL = 1e-12
DIST_ABS_TOL_M = 1e-6
DIST_REL_TOL = 1e-9


class StoreOracle:
    """Column copy of a store, in ascending doc id order."""

    def __init__(self, store, config):
        self.config = config
        self.ids = store.doc_ids()
        n, d = len(self.ids), config.d_text
        self.matrix = np.empty((n, d), dtype=np.float64)
        self.lat = np.zeros(n)
        self.lon = np.zeros(n)
        self.has_point = np.zeros(n, dtype=bool)
        self.credibility = np.zeros(n)
        self.has_window = np.zeros(n, dtype=bool)
        self.start = np.zeros(n)
        self.end = np.zeros(n)
        self.sources = []
        for i, doc_id in enumerate(self.ids):
            rec = store.get(doc_id)
            self.matrix[i] = np.asarray(rec.vector, dtype=np.float32)
            if rec.point is not None:
                self.has_point[i] = True
                self.lat[i], self.lon[i] = rec.point.lat, rec.point.lon
            if rec.window is not None:
                self.has_window[i] = True
                self.start[i], self.end[i] = rec.window.start, rec.window.end
            self.credibility[i] = rec.credibility
            self.sources.append(rec.source)
        self.position = {doc_id: i for i, doc_id in enumerate(self.ids)}

    def _unit_query(self, text_vector) -> np.ndarray:
        q = np.asarray(text_vector, dtype=np.float64).reshape(-1)
        norm = float(np.linalg.norm(q))
        return q / norm if norm > 0.0 else q

    def knn_scores(self, text_vector) -> tuple[np.ndarray, np.ndarray]:
        """(cosine per record, eligibility mask)."""
        return self.matrix @ self._unit_query(text_vector), np.ones(len(self.ids), dtype=bool)

    def hybrid_scores(self, spec) -> tuple[np.ndarray, np.ndarray]:
        """(combined score per record, eligibility mask) for a QuerySpec."""
        w_t, w_s, w_d = spec.weights
        text = self.matrix @ self._unit_query(spec.text_vector)
        eligible = self.credibility >= spec.min_credibility
        if spec.point is None:
            spatial = np.ones(len(self.ids))
        else:
            dist = central_angle(spec.point.lat, spec.point.lon, self.lat, self.lon) * self.config.earth_radius_m
            spatial = np.where(self.has_point, np.exp(-dist / self.config.lambda_m), 0.0)
            if spec.radius_filter is not None:
                eligible &= self.has_point & (dist <= spec.radius_filter)
        if spec.time is None:
            temporal = np.ones(len(self.ids))
        else:
            inside = self.has_window & (self.start <= spec.time) & (spec.time <= self.end)
            temporal = inside.astype(np.float64)
        return w_t * text + w_s * spatial + w_d * temporal, eligible

    @staticmethod
    def top(scores: np.ndarray, eligible: np.ndarray, k: int) -> np.ndarray:
        """Row positions of the k best eligible scores, ties by ascending id."""
        rows = np.flatnonzero(eligible)
        order = np.lexsort((rows, -scores[rows]))
        return rows[order[:k]]

    def check_hits(self, hits, scores: np.ndarray, eligible: np.ndarray, k: int) -> str | None:
        """None when `hits` (ScoredHits) is the oracle's top-k, else why not."""
        want = self.top(scores, eligible, k)
        got_ids = [h.doc_id for h in hits]
        if len(got_ids) != len(want):
            return f"{len(got_ids)} hits, oracle has {len(want)}"
        got = []
        for h in hits:
            row = self.position.get(h.doc_id)
            if row is None or not eligible[row]:
                return f"hit {h.doc_id!r} is not an eligible record"
            if abs(h.combined - scores[row]) > 1e-9:
                return f"hit {h.doc_id!r} score {h.combined!r} != oracle {scores[row]!r}"
            got.append(row)
        if got_ids == [self.ids[r] for r in want]:
            return None
        if len(set(got)) == len(got) and np.all(np.abs(scores[got] - scores[want]) <= SCORE_TOL):
            return None
        return f"ranking {got_ids} != oracle {[self.ids[r] for r in want]}"

    def relevance_filter(self, rows, min_credibility: float, dedup_cosine: float) -> list[int]:
        kept: list[int] = []
        for row in rows:
            if self.credibility[row] < min_credibility:
                continue
            vec = self.matrix[row]
            if any(float(np.dot(vec, self.matrix[k])) >= dedup_cosine for k in kept):
                continue
            kept.append(row)
        return kept


def unit_vectors(lat_deg, lon_deg) -> np.ndarray:
    phi, lam = np.radians(lat_deg), np.radians(lon_deg)
    return np.stack([np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)], axis=-1)


def central_angle(lat0, lon0, lat, lon) -> np.ndarray:
    """Angle between (lat0, lon0) and each (lat, lon), via atan2(|u x v|, u.v)."""
    u = unit_vectors(lat0, lon0)
    v = unit_vectors(lat, lon)
    return np.arctan2(np.linalg.norm(np.cross(u, v), axis=-1), v @ u)


def distance_matrix_m(lat_a, lon_a, lat_b, lon_b, radius_m: float) -> np.ndarray:
    ua = unit_vectors(np.asarray(lat_a), np.asarray(lon_a))
    ub = unit_vectors(np.asarray(lat_b), np.asarray(lon_b))
    dot = ua @ ub.T
    cross = np.linalg.norm(np.cross(ua[:, None, :], ub[None, :, :]), axis=-1)
    return radius_m * np.arctan2(cross, dot)


def dist_close(a, b) -> np.ndarray:
    return np.abs(np.asarray(a) - np.asarray(b)) <= DIST_ABS_TOL_M + DIST_REL_TOL * np.abs(np.asarray(b))


def representative_points(collection: dict) -> tuple[np.ndarray, np.ndarray]:
    """Point, or mean of a polygon's exterior ring without its closing vertex."""
    lat, lon = [], []
    for feature in collection["features"]:
        geom = feature["geometry"]
        if geom["type"] == "Point":
            x, y = geom["coordinates"]
        else:
            ring = geom["coordinates"][0]
            if ring[0] == ring[-1]:
                ring = ring[:-1]
            x = math.fsum(p[0] for p in ring) / len(ring)
            y = math.fsum(p[1] for p in ring) / len(ring)
        lat.append(y)
        lon.append(x)
    return np.asarray(lat), np.asarray(lon)
