"""Independent second implementations used as test oracles.

These deliberately avoid the engine's code paths: geodesy via 3D unit
vectors, polygon containment via winding numbers, geohash via integer
quantization, search via naive full scans over the contract formulas, and
composite vectors by the one-record-at-a-time formula.
"""

from __future__ import annotations

import hashlib
import math
import string

import numpy as np

GEOHASH_BASE32 = "0123456789bcdefghjkmnpqrstuvwxyz"


def unit_vec(lat_deg: float, lon_deg: float) -> np.ndarray:
    phi, lam = math.radians(lat_deg), math.radians(lon_deg)
    return np.array([math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam), math.sin(phi)])


def central_angle_3d(a, b) -> float:
    ua, ub = unit_vec(a.lat, a.lon), unit_vec(b.lat, b.lon)
    return math.atan2(float(np.linalg.norm(np.cross(ua, ub))), float(np.dot(ua, ub)))


def distance_3d(a, b, radius_m: float) -> float:
    return radius_m * central_angle_3d(a, b)


def distance_law_of_cosines(a, b, radius_m: float) -> float:
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dlam = math.radians(b.lon - a.lon)
    c = math.sin(phi1) * math.sin(phi2) + math.cos(phi1) * math.cos(phi2) * math.cos(dlam)
    return radius_m * math.acos(min(1.0, max(-1.0, c)))


def bearing_3d(a, b) -> float:
    """Initial bearing from tangent-plane decomposition at a."""
    ua, ub = unit_vec(a.lat, a.lon), unit_vec(b.lat, b.lon)
    tangent = ub - float(np.dot(ua, ub)) * ua
    east = np.cross(np.array([0.0, 0.0, 1.0]), ua)
    east /= np.linalg.norm(east)
    north = np.cross(ua, east)
    return math.degrees(math.atan2(float(np.dot(tangent, east)), float(np.dot(tangent, north)))) % 360.0


def winding_number_inside(p, ring) -> float:
    """Total signed angle subtended by the ring at p (about +-2pi inside,
    about 0 outside; near pi means on/near the boundary)."""
    verts = list(ring)
    if verts[0] == verts[-1]:
        verts = verts[:-1]
    total = 0.0
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        v1 = (a.lon - p.lon, a.lat - p.lat)
        v2 = (b.lon - p.lon, b.lat - p.lat)
        cross = v1[0] * v2[1] - v1[1] * v2[0]
        dot = v1[0] * v2[0] + v1[1] * v2[1]
        total += math.atan2(cross, dot)
    return total


def geohash_by_quantization(lat: float, lon: float, precision: int) -> str:
    """Geohash from integer cell indices with bit interleaving (lon first)."""
    total_bits = 5 * precision
    lon_bits = (total_bits + 1) // 2
    lat_bits = total_bits // 2
    lon_q = min(int(math.floor((lon + 180.0) / 360.0 * (1 << lon_bits))), (1 << lon_bits) - 1)
    lat_q = min(int(math.floor((lat + 90.0) / 180.0 * (1 << lat_bits))), (1 << lat_bits) - 1)
    bits = []
    for i in range(total_bits):
        if i % 2 == 0:
            lon_bits -= 1
            bits.append((lon_q >> lon_bits) & 1)
        else:
            lat_bits -= 1
            bits.append((lat_q >> lat_bits) & 1)
    chars = []
    for i in range(0, total_bits, 5):
        val = 0
        for b in bits[i : i + 5]:
            val = (val << 1) | b
        chars.append(GEOHASH_BASE32[val])
    return "".join(chars)


def haversine_contract(a, b, radius_m: float) -> float:
    """The contract formula, written out for the search oracle."""
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return radius_m * 2.0 * math.atan2(math.sqrt(h), math.sqrt(1.0 - h))


def oracle_knn(records: dict, query_vec: np.ndarray, k: int) -> list[str]:
    """Naive full scan: cosine over unit-normalized stored vectors."""
    q = np.asarray(query_vec, dtype=np.float64)
    norm = float(np.linalg.norm(q))
    if norm > 0.0:
        q = q / norm
    scored = sorted((-float(np.dot(rec["vec64"], q)), doc_id) for doc_id, rec in records.items())
    return [doc_id for _, doc_id in scored[:k]]


def oracle_hybrid(records: dict, q, config) -> list[str]:
    """Naive full scan over the hybrid score contract.

    records: {doc_id: {"vec64", "point", "window", "credibility"}}.
    """
    qv = np.asarray(q.text_vector, dtype=np.float64)
    norm = float(np.linalg.norm(qv))
    if norm > 0.0:
        qv = qv / norm
    w_t, w_s, w_d = q.weights
    scored = []
    for doc_id, rec in records.items():
        if rec["credibility"] < q.min_credibility:
            continue
        if q.point is not None and rec["point"] is not None:
            d = haversine_contract(q.point, rec["point"], config.earth_radius_m)
            if q.radius_filter is not None and d > q.radius_filter:
                continue
            spatial = math.exp(-d / config.lambda_m)
        elif q.point is None:
            spatial = 1.0
        else:
            if q.radius_filter is not None:
                continue
            spatial = 0.0
        if q.time is None:
            temporal = 1.0
        else:
            window = rec["window"]
            temporal = 1.0 if (window is not None and window.start <= q.time <= window.end) else 0.0
        text_sim = float(np.dot(rec["vec64"], qv))
        combined = w_t * text_sim + w_s * spatial + w_d * temporal
        scored.append((-combined, doc_id))
    scored.sort()
    return [doc_id for _, doc_id in scored[: q.k]]


COMPOSITE_STRIP = string.punctuation + "°“”‘’"


def composite_tokens(text: str) -> list[str]:
    """Whitespace-split words, casefolded and stripped of surrounding
    punctuation; words left empty are dropped."""
    return [t for t in (w.casefold().strip(COMPOSITE_STRIP) for w in text.split()) if t]


def composite_hash_block(tokens, dim: int, seed: int) -> np.ndarray:
    """Signed feature hashing, one token at a time: keyed blake2b, bucket
    h mod dim, +1 if the top bit of h is set and -1 if not, then divided by
    the norm unless zero."""
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    vec = np.zeros(dim)
    for token in tokens:
        h = int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key).digest(), "little")
        vec[h % dim] += 1.0 if (h >> 63) & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def composite_location(lat: float, lon: float, d_loc: int) -> np.ndarray:
    """The multi-scale code, one scalar sin and cos at a time."""
    vec = np.empty(d_loc)
    for k in range(d_loc // 4):
        s_k = float(2**k)
        a_lat = math.pi * lat / s_k
        a_lon = math.pi * lon / s_k
        vec[4 * k : 4 * k + 4] = (math.sin(a_lat), math.cos(a_lat), math.sin(a_lon), math.cos(a_lon))
    return vec


def oracle_composite(landmark, event_text, config, matrix) -> tuple[np.ndarray, ...]:
    """Location, spatial-text, dynamic and standardized vectors of one
    landmark: location code, hash blocks, concatenation with the location
    scaled to unit norm, one `matrix @ x`, normalized unless zero."""
    loc = composite_location(landmark.point.lat, landmark.point.lon, config.d_loc)
    words = f"{landmark.name} {landmark.category} {landmark.description}"
    st = composite_hash_block(composite_tokens(words), config.d_st, config.hash_seed)
    dyn = np.zeros(config.d_dyn)
    if event_text is not None:
        dyn = composite_hash_block(composite_tokens(event_text), config.d_dyn, config.hash_seed)
    projected = matrix @ np.concatenate([loc / math.sqrt(config.d_loc / 2), st, dyn])
    norm = float(np.linalg.norm(projected))
    if norm > 0.0:
        projected /= norm
    return loc, st, dyn, projected


def stored_vector(vec: np.ndarray) -> np.ndarray:
    """What a store keeps of a vector of norm near 1: divided by its
    float64 norm, rounded to float32."""
    return (vec / float(np.linalg.norm(vec))).astype(np.float32)
