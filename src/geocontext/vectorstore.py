"""Hybrid vector database: standardized vectors plus points and time
windows, searched by a weighted combination of text similarity, spatial
proximity decay, and temporal window overlap.

Search is exact: every query masks the store by credibility and radius
first, then scores the eligible rows in one vectorised pass (one dot product
per row for text similarity, haversine and exp for spatial proximity) and
selects the top k with a partition plus a stable sort of the rows that tie
with or beat the k-th score. Rows are in doc_id order, so ties break on
ascending doc_id and every hit list is reproducible.

Persistence is a little-endian binary format (magic "GCEV") designed for
bit-exact round-trips: vectors are stored and kept in float32, and all
similarity math runs in float64 from those exact values.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import DEFAULT_CONFIG, WEIGHT_TOL, EngineConfig
from .errors import CorruptFile, GeoContextError, InvalidArgument, InvalidVectorDim, InvalidWeights, VersionMismatch
from .geomodel import GeoPoint, TimeWindow
from .georelate import check_radius, haversine_array

MAGIC = b"GCEV"
FORMAT_VERSION = 1

# `_scan` copies out and scores only the eligible rows when they are at most
# this share of the store; above it, one `np.vecdot` over the whole matrix
# beats the copy. At 50,000 x 256 (2-vCPU Xeon, numpy 2.4): 10% eligible,
# gathered 3.4 ms against 11.6 ms for the full scan; 25%, 11.3 against
# 11.1 ms; 50%, 30 against 12.8 ms.
_GATHER_SHARE = 1 / 8

GEOHASH_BASE32 = "0123456789bcdefghjkmnpqrstuvwxyz"


def geohash_encode(p: GeoPoint, precision: int) -> str:
    """Standard base-32 geohash via alternating lon/lat bisection."""
    if not 1 <= precision <= 12:
        raise ValueError(f"precision {precision} outside [1, 12]")
    lat_min, lat_max = -90.0, 90.0
    lon_min, lon_max = -180.0, 180.0
    chars = []
    is_lon = True
    val = 0
    bit = 0
    while len(chars) < precision:
        # Boundary ties go to the upper half-cell, matching the reference
        # convention (geohash of (0, 0) starts with "s").
        if is_lon:
            mid = (lon_min + lon_max) / 2.0
            if p.lon >= mid:
                val = (val << 1) | 1
                lon_min = mid
            else:
                val <<= 1
                lon_max = mid
        else:
            mid = (lat_min + lat_max) / 2.0
            if p.lat >= mid:
                val = (val << 1) | 1
                lat_min = mid
            else:
                val <<= 1
                lat_max = mid
        is_lon = not is_lon
        bit += 1
        if bit == 5:
            chars.append(GEOHASH_BASE32[val])
            val = 0
            bit = 0
    return "".join(chars)


@dataclass(frozen=True, eq=False)
class VectorRecord:
    doc_id: str
    vector: np.ndarray
    point: GeoPoint | None = None
    window: TimeWindow | None = None
    credibility: float = 1.0
    source: str = ""
    text: str = ""


@dataclass(frozen=True, eq=False)
class QuerySpec:
    text_vector: np.ndarray
    point: GeoPoint | None = None
    time: float | None = None
    k: int = 10
    weights: tuple[float, float, float] = DEFAULT_CONFIG.weights
    radius_filter: float | None = None
    min_credibility: float = 0.0

    def __post_init__(self):
        w_t, w_s, w_d = self.weights
        if not all(math.isfinite(w) and w >= 0 for w in self.weights) or abs(w_t + w_s + w_d - 1.0) > WEIGHT_TOL:
            raise InvalidWeights(f"weights {self.weights} must be finite, nonnegative and sum to 1")
        if self.k < 1:
            raise InvalidArgument(f"k must be >= 1, got {self.k}")
        if self.radius_filter is not None:
            if self.point is None:
                raise ValueError("radius_filter requires a query point")
            check_radius(self.radius_filter)


@dataclass(frozen=True)
class ScoredHit:
    doc_id: str
    combined: float
    text_sim: float
    spatial_prox: float
    temporal_rel: float


@dataclass(frozen=True, eq=False)
class _Columns:
    """Column copy of the records, one row per record in ascending doc_id
    order, that `HybridIndex` scores queries against."""

    ids: list[str]
    matrix: np.ndarray  # N x d float64, widened from the stored float32
    lat: np.ndarray
    lon: np.ndarray
    has_point: np.ndarray
    start: np.ndarray  # +inf without a window, so no time falls inside
    end: np.ndarray  # -inf without a window
    credibility: np.ndarray

    @classmethod
    def build(cls, records: dict[str, VectorRecord], dim: int) -> "_Columns":
        ids = sorted(records)
        rows = [records[doc_id] for doc_id in ids]
        return cls(
            ids=ids,
            matrix=np.array([r.vector for r in rows], dtype=np.float64).reshape(len(rows), dim),
            lat=np.array([r.point.lat if r.point is not None else 0.0 for r in rows], dtype=np.float64),
            lon=np.array([r.point.lon if r.point is not None else 0.0 for r in rows], dtype=np.float64),
            has_point=np.array([r.point is not None for r in rows], dtype=bool),
            start=np.array([r.window.start if r.window is not None else np.inf for r in rows], dtype=np.float64),
            end=np.array([r.window.end if r.window is not None else -np.inf for r in rows], dtype=np.float64),
            credibility=np.array([r.credibility for r in rows], dtype=np.float64),
        )


class HybridIndex:
    """Exact hybrid search over vector records by one vectorised scan.

    Thread contract: a single lock serializes writes with snapshot builds,
    so every query scores a complete pre- or post-upsert state.
    """

    def __init__(self, config: EngineConfig = DEFAULT_CONFIG):
        self.config = config
        self._records: dict[str, VectorRecord] = {}
        self._columns: _Columns | None = None  # built on the first read after a write
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def doc_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._records)

    def get(self, doc_id: str) -> VectorRecord | None:
        with self._lock:
            return self._records.get(doc_id)

    def upsert(self, record: VectorRecord) -> bool:
        """Store (replacing any prior record under the same id) and return
        whether a previous record existed. Nonzero vectors are stored
        unit-normalized in float32."""
        vec = np.asarray(record.vector, dtype=np.float64).reshape(-1)
        if vec.shape != (self.config.d_text,):
            raise InvalidVectorDim(f"vector length {vec.shape[0]} != d_text {self.config.d_text}")
        if not np.all(np.isfinite(vec)):
            raise InvalidVectorDim("vector has non-finite components")
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec = vec / norm
        vec32 = vec.astype(np.float32)
        vec32.setflags(write=False)

        stored = replace(record, vector=vec32)
        with self._lock:
            existed = record.doc_id in self._records
            self._records[record.doc_id] = stored
            self._columns = None
            return existed

    def _scan(self, q: QuerySpec) -> list[ScoredHit]:
        """The q.k best eligible records. The credibility and radius masks
        come first; when at most `_GATHER_SHARE` of the rows pass them, only
        those rows are scored. Text similarity is `np.vecdot`, one `np.dot`
        per row, so a row scores the same bits gathered or not: a BLAS
        matrix-vector product rounds equal rows differently depending on
        their position, which would break ties. Rows are in ascending doc_id
        order and `_top_k` ranks like a stable sort, so ties break on doc_id."""
        qv = np.asarray(q.text_vector, dtype=np.float64).reshape(-1)
        if qv.shape != (self.config.d_text,):
            raise InvalidVectorDim(f"query length {qv.shape[0]} != d_text {self.config.d_text}")
        if not np.all(np.isfinite(qv)):
            raise InvalidVectorDim("query vector has non-finite components")
        norm = float(np.linalg.norm(qv))
        if norm > 0.0:
            qv = qv / norm
        with self._lock:
            if self._columns is None:
                self._columns = _Columns.build(self._records, self.config.d_text)
            cols = self._columns
        eligible = cols.credibility >= q.min_credibility
        if q.point is not None:
            d = haversine_array(q.point, cols.lat, cols.lon, self.config.earth_radius_m)
            if q.radius_filter is not None:
                eligible &= cols.has_point & (d <= q.radius_filter)
        rows = np.flatnonzero(eligible)
        if rows.size <= _GATHER_SHARE * len(cols.ids):
            text = np.vecdot(cols.matrix[rows], qv)
        else:
            text = np.vecdot(cols.matrix, qv)[rows]
        # A query without a point or a time gives every row 1.0 in that term.
        spatial = temporal = 1.0
        if q.point is not None:
            spatial = np.where(cols.has_point[rows], np.exp(-d[rows] / self.config.lambda_m), 0.0)
        if q.time is not None:
            temporal = ((cols.start[rows] <= q.time) & (q.time <= cols.end[rows])).astype(np.float64)
        w_t, w_s, w_d = q.weights
        combined = w_t * text + w_s * spatial + w_d * temporal
        spatial, temporal = np.broadcast_to(spatial, text.shape), np.broadcast_to(temporal, text.shape)
        return [
            ScoredHit(cols.ids[rows[i]], float(combined[i]), float(text[i]), float(spatial[i]), float(temporal[i]))
            for i in _top_k(combined, q.k)
        ]

    def knn(self, text_vector, k: int) -> list[ScoredHit]:
        """Exact top-k by cosine similarity, ties by ascending doc_id."""
        spec = QuerySpec(text_vector=text_vector, k=k, weights=(1.0, 0.0, 0.0), min_credibility=-math.inf)
        return [replace(hit, spatial_prox=0.0, temporal_rel=0.0) for hit in self._scan(spec)]

    def hybrid_search(self, q: QuerySpec) -> list[ScoredHit]:
        """Weighted text + spatial + temporal ranking, exact top-k.

        Component rules: spatial proximity is exp(-d/lambda) between a
        located query and a located record, and 0 for an unlocated record
        (strictly non-local), which a radius filter excludes. When the
        query itself has no point, spatial proximity is 1 for every record,
        which ranks identically to redistributing w_s over the other
        weights. Temporal relevance is 1 iff the query time falls in the
        record window; with no query time it is 1 for all.
        """
        return self._scan(q)

    def relevance_filter(
        self,
        hits: list[ScoredHit],
        min_credibility: float,
        dedup_cosine: float,
    ) -> list[ScoredHit]:
        """Drop low-credibility hits, then scan in rank order keeping a hit
        only if its vector's cosine to every kept hit is below the dedup
        threshold."""
        if not 0.0 < dedup_cosine <= 1.0:
            raise ValueError(f"dedup_cosine {dedup_cosine} outside (0, 1]")
        kept: list[ScoredHit] = []
        kept_vecs: list[np.ndarray] = []
        with self._lock:
            for hit in hits:
                rec = self._records.get(hit.doc_id)
                if rec is None or rec.credibility < min_credibility:
                    continue
                vec = rec.vector.astype(np.float64)
                if any(float(np.dot(vec, kv)) >= dedup_cosine for kv in kept_vecs):
                    continue
                kept.append(hit)
                kept_vecs.append(vec)
        return kept

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the store in the bit-exact binary format."""
        with self._lock:
            records = [self._records[doc_id] for doc_id in sorted(self._records)]
        out = bytearray(MAGIC)
        out += struct.pack("<HIQ", FORMAT_VERSION, self.config.d_text, len(records))
        for rec in records:
            flags = (1 if rec.point is not None else 0) | (2 if rec.window is not None else 0)
            out += _prefixed(rec.doc_id)
            out += rec.vector.astype("<f4").tobytes()
            out += struct.pack("<B", flags)
            if rec.point is not None:
                out += struct.pack("<dd", rec.point.lat, rec.point.lon)
            if rec.window is not None:
                out += struct.pack("<dd", rec.window.start, rec.window.end)
            out += struct.pack("<d", rec.credibility)
            out += _prefixed(rec.source)
            out += _prefixed(rec.text)
        Path(path).write_bytes(out)

    @classmethod
    def load(cls, path: str | Path, config: EngineConfig = DEFAULT_CONFIG) -> "HybridIndex":
        """Read a store file; answers every query identically to the saved
        store. Raises CorruptFile (with byte offset) for truncation, trailing
        bytes, text that is not UTF-8, a non-finite vector component or
        credibility, an invalid point or window, or a duplicate doc id;
        VersionMismatch for an unknown format version."""
        data = Path(path).read_bytes()
        reader = _Reader(data)
        magic = reader.take(4, "magic")
        if magic != MAGIC:
            raise CorruptFile(f"bad magic {magic!r}", offset=0)
        version, dim, count = reader.unpack("<HIQ", "header")
        if version != FORMAT_VERSION:
            raise VersionMismatch(f"unknown store format version {version}")
        if dim != config.d_text:
            raise InvalidVectorDim(f"store dimension {dim} != configured d_text {config.d_text}")
        store = cls(config)
        for _ in range(count):
            record_at = reader.pos
            doc_id = reader.string("doc id")
            if doc_id in store._records:
                raise CorruptFile(f"duplicate doc id {doc_id!r}", offset=record_at)
            vector_at = reader.pos
            vec = np.frombuffer(reader.take(4 * dim, "vector"), dtype="<f4").astype(np.float32)
            if not np.all(np.isfinite(vec)):
                raise CorruptFile("non-finite vector component", offset=vector_at)
            vec.setflags(write=False)
            (flags,) = reader.unpack("<B", "flags")
            point = window = None
            if flags & 1:
                point = reader.value(GeoPoint, "<dd", "point")
            if flags & 2:
                window = reader.value(TimeWindow, "<dd", "window")
            credibility_at = reader.pos
            (credibility,) = reader.unpack("<d", "credibility")
            if not math.isfinite(credibility):
                raise CorruptFile(f"non-finite credibility {credibility}", offset=credibility_at)
            store._records[doc_id] = VectorRecord(
                doc_id=doc_id,
                vector=vec,
                point=point,
                window=window,
                credibility=credibility,
                source=reader.string("source"),
                text=reader.string("text"),
            )
        if reader.pos != len(data):
            raise CorruptFile("trailing bytes after last record", offset=reader.pos)
        return store


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k highest scores, equal scores in ascending position:
    `np.argsort(-scores, kind="stable")[:k]` for finite scores, but the
    stable sort runs only over the rows at least as good as the k-th best,
    which `np.partition` finds (every row tied with it included). A full
    stable sort of 50,000 scores takes about 7 ms, the partition 0.2 ms."""
    neg = -scores
    if k >= neg.size:
        return np.argsort(neg, kind="stable")
    band = np.flatnonzero(neg <= np.partition(neg, k - 1)[k - 1])
    return band[np.argsort(neg[band], kind="stable")[:k]]


def _prefixed(text: str) -> bytes:
    """A string as the store writes it: u32 byte length, then UTF-8."""
    data = text.encode("utf-8")
    return struct.pack("<I", len(data)) + data


class _Reader:
    """Offset-tracking byte reader that raises CorruptFile on truncation."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptFile(f"truncated while reading {what}", offset=self.pos)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size, what))

    def value(self, cls, fmt: str, what: str):
        """`cls` built from the unpacked fields; a value it rejects (say a NaN
        latitude, or a window start after its end) is CorruptFile at the field."""
        at = self.pos
        fields = self.unpack(fmt, what)
        try:
            return cls(*fields)
        except (GeoContextError, ValueError) as exc:
            raise CorruptFile(f"bad {what}: {exc}", offset=at) from None

    def string(self, what: str) -> str:
        """A u32-length-prefixed UTF-8 string."""
        (n,) = self.unpack("<I", f"{what} length")
        at = self.pos
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFile(f"{what} is not valid UTF-8", offset=at + exc.start) from None
