"""Hybrid vector database: standardized vectors plus points and time
windows, searched by a weighted combination of text similarity, spatial
proximity decay, and temporal window overlap.

Search is exact: every query masks the store by credibility and radius
first, then filters and refines. One float32 matrix-vector product gives
approximate text scores for the eligible rows, and only the rows whose
approximate combined score comes within a proven float32 error bound of the
k-th best are rescored exactly (one float64 dot product per row for text
similarity, haversine and exp for spatial proximity). The top k of those come
from a partition plus a stable sort of the rows that tie with or beat the
k-th score. Rows are in doc_id order, so ties break on ascending doc_id and
every hit list is reproducible.

Persistence is a little-endian binary format (magic "GCEV") designed for
bit-exact round-trips: vectors are stored and kept in float32. Every score a
query returns is float64 math on those exact values; float32 arithmetic only
decides which rows are worth scoring.
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

# `_may_rank` copies out the eligible rows for its float32 scores when they
# are at most this share of the store; above it, one float32 product over
# the whole matrix beats the copy. A located radius query at 50,000 x 256
# (2-vCPU Xeon, numpy 2.4, haversine included, medians of 80) took, gathered
# against whole-matrix: 10% eligible, 6.7 against 7.8 ms; 12.5%, 6.7 against
# 7.5; 15%, 6.9 against 7.3; 20%, 8.2 against 7.3; 25%, 9.2 against 7.1.
_GATHER_SHARE = 1 / 6

# Exact text scores widen this many float32 rows to float64 at a time: the
# 512 KB block stays in cache, and no N x d float64 copy is ever made.
_WIDEN_ROWS = 256

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
        # A NaN time matches no window and a NaN floor no row; -inf is a
        # legal floor (`knn` keeps every row with it).
        if self.time is not None and not math.isfinite(self.time):
            raise InvalidArgument(f"time must be finite, got {self.time}")
        if math.isnan(self.min_credibility) or self.min_credibility == math.inf:
            raise InvalidArgument(f"min_credibility must not be NaN or +inf, got {self.min_credibility}")
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
    matrix: np.ndarray  # N x d float32, the stored vectors themselves
    norm_max: float  # the largest row norm of `matrix`, for the float32 error bound
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
        matrix = np.array([r.vector for r in rows], dtype=np.float32).reshape(len(rows), dim)
        # einsum casts through small buffers, so no float64 copy of `matrix`.
        squares = np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64)
        return cls(
            ids=ids,
            matrix=matrix,
            norm_max=math.sqrt(squares.max()) if len(rows) else 0.0,
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
        come first. Then `_may_rank` keeps the eligible rows whose float32
        approximate score is within its error bound of the k-th best, and
        only those are scored exactly: text similarity is `np.vecdot` on the
        rows widened to float64, one `np.dot` per row, so a row scores the
        same bits whichever rows are scored with it (a BLAS matrix-vector
        product rounds equal rows differently depending on their position,
        which would break ties). Rows are in ascending doc_id order and
        `_top_k` ranks like a stable sort, so ties break on doc_id."""
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
        # A query without a point or a time gives every row 1.0 in that term
        # (a view: no array is allocated for it).
        spatial = temporal = np.broadcast_to(1.0, rows.shape)
        if q.point is not None:
            spatial = np.where(cols.has_point[rows], np.exp(-d[rows] / self.config.lambda_m), 0.0)
        if q.time is not None:
            temporal = ((cols.start[rows] <= q.time) & (q.time <= cols.end[rows])).astype(np.float64)
        w_t, w_s, w_d = q.weights
        keep = _may_rank(cols, rows, qv, q.weights, spatial, temporal, q.k)
        rows, spatial, temporal = rows[keep], spatial[keep], temporal[keep]
        text = _exact_dots(cols.matrix, rows, qv)
        combined = w_t * text + w_s * spatial + w_d * temporal
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


# Why `_may_rank` drops no row that ranks or ties. Let u = 2^-24 (float32
# unit roundoff), R = `_Columns.norm_max` and Q = ||q||. A row r's
# approximate text score a = fl32(r . fl32(q)) sums d float32 products in
# whatever order BLAS picks (blocked, FMA, threaded); the gamma_n bound
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., section
# 3.1) holds for every order, so with the rounding of q to float32
#     |a - r.q| <= (u + gamma_d (1 + u)) sum |r_i q_i| <= (d + 2) u R Q = B,
# the last step by Cauchy-Schwarz and d (d + 2) u <= 1, that is d <= 4094.
# R comes from the snapshot's own rows: a v1 file may hold non-unit vectors.
# The rest is float64 (unit roundoff 2^-53). The exact score t of a row is
# within gamma_d R Q of r.q, a combined score w_t x + w_s s + w_d p carries
# at most gamma_3 (w_t |x| + w_s + w_d) of rounding, and a row's exact and
# approximate combined scores C and A share s and p. With W = max(1, RQ + B),
#     |C - A| <= w_t B + e,   e = (d + 14) 2^-53 W.
# Let c_k be the k-th best A. The k rows with A >= c_k have C >= c_k - w_t B
# - e. A dropped row has A < c_k - 2 w_t B - slack, so C < c_k - w_t B - e
# whenever slack >= 2e plus the rounding of R, Q, B and the cut, and plus
# float32 underflow (6d 2^-126 W even with flush-to-zero). slack =
# (d + 16) 2^-50 W is (8d + 128) 2^-53 W, several times that. A dropped row
# is thus strictly below k kept rows: it can neither rank nor tie. Rows
# with R Q >= 2^100 could overflow float32, so the filter then keeps every
# row, as it does for d > 4094 and when no more than k rows are eligible.
def _may_rank(cols: _Columns, rows, qv, weights, spatial, temporal, k: int) -> np.ndarray:
    """Positions in `rows` of the rows that can rank in or tie the top k,
    found from float32 text scores: `cols.matrix @ fl32(q)` over the whole
    store, or over a copy of the eligible rows when they are at most
    `_GATHER_SHARE` of it."""
    dim, q_norm = qv.size, float(np.linalg.norm(qv))
    if rows.size <= k or dim > 4094 or not cols.norm_max * q_norm < 2.0**100:
        return np.arange(rows.size)
    q32 = qv.astype(np.float32)
    if rows.size <= _GATHER_SHARE * len(cols.ids):
        text = cols.matrix[rows] @ q32
    else:
        text = (cols.matrix @ q32)[rows]
    w_t, w_s, w_d = weights
    approx = w_t * text.astype(np.float64) + w_s * spatial + w_d * temporal
    c_k = np.partition(approx, rows.size - k)[rows.size - k]
    B = (dim + 2) * 2.0**-24 * cols.norm_max * q_norm
    slack = (dim + 16) * 2.0**-50 * max(1.0, cols.norm_max * q_norm + B)
    return np.flatnonzero(approx >= c_k - 2.0 * w_t * B - slack)


def _exact_dots(matrix: np.ndarray, rows: np.ndarray, qv: np.ndarray) -> np.ndarray:
    """`np.vecdot(matrix[rows].astype(np.float64), qv)`, widened
    `_WIDEN_ROWS` rows at a time."""
    out = np.empty(rows.size)
    for at in range(0, rows.size, _WIDEN_ROWS):
        block = rows[at : at + _WIDEN_ROWS]
        out[at : at + _WIDEN_ROWS] = np.vecdot(matrix[block].astype(np.float64), qv)
    return out


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
