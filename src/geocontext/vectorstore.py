"""Hybrid vector database: standardized vectors plus points and time
windows, searched by a weighted combination of text similarity, spatial
proximity decay, and temporal window overlap.

The store is a set of columns in ascending doc_id order (ids, a float32
vector matrix, points, windows, credibility, source and text), replaced as a
whole. `upsert` buffers a row; the next read folds every buffered row into
new columns at once, so a run of writes costs one merge, not one per write.

Search is exact: every query masks the store by credibility and radius
first, then filters and refines. A located query takes the squared chord
between unit vectors from its point to every row: the chord decides the
radius wherever a proven margin allows and gives an approximate spatial
term. One float32 matrix-vector product gives approximate text scores for
the eligible rows, and only the rows whose approximate combined score comes
within the proven error bounds of the k-th best are rescored exactly (one
float64 dot product per row for text similarity, haversine and exp for
spatial proximity; rows near the radius or the antipode always get the
haversine). The top k of those come
from a partition plus a stable sort of the rows that tie with or beat the
k-th score. Rows are in doc_id order, so ties break on ascending doc_id and
every hit list is reproducible.

Persistence is a little-endian binary format (magic "GCEV") designed for
bit-exact round-trips: vectors are stored and kept in float32. Every score a
query returns is float64 math on those exact values; float32 arithmetic only
decides which rows are worth scoring. `save` writes format version 2, a
column layout in the manner of Apache Arrow
(https://arrow.apache.org/docs/format/Columnar.html), that `load` maps with
`np.frombuffer` and checks a whole column at a time:

- a 64-byte header: "GCEV", u16 version 2, u32 dimension d, u64 record
  count n, then the u64 byte lengths of the doc id, source and text blobs,
  zero-padded;
- n x d little-endian f32 vectors, each of norm 0 or 1 (within rounding);
- n u8 flags: bit 0 the record has a point, bit 1 a time window;
- f64 columns of n values each: latitude, longitude, window start, window
  end, credibility (point and window values of rows without one are
  ignored);
- for doc ids (strictly ascending), sources and texts, in turn: n + 1 u64
  offsets (0 first, the blob length last, never decreasing) into a UTF-8
  blob that holds the strings back to back;
- the `zlib.crc32` of everything before it, as a u32.

Each column starts at a multiple of 64 bytes, after zero padding, so the
mapped vector matrix is aligned for SIMD loads. Version-1 files, one record
after another with u32-length-prefixed strings, are still read.
"""

from __future__ import annotations

import math
import operator
import struct
import threading
import zlib
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import DEFAULT_CONFIG, WEIGHT_TOL, EngineConfig
from .errors import CorruptFile, GeoContextError, InvalidArgument, InvalidVectorDim, InvalidWeights, VersionMismatch
from .geomodel import GeoPoint, TimeWindow
from .georelate import check_radius, haversine_array

MAGIC = b"GCEV"
FORMAT_VERSION = 2

# `_may_rank` copies out the eligible rows for its float32 scores when they
# are at most this share of the store; above it, one float32 product over
# the whole matrix beats the copy. A located radius query at 50,000 x 256
# (2-vCPU Xeon, numpy 2.4, haversine included, medians of 80) took, gathered
# against whole-matrix: 10% eligible, 6.7 against 7.8 ms; 12.5%, 6.7 against
# 7.5; 15%, 6.9 against 7.3; 20%, 8.2 against 7.3; 25%, 9.2 against 7.1.
_GATHER_SHARE = 1 / 6

# Exact text scores widen, and a fold copies, this many rows at a time: the
# 512 KB float64 block stays in cache, and no N x d temporary is ever made.
_WIDEN_ROWS = 256

# Every part of a version-2 file, the header first, fills a whole number of
# these many bytes, so every column starts aligned.
_ALIGN = 64

# The spatial filter (see the comment above `_may_rank`): its margin on the
# central angle in radians, relative and absolute, and the angle beyond which
# (within 0.14 rad, about 900 km, of the query's antipode) a row's distance
# is always computed exactly.
_ARC_MARGIN = 2.0**-36
_FAR = 3.0
_FAR_CHORD2 = (2.0 * math.sin(_FAR / 2.0)) ** 2

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
    """The records, one row each in ascending doc_id order: the whole state
    of a `HybridIndex`, never changed once built (a fold builds new ones)."""

    ids: list[str]
    matrix: np.ndarray  # N x d float32, C-contiguous, aligned, read-only
    norm_max: float  # an upper bound on the row norms of `matrix`, for the float32 error bound
    lat: np.ndarray  # 0.0 without a point
    lon: np.ndarray
    has_point: np.ndarray
    start: np.ndarray  # +inf without a window, so no time falls inside
    end: np.ndarray  # -inf without a window
    credibility: np.ndarray
    source: list[str]
    text: list[str]

    @cached_property
    def unit(self) -> np.ndarray:
        """The points as unit vectors, a 3 x N float64 array of x, y and z
        columns, derived on first use (no file holds them)."""
        return _unit_vectors(self.lat, self.lon)

    @classmethod
    def empty(cls, dim: int) -> "_Columns":
        none = np.empty(0)
        matrix = np.empty((0, dim), dtype=np.float32)
        matrix.setflags(write=False)
        return cls([], matrix, 0.0, none, none, np.empty(0, dtype=bool), none, none, none, [], [])

    def find(self, doc_id: str) -> int:
        """The row of doc_id, or -1."""
        i = bisect_left(self.ids, doc_id)
        return i if i < len(self.ids) and self.ids[i] == doc_id else -1

    def record(self, i: int) -> VectorRecord:
        return VectorRecord(
            doc_id=self.ids[i],
            vector=self.matrix[i],
            point=GeoPoint(float(self.lat[i]), float(self.lon[i])) if self.has_point[i] else None,
            window=TimeWindow(float(self.start[i]), float(self.end[i])) if self.start[i] <= self.end[i] else None,
            credibility=float(self.credibility[i]),
            source=self.source[i],
            text=self.text[i],
        )


class HybridIndex:
    """Exact hybrid search over vector records by one vectorised scan.

    Thread contract: a single lock serializes writes with folds, and every
    read takes the current `_Columns`, which nothing changes afterwards, so
    every query scores a complete pre- or post-upsert state.
    """

    def __init__(self, config: EngineConfig = DEFAULT_CONFIG):
        self.config = config
        self._columns = _Columns.empty(config.d_text)
        # Writes not yet folded into `_columns`: the vector of buffered row m
        # is `_block[m]` (its capacity doubles when full), its other column
        # values are `_pending[m]`, and `_pending_at` maps each buffered id
        # to its last row.
        self._block = np.empty((0, config.d_text), dtype=np.float32)
        self._pending: list[tuple] = []
        self._pending_at: dict[str, int] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._snapshot().ids)

    def doc_ids(self) -> list[str]:
        return list(self._snapshot().ids)

    def get(self, doc_id: str) -> VectorRecord | None:
        cols = self._snapshot()
        i = cols.find(doc_id)
        return cols.record(i) if i >= 0 else None

    def upsert(self, record: VectorRecord) -> bool:
        """Store (replacing any prior record under the same id) and return
        whether a previous record existed. Nonzero vectors are stored
        unit-normalized in float32. A non-finite vector or credibility, or a
        doc id, source or text that is not valid UTF-8 (a lone surrogate),
        raises before anything is stored: `save` could not write it, or
        `load` would reject it."""
        vec = np.asarray(record.vector, dtype=np.float64).reshape(-1)
        if vec.shape != (self.config.d_text,):
            raise InvalidVectorDim(f"vector length {vec.shape[0]} != d_text {self.config.d_text}")
        # The squared norm as `np.linalg.norm` takes it; it is finite unless
        # a component is not finite or the squares overflow (both handled
        # below, so the overflow warning is noise).
        with np.errstate(over="ignore"):
            sq = float(vec.dot(vec))
        if not math.isfinite(sq) and not np.all(np.isfinite(vec)):
            raise InvalidVectorDim("vector has non-finite components")
        if not math.isfinite(record.credibility):
            raise InvalidArgument(f"credibility must be finite, got {record.credibility}")
        for what in ("doc_id", "source", "text"):
            try:
                getattr(record, what).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise InvalidArgument(f"{what} is not valid UTF-8 text: {exc.reason}") from None
        norm = math.sqrt(sq)
        if not 2.0**-500 < norm < 2.0**500 and np.any(vec):
            # Outside (2^-500, 2^500) the float64 sum of squares may have
            # lost bits to underflow or overflowed, so `norm` can be off, 0 or
            # inf: scale by a power of two (exact) to a largest component in
            # [0.5, 1) first. Inside it the sum is a normal float64.
            vec = np.ldexp(vec, -math.frexp(float(np.max(np.abs(vec))))[1])
            norm = math.sqrt(vec.dot(vec))
        if norm > 0.0:
            vec = vec / norm
        return self._append(record.doc_id, vec, record.point, record.window, record.credibility,
                            record.source, record.text)

    def _append(self, doc_id: str, vec: np.ndarray, point: GeoPoint | None, window: TimeWindow | None,
                credibility: float, source: str, text: str) -> bool:
        """Buffer one row, `vec` rounded to float32 into `_block`, and
        return whether doc_id was stored already. Copies no column."""
        values = (
            point is not None,
            point.lat if point is not None else 0.0,
            point.lon if point is not None else 0.0,
            window.start if window is not None else math.inf,
            window.end if window is not None else -math.inf,
            credibility,
            source,
            text,
        )
        with self._lock:
            existed = doc_id in self._pending_at or self._columns.find(doc_id) >= 0
            m = len(self._pending)
            if m == len(self._block):
                grown = np.empty((max(2 * m, 64), self.config.d_text), dtype=np.float32)
                grown[:m] = self._block
                self._block = grown
            self._block[m] = vec
            self._pending.append(values)
            self._pending_at[doc_id] = m
            return existed

    def _snapshot(self) -> _Columns:
        """The current columns, after folding in any buffered writes."""
        with self._lock:
            if self._pending:
                self._columns = self._fold()
                self._block = np.empty((0, self.config.d_text), dtype=np.float32)
                self._pending, self._pending_at = [], {}
            return self._columns

    def _fold(self) -> _Columns:
        """New columns: the current rows whose ids were not written again,
        and the last buffered row of each buffered id, in doc_id order."""
        old, dim = self._columns, self.config.d_text
        new_ids = list(self._pending_at)
        rows = np.fromiter(self._pending_at.values(), dtype=np.intp, count=len(new_ids))
        values = zip(*map(self._pending.__getitem__, rows.tolist()))
        has_point, lat, lon, start, end, credibility, source, text = values
        replaced = [i for i in map(old.find, new_ids) if i >= 0] if old.ids else []
        kept = np.delete(np.arange(len(old.ids)), replaced)
        ids = [old.ids[i] for i in kept.tolist()] + new_ids
        order = sorted(range(len(ids)), key=ids.__getitem__)
        order_at = np.array(order, dtype=np.intp)

        def merge(old_col, new_col):
            return np.concatenate((old_col[kept], np.asarray(new_col, dtype=old_col.dtype)))[order_at]

        def merge_strings(old_col, new_col):
            both = [old_col[i] for i in kept.tolist()] + list(new_col)
            return [both[i] for i in order]

        # Row j of `ids` goes to row dest[j]; the vectors are copied straight
        # into place, `_WIDEN_ROWS` at a time.
        dest = np.empty(len(ids), dtype=np.intp)
        dest[order_at] = np.arange(len(ids))
        matrix = np.empty((len(ids), dim), dtype=np.float32)
        for to, vectors, picked in ((dest[: kept.size], old.matrix, kept), (dest[kept.size :], self._block, rows)):
            for at in range(0, picked.size, _WIDEN_ROWS):
                matrix[to[at : at + _WIDEN_ROWS]] = vectors[picked[at : at + _WIDEN_ROWS]]
        matrix.setflags(write=False)
        written = self._block[: len(self._pending)]
        squares = np.einsum("ij,ij->i", written, written, dtype=np.float64)
        return _Columns(
            ids=[ids[i] for i in order],
            matrix=matrix,
            norm_max=max(old.norm_max, math.sqrt(squares.max())),
            lat=merge(old.lat, lat),
            lon=merge(old.lon, lon),
            has_point=merge(old.has_point, has_point),
            start=merge(old.start, start),
            end=merge(old.end, end),
            credibility=merge(old.credibility, credibility),
            source=merge_strings(old.source, source),
            text=merge_strings(old.text, text),
        )

    def _scan(self, q: QuerySpec) -> list[ScoredHit]:
        """The q.k best eligible records. The credibility and radius masks
        come first; a located query decides the radius, and approximates the
        spatial term, from the chord to each row (`_locate`). Then
        `_may_rank` keeps the eligible rows whose approximate score is
        within its error bound of the k-th best, and only those are scored
        exactly: text similarity is `np.vecdot` on the rows widened to
        float64, one `np.dot` per row, so a row scores the same bits
        whichever rows are scored with it (a BLAS matrix-vector product
        rounds equal rows differently depending on their position, which
        would break ties); spatial proximity is `haversine_array` and
        `np.exp`, which give an element the same bits in any subset. Rows
        are in ascending doc_id order and `_top_k` ranks like a stable sort,
        so ties break on doc_id."""
        qv = np.asarray(q.text_vector, dtype=np.float64).reshape(-1)
        if qv.shape != (self.config.d_text,):
            raise InvalidVectorDim(f"query length {qv.shape[0]} != d_text {self.config.d_text}")
        if not np.all(np.isfinite(qv)):
            raise InvalidVectorDim("query vector has non-finite components")
        norm = float(np.linalg.norm(qv))
        if norm > 0.0:
            qv = qv / norm
        cols = self._snapshot()
        eligible = cols.credibility >= q.min_credibility
        # A query without a point or a time gives every row 1.0 in that term
        # (a view: no array is allocated for it).
        if q.point is None:
            rows = np.flatnonzero(eligible)
            spatial, spatial_err = np.broadcast_to(1.0, rows.shape), 0.0
        else:
            rows, spatial, spatial_err = _locate(cols, q, eligible, self.config)
        temporal = np.broadcast_to(1.0, rows.shape)
        if q.time is not None:
            temporal = ((cols.start[rows] <= q.time) & (q.time <= cols.end[rows])).astype(np.float64)
        w_t, w_s, w_d = q.weights
        keep = _may_rank(cols, rows, qv, q.weights, spatial, spatial_err, temporal, q.k)
        rows, temporal = rows[keep], temporal[keep]
        spatial = spatial[keep] if q.point is None else _proximity(cols, q.point, rows, self.config)[0]
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
        cols = self._snapshot()
        kept: list[ScoredHit] = []
        kept_vecs: list[np.ndarray] = []
        for hit in hits:
            i = cols.find(hit.doc_id)
            if i < 0 or cols.credibility[i] < min_credibility:
                continue
            vec = cols.matrix[i].astype(np.float64)
            if any(float(np.dot(vec, kv)) >= dedup_cosine for kv in kept_vecs):
                continue
            kept.append(hit)
            kept_vecs.append(vec)
        return kept

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the store in the bit-exact binary format, version 2."""
        _write_v2(path, self._snapshot(), self.config.d_text)

    @classmethod
    def load(cls, path: str | Path, config: EngineConfig = DEFAULT_CONFIG) -> "HybridIndex":
        """Read a store file of version 1 or 2; answers every query
        identically to the saved store. Raises CorruptFile (with byte offset)
        for truncation, trailing bytes, a checksum mismatch, text that is
        not UTF-8, a vector that is non-finite or neither zero nor unit, a
        non-finite credibility, an invalid point or window, or a duplicate
        or (version 2) out-of-order doc id; VersionMismatch for an unknown
        format version; InvalidVectorDim for a dimension other than
        config.d_text."""
        data = Path(path).read_bytes()
        reader = _Reader(data)
        magic = reader.take(4, "magic")
        if magic != MAGIC:
            raise CorruptFile(f"bad magic {magic!r}", offset=0)
        version, dim, count = reader.unpack("<HIQ", "header")
        if version not in (1, 2):
            raise VersionMismatch(f"unknown store format version {version}")
        if dim != config.d_text:
            raise InvalidVectorDim(f"store dimension {dim} != configured d_text {config.d_text}")
        store = cls(config)
        if version == 2:
            store._columns = _read_v2(data, dim, count)
        else:
            _read_v1(reader, store, dim, count)
            store._snapshot()
        return store


def _unit_tol(dim: int) -> float:
    """How far the float64 squared norm s of a stored nonzero vector may be
    from 1.

    `upsert` stores r = fl32(fl64(x / N)), N the float64 norm of x (after
    power-of-two scaling, its sum of squares is a normal float64). With
    u = 2^-53: N has relative error at most (d + 2) u, the division adds u
    to each component, so the float64 vector has norm 1 +- (d + 4) u;
    rounding to float32 moves each component by at most 2^-24 of itself
    (or 2^-150 below the float32 normal range), so |r|^2 = 1 +- (2^-23 +
    (2d + 9) u) to first order. Squares of float32 numbers are exact in
    float64, and their sum is within (d + 1) u |r|^2 of |r|^2, so
    |s - 1| <= 2^-23 + (3d + 10) u plus second-order terms below 2^-47.
    2^-22 + (3d + 16) u covers it with 2^-23 to spare. A vector that is
    off by more was not written by `upsert`."""
    return 2.0**-22 + (3 * dim + 16) * 2.0**-53


def _check_vectors(matrix: np.ndarray, at: int) -> np.ndarray:
    """The float64 squared norms of the rows of `matrix`, found in a file at
    byte `at`; CorruptFile at the first row that is not finite (its square
    is then not finite either) or neither zero nor unit."""
    squares = np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64)
    _reject_first(
        (squares != 0.0) & ~(np.abs(squares - 1.0) <= _unit_tol(matrix.shape[1])),
        at, 4 * matrix.shape[1], "vector is non-finite or neither zero nor unit",
    )
    return squares


def _reject_first(bad: np.ndarray, at: int, stride: int, what: str) -> None:
    """CorruptFile at the first row of a column at byte `at` where `bad`
    holds."""
    if bad.any():
        row = int(bad.argmax())
        raise CorruptFile(what, offset=at + stride * row)


def _read_v1(reader: _Reader, store: HybridIndex, dim: int, count: int) -> None:
    """Append the records of a version-1 file, one after another, to
    `store` as `upsert` does, without renormalizing."""
    for _ in range(count):
        record_at = reader.pos
        doc_id = reader.string("doc id")
        if doc_id in store._pending_at:
            raise CorruptFile(f"duplicate doc id {doc_id!r}", offset=record_at)
        vector_at = reader.pos
        vec = np.frombuffer(reader.take(4 * dim, "vector"), dtype="<f4")
        _check_vectors(vec.reshape(1, dim), vector_at)
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
        store._append(doc_id, vec, point, window, credibility, reader.string("source"), reader.string("text"))
    if reader.pos != len(reader.data):
        raise CorruptFile("trailing bytes after last record", offset=reader.pos)


def _v2_layout(dim: int, count: int, string_bytes) -> tuple[list[int], int]:
    """Where each version-2 column starts (vectors, flags, latitude,
    longitude, window start, window end, credibility, then offsets and blob
    for doc ids, sources and texts), and the file size."""
    sizes = [4 * dim * count, count] + [8 * count] * 5
    for nbytes in string_bytes:
        sizes += [8 * (count + 1), nbytes]
    starts, at = [], _ALIGN
    for size in sizes:
        starts.append(at)
        at += size + -size % _ALIGN
    return starts, at + 4


def _write_v2(path: str | Path, cols: _Columns, dim: int) -> None:
    n = len(cols.ids)
    columns = [np.asarray(cols.matrix, dtype="<f4"),
               cols.has_point.astype(np.uint8) | (cols.start <= cols.end).astype(np.uint8) << 1]
    columns += [np.asarray(c, dtype="<f8") for c in (cols.lat, cols.lon, cols.start, cols.end, cols.credibility)]
    blob_sizes = []
    for strings in (cols.ids, cols.source, cols.text):
        encoded = [s.encode("utf-8") for s in strings]
        offsets = np.zeros(n + 1, dtype="<u8")
        np.cumsum(np.fromiter(map(len, encoded), dtype=np.uint64, count=n), out=offsets[1:])
        columns += [offsets, np.frombuffer(b"".join(encoded), dtype=np.uint8)]
        blob_sizes.append(int(offsets[-1]))
    header = struct.pack("<4sHIQQQQ", MAGIC, FORMAT_VERSION, dim, n, *blob_sizes)
    crc = 0
    with open(path, "wb") as fh:
        for column in [np.frombuffer(header, dtype=np.uint8), *columns]:
            raw = column.reshape(-1).view(np.uint8)
            for part in (raw, bytes(-raw.size % _ALIGN)):
                fh.write(part)
                crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


def _read_v2(data: bytes, dim: int, count: int) -> _Columns:
    """The columns of a version-2 file, checked a whole column at a time
    after the size and the checksum."""
    if len(data) < _ALIGN:
        raise CorruptFile("truncated while reading header", offset=len(data))
    string_bytes = struct.unpack_from("<QQQ", data, 18)
    starts, size = _v2_layout(dim, count, string_bytes)
    if len(data) != size:
        if len(data) > size:
            raise CorruptFile("trailing bytes after the checksum", offset=size)
        raise CorruptFile(f"truncated: the header describes {size} bytes", offset=len(data))
    (crc,) = struct.unpack_from("<I", data, size - 4)
    if zlib.crc32(memoryview(data)[: size - 4]) != crc:
        raise CorruptFile("checksum mismatch", offset=size - 4)
    vec_at, flags_at, lat_at, lon_at, start_at, end_at, cred_at = starts[:7]
    # frombuffer views: an aligned column needs no copy; require() copies
    # only on a big-endian host or if the buffer were misaligned.
    matrix = np.require(np.frombuffer(data, "<f4", dim * count, vec_at).reshape(count, dim), np.float32, ["C", "A"])
    matrix.setflags(write=False)
    squares = _check_vectors(matrix, vec_at)
    flags = np.frombuffer(data, np.uint8, count, flags_at)
    lat, lon, start, end, credibility = (np.frombuffer(data, "<f8", count, at) for at in starts[2:7])
    has_point, has_window = (flags & 1).astype(bool), (flags & 2).astype(bool)
    _reject_first(flags > 3, flags_at, 1, "unknown flag bits")
    _reject_first(has_point & ~(np.abs(lat) <= 90.0), lat_at, 8, "latitude is not in [-90, 90]")
    _reject_first(has_point & ~np.isfinite(lon), lon_at, 8, "longitude is not finite")
    _reject_first(has_window & ~(np.isfinite(start) & (start <= end) & np.isfinite(end)), start_at, 8,
                  "window is not finite and ordered")
    _reject_first(~np.isfinite(credibility), cred_at, 8, "credibility is not finite")
    ids, source, text = (
        _read_strings(data, starts[k], starts[k + 1], count, nbytes, what)
        for k, nbytes, what in zip((7, 9, 11), string_bytes, ("doc id", "source", "text"))
    )
    if not all(map(operator.lt, ids, ids[1:])):
        row = next(i for i in range(1, count) if not ids[i - 1] < ids[i])
        offsets = np.frombuffer(data, "<u8", count + 1, starts[7])
        raise CorruptFile(f"doc id {ids[row]!r} does not follow {ids[row - 1]!r}",
                          offset=starts[8] + int(offsets[row]))
    return _Columns(
        ids=ids,
        matrix=matrix,
        norm_max=math.sqrt(squares.max()) if count else 0.0,
        lat=np.where(has_point, lat, 0.0),
        lon=np.where(has_point, lon, 0.0),
        has_point=has_point,
        start=np.where(has_window, start, np.inf),
        end=np.where(has_window, end, -np.inf),
        credibility=credibility,
        source=source,
        text=text,
    )


def _read_strings(data: bytes, table_at: int, blob_at: int, count: int, nbytes: int, what: str) -> list[str]:
    """The `count` strings of one version-2 string column."""
    offsets = np.frombuffer(data, "<u8", count + 1, table_at)
    bad = offsets > nbytes
    bad[0] |= offsets[0] != 0
    bad[-1] |= offsets[-1] != nbytes
    bad[1:] |= offsets[1:] < offsets[:-1]
    _reject_first(bad, table_at, 8, f"{what} offset out of order or out of range")
    blob = data[blob_at : blob_at + nbytes]
    try:
        blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptFile(f"{what} is not valid UTF-8", offset=blob_at + exc.start) from None
    # The blob is UTF-8, so a string is too unless its start is a
    # continuation byte (10xxxxxx) of a character that began before it.
    inside = offsets < nbytes
    bad[:] = False
    bad[inside] = np.frombuffer(blob, np.uint8)[offsets[inside].astype(np.intp)] & 0xC0 == 0x80
    _reject_first(bad, table_at, 8, f"{what} offset splits a UTF-8 sequence")
    bounds = offsets.tolist()
    return [blob[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]


def _unit_vectors(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """(x, y, z) of each point on the unit sphere, a 3 x n float64 array;
    NaN for a longitude outside [-180, 180], so the spatial filter leaves
    such a row to the exact path."""
    phi = np.radians(lat)
    lam = np.radians(np.where(np.abs(lon) <= 180.0, lon, np.nan))
    cos_phi = np.cos(phi)
    return np.stack((cos_phi * np.cos(lam), cos_phi * np.sin(lam), np.sin(phi)))


def _proximity(cols: _Columns, point: GeoPoint, rows: np.ndarray, config: EngineConfig):
    """The exact spatial term of `rows` for a located query, exp(-d/lambda)
    (0 for a row without a point), and the distances d."""
    d = haversine_array(point, cols.lat[rows], cols.lon[rows], config.earth_radius_m)
    return np.where(cols.has_point[rows], np.exp(-d / config.lambda_m), 0.0), d


def _locate(cols: _Columns, q: QuerySpec, eligible: np.ndarray, config: EngineConfig):
    """The eligible rows of a located query, after its radius, with an
    approximate spatial term for each and a bound on how far it is from the
    exact one (see the comment above `_may_rank`). The squared chord from
    the query point to every row decides the radius wherever the margin
    allows and gives the approximation; rows in the radius's margin band,
    rows near the antipode and rows with a longitude outside [-180, 180]
    get `_proximity`."""
    scale = config.earth_radius_m / config.lambda_m
    p = _unit_vectors(np.array([q.point.lat]), np.array([q.point.lon]))
    x, y, z = cols.unit
    chord2 = (x - p[0]) ** 2 + (y - p[1]) ** 2 + (z - p[2]) ** 2
    exact_above = _FAR_CHORD2
    if q.radius_filter is not None:
        inside, outside = _radius_cuts(q.radius_filter / config.earth_radius_m)
        eligible &= cols.has_point & ~(chord2 > outside)
        exact_above = min(exact_above, inside)
    rows = np.flatnonzero(eligible)
    chord2 = chord2[rows]
    arc = np.arcsin(np.sqrt(np.minimum(chord2, _FAR_CHORD2)) * 0.5)
    spatial = np.where(cols.has_point[rows], np.exp(arc * (-2.0 * scale)), 0.0)
    exact = np.flatnonzero(~(chord2 <= exact_above))
    if exact.size:
        spatial[exact], d = _proximity(cols, q.point, rows[exact], config)
        if q.radius_filter is not None:
            keep = np.ones(rows.size, dtype=bool)
            keep[exact[d > q.radius_filter]] = False
            rows, spatial = rows[keep], spatial[keep]
    if _ARC_MARGIN * (1.0 + math.pi) * scale <= 0.5:
        spatial_err = 2.0 * _ARC_MARGIN * (scale + 1.0 / math.e) + 2.0**-50
    else:
        spatial_err = 1.0
    return rows, spatial, spatial_err


def _radius_cuts(t: float) -> tuple[float, float]:
    """For a radius of t radians, the squared chords at and below which a
    row is surely inside it (-1 for none) and above which it is surely
    outside (inf for none)."""
    m = _ARC_MARGIN * (1.0 + t)
    inside = (2.0 * math.sin(min(t - m, math.pi) / 2.0)) ** 2 if t - m > 0.0 else -1.0
    outside = (2.0 * math.sin((t + m) / 2.0)) ** 2 if t + m < _FAR - 0.1 else math.inf
    return inside, outside


# Why the spatial filter of `_locate` drops no row that passes the radius or
# can rank. Let u = 2^-53 and theta the central angle between a row's stored
# (lat, lon) and the query point, and assume that np.sin, np.cos, np.arcsin,
# np.arctan2 and np.exp are within 4 ulps. First order in u throughout:
# - The chord. `np.radians` is within 2u relative, so phi is within pi u and
#   lambda (|lon| <= 180) within 2 pi u, and each of x, y, z within
#   3 pi u + 9u < 19u. Two points differ within 66u, so l = sqrt(c) is within
#   66u + 3u l of 2 sin(theta / 2). theta_c = 2 asin(l / 2) moves 1 /
#   cos(theta / 2) per unit of l, at most 14.2 below `_FAR` = 3 rad: theta_c
#   is within 1,100u of theta.
# - `haversine_array`. Its angles are within 3u relative; half of dlambda
#   can be near pi (longitudes near +-180), where sin loses relative but not
#   absolute accuracy, and cos phi near a pole likewise. Then h =
#   sin^2(dphi/2) + cos phi1 cos phi2 sin^2(dlambda/2) is within 42u h +
#   40u sqrt(h) (the cos phi error is bounded through sin^2(dphi/2) <= h),
#   and theta = 2 asin(sqrt(h)) moves 1 / (sin(theta/2) cos(theta/2)) per
#   unit of h, so theta_h = d / R is within 82u / cos(theta / 2) + 10u theta
#   < 1,200u (1 + theta) below `_FAR`.
# So |theta_c - theta_h| < 2^-41 (1 + theta) below `_FAR`. Against a
# 50-digit mpmath reference, over 17,000 random, nearly coincident, +-180
# degree, polar and near-antipodal pairs, the most seen was 9u (1 + theta)
# for either. `_ARC_MARGIN` = 2^-36 is 32 times the derived bound, which also
# leaves the rounding of the cuts (below 2^-48 theta) covered.
#
# A relative margin alone does not do. A pair a few cm apart across +-180
# degrees gets a haversine 1e-4 off relative (1e-15 rad absolute). Near the
# antipode h is within 82u of 1, and theta = pi - 2 acos(sqrt(h)) moves up to
# 2 sqrt(82u) < 2^-22 rad, 0.2 m (1e-8 relative); the chord has the same
# square-root loss. So a row with c above `_FAR_CHORD2` always gets
# haversine_array. It is never inside a radius the chord decides: a radius
# within 0.1 rad of `_FAR`, far above those 2^-22, drops no row by the chord.
#
# The radius, t = r / R and m = `_ARC_MARGIN` (1 + t): a row below `_FAR`
# with theta_c > t + m has d > r, one with theta_c <= t - m has d <= r, so c
# is compared with 4 sin^2((t -+ m) / 2); rows between get haversine_array
# and the exact d <= r, as every row did before.
#
# The spatial term s = exp(-d / lambda), approximated by exp(-(2R / lambda)
# asin(sqrt(c) / 2)). The exponents differ by at most D = m R / lambda (1 +
# theta) plus a few u of themselves, so the terms by at most s D e^D. As
# x e^-x <= 1/e, s D <= `_ARC_MARGIN` (R / lambda + 1/e) (and s times the
# few u of the exponent is below u); while `_ARC_MARGIN` (1 + pi) R / lambda
# <= 1/2, e^D < 2, so spatial_err = 2 `_ARC_MARGIN` (R / lambda + 1/e) +
# 2^-50 (the two exps) bounds |s_approx - s|; otherwise spatial_err = 1
# filters nothing. Rows beyond `_FAR`, in the radius band or without a point
# get the exact term in the approximation.
#
# Why `_may_rank` drops no row that ranks or ties. Let u = 2^-24 (float32
# unit roundoff), R = `_Columns.norm_max` and Q = ||q||. A row r's
# approximate text score a = fl32(r . fl32(q)) sums d float32 products in
# whatever order BLAS picks (blocked, FMA, threaded); the gamma_n bound
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., section
# 3.1) holds for every order, so with the rounding of q to float32
#     |a - r.q| <= (u + gamma_d (1 + u)) sum |r_i q_i| <= (d + 2) u R Q = B,
# the last step by Cauchy-Schwarz and d (d + 2) u <= 1, that is d <= 4094.
# R is measured on the rows rather than taken as 1: unit rows rounded to
# float32 are a few ulps off 1, and any upper bound on the norms will do.
# The rest is float64 (unit roundoff 2^-53). The exact score t of a row is
# within gamma_d R Q of r.q, a combined score w_t x + w_s s + w_d p carries
# at most gamma_3 (w_t |x| + w_s + w_d) of rounding, and a row's exact and
# approximate combined scores C and A share p, and their spatial terms differ
# by at most S = `spatial_err` (0 without a query point, where both are 1).
# With W = max(1, RQ + B),
#     |C - A| <= w_t B + w_s S + e,   e = (d + 14) 2^-53 W.
# Let c_k be the k-th best A. The k rows with A >= c_k have C >= c_k - w_t B
# - w_s S - e. A dropped row has A < c_k - 2 (w_t B + w_s S) - slack, so C <
# c_k - w_t B - w_s S - e whenever slack >= 2e plus the rounding of R, Q, B,
# S and the cut, and plus
# float32 underflow (6d 2^-126 W even with flush-to-zero). slack =
# (d + 16) 2^-50 W is (8d + 128) 2^-53 W, several times that. A dropped row
# is thus strictly below k kept rows: it can neither rank nor tie. Rows
# with R Q >= 2^100 could overflow float32, so the filter then keeps every
# row, as it does for d > 4094 and when no more than k rows are eligible.
def _may_rank(cols: _Columns, rows, qv, weights, spatial, spatial_err: float, temporal, k: int) -> np.ndarray:
    """Positions in `rows` of the rows that can rank in or tie the top k,
    found from float32 text scores, `cols.matrix @ fl32(q)` over the whole
    store or over a copy of the eligible rows when they are at most
    `_GATHER_SHARE` of it, and spatial terms within `spatial_err` of the
    exact ones."""
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
    return np.flatnonzero(approx >= c_k - 2.0 * (w_t * B + w_s * spatial_err) - slack)


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
