"""Store files on disk: the version-2 column layout and its checks, and
version-1 compatibility pinned by golden files.

`data/landmarks100_v1.gcev` is the version-1 store that `gce ingest` wrote
for the 100-landmark fixture gazetteer, and `data/landmarks100_v1_queries.json`
the `gce query --json` output of that store for a few prompts, with and
without `--time`, both from the last engine that wrote version 1.
`data/landmarks100_v2.gcev` is the version-2 store that `gce ingest` wrote
for the same gazetteer plus the fixture descriptions (`scripts/make_fixtures.py`
output), before ingest embedded a batch at a time: writing it again must give
the same bytes.
"""

import json
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from storefiles import read_v1, restamp, v2_file

from geocontext import DEFAULT_CONFIG
from geocontext.cli import main
from geocontext.errors import CorruptFile, InvalidVectorDim, VersionMismatch
from geocontext.fixtures import build_landmarks, write_description_fixtures, write_gazetteer_csv
from geocontext.geomodel import GeoPoint, TimeWindow
from geocontext.vectorstore import HybridIndex, QuerySpec, VectorRecord

CFG = DEFAULT_CONFIG
DATA = Path(__file__).parent / "data"
V1_STORE = DATA / "landmarks100_v1.gcev"
V2_STORE = DATA / "landmarks100_v2.gcev"
GOLDEN = json.loads((DATA / "landmarks100_v1_queries.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def gazetteer_csv(tmp_path_factory):
    return write_gazetteer_csv(build_landmarks(100), tmp_path_factory.mktemp("golden") / "gazetteer.csv")


def query_json(store_path, csv_path, case, capsys) -> str:
    argv = ["query", "--store", str(store_path), "--gazetteer", str(csv_path), "--prompt", case["prompt"], "--json"]
    if case["time"] is not None:
        argv += ["--time", repr(case["time"])]
    assert main(argv) == 0
    return capsys.readouterr().out


class TestV1Golden:
    @pytest.mark.parametrize("case", GOLDEN, ids=[f"{c['prompt'][:24]}-{c['time']}" for c in GOLDEN])
    def test_query_output_is_byte_identical(self, gazetteer_csv, case, capsys):
        assert query_json(V1_STORE, gazetteer_csv, case, capsys) == case["stdout"]

    def test_get_returns_the_file_records(self):
        expected = read_v1(V1_STORE)
        store = HybridIndex.load(V1_STORE, CFG)
        assert store.doc_ids() == sorted(expected) and len(store) == len(expected) == 100
        for doc_id, want in expected.items():
            rec = store.get(doc_id)
            assert rec.doc_id == doc_id
            assert rec.vector.dtype == np.float32 and rec.vector.tobytes() == want["vector"].tobytes()
            assert (rec.point.lat, rec.point.lon) == want["point"]
            assert (None if rec.window is None else (rec.window.start, rec.window.end)) == want["window"]
            assert (rec.credibility, rec.source, rec.text) == (want["credibility"], want["source"], want["text"])

    def test_resaved_store_gives_the_same_hits(self, tmp_path, gazetteer_csv, capsys):
        v1 = HybridIndex.load(V1_STORE, CFG)
        path = tmp_path / "resaved.gcev"
        v1.save(path)
        resaved = HybridIndex.load(path, CFG)
        rng = np.random.default_rng(40)
        for _ in range(10):
            qv = rng.standard_normal(CFG.d_text)
            assert v1.knn(qv, 7) == resaved.knn(qv, 7)
            for radius in (None, 3000.0):
                spec = QuerySpec(text_vector=qv, point=GeoPoint(1.3, 103.85), time=1.7e9, k=7, radius_filter=radius)
                assert v1.hybrid_search(spec) == resaved.hybrid_search(spec)
        for case in GOLDEN:
            assert query_json(path, gazetteer_csv, case, capsys) == case["stdout"]


class TestV2Golden:
    def test_ingest_writes_the_golden_bytes(self, tmp_path):
        records = build_landmarks(100)
        csv_path = write_gazetteer_csv(records, tmp_path / "gazetteer.csv")
        write_description_fixtures(records, tmp_path / "descriptions", count=3)
        store = tmp_path / "store.gcev"
        argv = ["ingest", "--gazetteer", str(csv_path), "--fixtures", str(tmp_path / "descriptions"), "--store", str(store)]
        assert main(argv) == 0
        assert store.read_bytes() == V2_STORE.read_bytes()


D = CFG.d_text
INF = math.inf


def unit32(rng):
    v = rng.standard_normal(D)
    return (v / np.linalg.norm(v)).astype(np.float32)


def base_columns() -> dict:
    """Three rows: a point and a window, a point only, neither."""
    rng = np.random.default_rng(50)
    return {
        "vectors": np.array([unit32(rng) for _ in range(3)]),
        "flags": [3, 1, 0],
        "lat": [1.5, -10.0, 0.0],
        "lon": [2.5, 170.0, 0.0],
        "start": [1.0, INF, INF],
        "end": [5.0, -INF, -INF],
        "credibility": [0.5, 1.0, 0.25],
        "ids": [b"a", b"b", b"c"],
        "sources": [b"src", b"s\xc3\xa9", b""],
        "texts": [b"text a", b"t\xc3\xa9xt b", b"c"],
    }


def file_of(cols: dict) -> tuple[bytes, dict[str, int]]:
    return v2_file(
        D, cols["vectors"], cols["flags"],
        [cols[k] for k in ("lat", "lon", "start", "end", "credibility")],
        [cols[k] for k in ("ids", "sources", "texts")],
    )


def replaced(values, row, value):
    out = np.array(values, copy=True) if isinstance(values, np.ndarray) else list(values)
    out[row] = value
    return out


def load_bytes(tmp_path, data: bytes) -> HybridIndex:
    path = tmp_path / "store.gcev"
    path.write_bytes(data)
    return HybridIndex.load(path, CFG)


BASE = base_columns()
NAN_ROW = replaced(BASE["vectors"][1], 3, np.nan)

# name: (changed columns, column whose start the offset counts from, bytes past it)
MALFORMED = {
    "nan-vector": ({"vectors": replaced(BASE["vectors"], 1, NAN_ROW)}, "vectors", 4 * D),
    "non-unit-vector": ({"vectors": replaced(BASE["vectors"], 2, 3 * BASE["vectors"][2])}, "vectors", 8 * D),
    "slightly-non-unit-vector": (
        {"vectors": replaced(BASE["vectors"], 1, (1 + 2.0**-20) * BASE["vectors"][1])}, "vectors", 4 * D),
    "unknown-flag-bit": ({"flags": [3, 1, 4]}, "flags", 2),
    "nan-latitude": ({"lat": replaced(BASE["lat"], 0, math.nan)}, "lat", 0),
    "latitude-out-of-range": ({"lat": replaced(BASE["lat"], 1, -90.5)}, "lat", 8),
    "infinite-longitude": ({"lon": replaced(BASE["lon"], 1, INF)}, "lon", 8),
    "window-reversed": ({"start": replaced(BASE["start"], 0, 9.0)}, "start", 0),
    "window-nan-end": ({"end": replaced(BASE["end"], 0, math.nan)}, "start", 0),
    "nan-credibility": ({"credibility": replaced(BASE["credibility"], 2, math.nan)}, "credibility", 16),
    "inf-credibility": ({"credibility": replaced(BASE["credibility"], 1, -INF)}, "credibility", 8),
    "ids-unsorted": ({"ids": [b"b", b"a", b"c"]}, "ids", 1),
    "ids-duplicate": ({"ids": [b"a", b"c", b"c"]}, "ids", 2),
    "id-not-utf8": ({"ids": [b"a", b"\xff", b"c"]}, "ids", 1),
    "text-not-utf8": ({"texts": [b"text a", b"te\xe9t", b"c"]}, "texts", 6 + 2),
    "offset-splits-utf8": ({"texts": ([0, 7, 8, 9], b"text a\xc3\xa9c")}, "text_offsets", 8),
    "offsets-decrease": ({"ids": ([0, 2, 1, 3], b"abc")}, "id_offsets", 16),
    "offset-past-blob": ({"sources": ([0, 3, 9, 6], b"srcs\xc3\xa9")}, "source_offsets", 16),
    "offsets-start-past-zero": ({"sources": ([1, 3, 5, 6], b"srcs\xc3\xa9")}, "source_offsets", 0),
    "offsets-end-short": ({"sources": ([0, 3, 5, 5], b"srcs\xc3\xa9")}, "source_offsets", 24),
}


class TestV2Format:
    def test_save_writes_the_documented_layout(self, tmp_path):
        # Upserted out of order; rows without a point or window are written
        # as (0, 0) and (+inf, -inf).
        store = HybridIndex(CFG)
        for row in (2, 0, 1):
            has_point, has_window = BASE["flags"][row] & 1, BASE["flags"][row] & 2
            store.upsert(VectorRecord(
                doc_id=BASE["ids"][row].decode(),
                vector=BASE["vectors"][row],
                point=GeoPoint(BASE["lat"][row], BASE["lon"][row]) if has_point else None,
                window=TimeWindow(BASE["start"][row], BASE["end"][row]) if has_window else None,
                credibility=BASE["credibility"][row],
                source=BASE["sources"][row].decode(),
                text=BASE["texts"][row].decode(),
            ))
        cols = dict(BASE, vectors=np.array([store.get(doc_id).vector for doc_id in "abc"]))
        path = tmp_path / "store.gcev"
        store.save(path)
        assert path.read_bytes() == file_of(cols)[0]

    def test_well_formed_file_loads(self, tmp_path):
        store = load_bytes(tmp_path, file_of(BASE)[0])
        assert store.doc_ids() == ["a", "b", "c"]
        a, b, c = (store.get(doc_id) for doc_id in "abc")
        assert a.point == GeoPoint(1.5, 2.5) and a.window == TimeWindow(1.0, 5.0)
        assert b.point == GeoPoint(-10.0, 170.0) and b.window is None and b.source == "sé"
        assert c.point is None and c.window is None and c.text == "c" and c.credibility == 0.25

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_column_raises_corrupt_at_offset(self, tmp_path, name):
        changes, column, past = MALFORMED[name]
        data, starts = file_of(dict(BASE, **changes))
        with pytest.raises(CorruptFile) as err:
            load_bytes(tmp_path, data)
        assert err.value.offset == starts[column] + past

    def test_absent_point_and_window_values_are_ignored(self, tmp_path):
        # Rows whose flags say no point or window may hold anything there:
        # it is neither used nor written back.
        cols = dict(BASE, lat=[1.5, -10.0, math.nan], lon=[2.5, 170.0, 1e300], start=[1.0, 0.0, math.nan],
                    end=[5.0, 9.0, 7.0])
        store = load_bytes(tmp_path, file_of(cols)[0])
        b, c = store.get("b"), store.get("c")
        assert b.window is None and c.point is None and c.window is None
        spec = QuerySpec(text_vector=BASE["vectors"][2], point=GeoPoint(1.5, 2.5), time=4.0, k=3)
        assert {h.doc_id: h.temporal_rel for h in store.hybrid_search(spec)} == {"a": 1.0, "b": 0.0, "c": 0.0}
        store.save(tmp_path / "resaved.gcev")
        assert (tmp_path / "resaved.gcev").read_bytes() == file_of(BASE)[0]

    def test_trailing_bytes_raise_corrupt_at_the_end(self, tmp_path):
        data = file_of(BASE)[0]
        with pytest.raises(CorruptFile) as err:
            load_bytes(tmp_path, data + b"\0")
        assert err.value.offset == len(data)

    def test_checksum_mismatch_raises_corrupt(self, tmp_path):
        data = bytearray(file_of(BASE)[0])
        data[70] ^= 1
        with pytest.raises(CorruptFile) as err:
            load_bytes(tmp_path, bytes(data))
        assert err.value.offset == len(data) - 4

    def test_huge_count_is_rejected_before_allocating(self, tmp_path):
        data = bytearray(file_of(BASE)[0])
        struct.pack_into("<Q", data, 10, 2**50)  # about 2**60 bytes of vectors
        tracemalloc.start()
        try:
            with pytest.raises(CorruptFile):
                load_bytes(tmp_path, restamp(bytes(data)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * len(data), peak

    def test_every_truncation_is_rejected(self, tmp_path):
        data = file_of({k: v[:1] for k, v in BASE.items()})[0]
        assert len(load_bytes(tmp_path, data)) == 1
        for size in range(len(data)):
            with pytest.raises((CorruptFile, VersionMismatch, InvalidVectorDim)):
                load_bytes(tmp_path, data[:size])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_changed_byte_is_rejected(self, tmp_path_factory, data):
        raw = bytearray(file_of(BASE)[0])
        at = data.draw(st.integers(0, len(raw) - 1))
        raw[at] = (raw[at] + data.draw(st.integers(1, 255))) % 256
        with pytest.raises((CorruptFile, VersionMismatch, InvalidVectorDim)):
            load_bytes(tmp_path_factory.mktemp("fuzz"), bytes(raw))

    @pytest.mark.parametrize("version", [1, 2])
    def test_loaded_state_is_aligned_columns(self, tmp_path, version):
        if version == 1:
            store = HybridIndex.load(V1_STORE, CFG)
        else:
            HybridIndex.load(V1_STORE, CFG).save(tmp_path / "v2.gcev")
            store = HybridIndex.load(tmp_path / "v2.gcev", CFG)
        cols = store._columns
        assert store._pending == [] and len(cols.ids) == 100
        assert cols.matrix.dtype == np.float32 and cols.matrix.shape == (100, D)
        assert cols.matrix.flags.aligned and cols.matrix.flags.c_contiguous and not cols.matrix.flags.writeable
        arrays_held = [v for v in vars(cols).values() if isinstance(v, np.ndarray)]
        assert all(a.ndim == 1 for a in arrays_held if a is not cols.matrix)
        lists_held = [v for v in vars(cols).values() if isinstance(v, list)]
        assert all(type(x) is str for values in lists_held for x in values)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ANY_FINITE_VECTOR = st.one_of(
    arrays(np.float64, D, elements=FINITE),
    st.builds(
        lambda seed, exponent: np.ldexp(np.random.default_rng(seed).standard_normal(D), exponent),
        st.integers(0, 2**32 - 1), st.integers(-1100, 1000),
    ),
    st.just(np.zeros(D)),
)


@given(st.lists(ANY_FINITE_VECTOR, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_any_finite_vector_is_stored_unit_and_round_trips(tmp_path_factory, vectors):
    # Zero, subnormal, tiny and huge vectors included: whatever `upsert`
    # stores is zero or unit within the tolerance `load` checks.
    store = HybridIndex(CFG)
    for i, vec in enumerate(vectors):
        store.upsert(VectorRecord(doc_id=f"v{i}", vector=vec))
    path = tmp_path_factory.mktemp("round") / "store.gcev"
    store.save(path)
    loaded = HybridIndex.load(path, CFG)
    for i, vec in enumerate(vectors):
        stored = loaded.get(f"v{i}").vector
        assert stored.tobytes() == store.get(f"v{i}").vector.tobytes()
        squared = float(np.dot(stored.astype(np.float64), stored.astype(np.float64)))
        assert squared == 0.0 if not np.any(vec) else abs(squared - 1.0) <= 2.0**-22
