import math
import struct
import tempfile
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from oracles import geohash_by_quantization, haversine_contract, oracle_hybrid, oracle_knn
from storefiles import write_v1

from geocontext import DEFAULT_CONFIG, EngineConfig
from geocontext import vectorstore
from geocontext.errors import CorruptFile, InvalidArgument, InvalidVectorDim, InvalidWeights, VersionMismatch
from geocontext.geomodel import GeoPoint, TimeWindow
from geocontext.georelate import haversine_array
from geocontext.vectorstore import (
    HybridIndex,
    QuerySpec,
    ScoredHit,
    VectorRecord,
    geohash_encode,
)

CFG = DEFAULT_CONFIG
D = CFG.d_text


def unit(rng, dim=D):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def record(doc_id, vec, point=None, window=None, credibility=1.0, source="test", text=""):
    return VectorRecord(
        doc_id=doc_id, vector=vec, point=point, window=window,
        credibility=credibility, source=source, text=text or f"text for {doc_id}",
    )


def build_random_store(n, seed=0, with_points=True, with_windows=True):
    rng = np.random.default_rng(seed)
    store = HybridIndex(CFG)
    meta = {}
    for i in range(n):
        point = None
        window = None
        if with_points and i % 4 != 3:  # leave some records unlocated
            point = GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-179, 180)))
        if with_windows and i % 3 == 0:
            start = float(rng.uniform(0, 1e9))
            window = TimeWindow(start, start + float(rng.uniform(0, 1e8)))
        credibility = float(rng.uniform(0, 1))
        rec = record(f"doc{i:04d}", unit(rng), point=point, window=window, credibility=credibility)
        store.upsert(rec)
        meta[rec.doc_id] = {"point": point, "window": window, "credibility": credibility}
    for doc_id, fields in meta.items():
        fields["vec64"] = store.get(doc_id).vector.astype(np.float64)
    return store, meta, rng


HERE = GeoPoint(1.3, 103.8)
TIED = [f"doc{i:03d}" for i in range(2, 203, 5)]  # 41 rows with one vector at HERE
ABOVE = [f"doc{i:03d}" for i in range(13, 203, 50)]  # 4 rows that outscore them


def tied_store(above: bool):
    """203 records inserted in reverse id order: the TIED rows share one
    vector and point; with `above`, the ABOVE rows hold the query vector
    itself at the same point, so they rank over the tied band. Returns the
    store, its oracle metadata and the query vector."""
    rng = np.random.default_rng(24)
    v = unit(rng)
    q = unit(rng) if above else v
    if above:
        v = (q + 0.3 * v) / np.linalg.norm(q + 0.3 * v)
    store = HybridIndex(CFG)
    meta = {}
    for i in reversed(range(203)):
        doc_id = f"doc{i:03d}"
        if doc_id in TIED:
            vec, point = v, HERE
        elif above and doc_id in ABOVE:
            vec, point = q, HERE
        else:
            vec, point = unit(rng), GeoPoint(float(rng.uniform(1.0, 1.6)), float(rng.uniform(103.5, 104.1)))
        store.upsert(record(doc_id, vec, point=point))
        meta[doc_id] = {
            "vec64": store.get(doc_id).vector.astype(np.float64),
            "point": point,
            "window": None,
            "credibility": 1.0,
        }
    return store, meta, q


def full_sort(store, q: QuerySpec) -> list:
    """The first q.k hits of a stable sort by descending score over every
    eligible hit in doc_id order: the ranking rule, applied to the engine's
    own scores without its top-k selection."""
    every = store.hybrid_search(replace(q, k=max(len(store), 1)))
    return sorted(sorted(every, key=lambda h: h.doc_id), key=lambda h: -h.combined)[: q.k]


class TestGeohash:
    def test_origin_golden(self):
        # Derived golden, cross-checked against the quantization oracle.
        assert geohash_encode(GeoPoint(0, 0), 5) == "s0000"

    def test_reference_golden(self):
        assert geohash_encode(GeoPoint(57.64911, 10.40744), 11) == "u4pruydqqvj"

    @given(st.floats(-90, 90, allow_nan=False), st.floats(-180, 180, allow_nan=False),
           st.integers(1, 12))
    @settings(max_examples=200)
    def test_matches_quantization_oracle(self, lat, lon, precision):
        # 6-decimal coordinates: the oracle's float quantization cannot be
        # trusted within ~1e-13 deg of a cell boundary, where exact bisection
        # can; real coordinates are nowhere near that scale.
        p = GeoPoint(round(lat, 6), round(lon, 6))
        assert geohash_encode(p, precision) == geohash_by_quantization(p.lat, p.lon, precision)

    @given(st.floats(-90, 90, allow_nan=False), st.floats(-180, 180, allow_nan=False),
           st.integers(2, 12))
    def test_prefix_property(self, lat, lon, precision):
        p = GeoPoint(lat, lon)
        full = geohash_encode(p, precision)
        for shorter in range(1, precision):
            assert full[:shorter] == geohash_encode(p, shorter)

    def test_precision_validated(self):
        with pytest.raises(ValueError):
            geohash_encode(GeoPoint(0, 0), 0)


class TestUpsert:
    def test_fresh_insert_returns_false(self):
        store = HybridIndex(CFG)
        assert store.upsert(record("a", np.ones(D))) is False

    def test_replacement_returns_true_and_keeps_size(self):
        store = HybridIndex(CFG)
        store.upsert(record("a", np.ones(D)))
        assert store.upsert(record("a", np.ones(D))) is True
        assert len(store) == 1

    def test_wrong_dim_rejected(self):
        store = HybridIndex(CFG)
        with pytest.raises(InvalidVectorDim):
            store.upsert(record("a", np.ones(D + 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector_rejected(self, bad):
        store = HybridIndex(CFG)
        for vec in (np.full(D, bad), np.concatenate([[bad], np.full(D - 1, 1e300)])):
            with pytest.raises(InvalidVectorDim):
                store.upsert(record("a", vec))
        assert len(store) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_credibility_rejected(self, bad, tmp_path):
        store = HybridIndex(CFG)
        store.upsert(record("a", np.ones(D)))
        with pytest.raises(InvalidArgument):
            store.upsert(record("b", np.ones(D), credibility=bad))
        store.save(tmp_path / "s.gcev")
        assert HybridIndex.load(tmp_path / "s.gcev", CFG).doc_ids() == ["a"]

    @pytest.mark.parametrize("field", ["doc_id", "source", "text"])
    def test_lone_surrogate_rejected(self, field, tmp_path):
        store = HybridIndex(CFG)
        store.upsert(record("a", np.ones(D)))
        with pytest.raises(InvalidArgument):
            store.upsert(replace(record("b", np.ones(D)), **{field: "b\ud800"}))
        store.save(tmp_path / "s.gcev")
        assert HybridIndex.load(tmp_path / "s.gcev", CFG).doc_ids() == ["a"]

    def test_vector_stored_unit_norm_f32(self):
        store = HybridIndex(CFG)
        store.upsert(record("a", np.full(D, 3.0)))
        vec = store.get("a").vector
        assert vec.dtype == np.float32
        assert math.isclose(float(np.linalg.norm(vec.astype(np.float64))), 1.0, abs_tol=1e-6)


class TestKnn:
    def test_singleton_store(self):
        store = HybridIndex(CFG)
        rng = np.random.default_rng(1)
        store.upsert(record("only", unit(rng)))
        hits = store.knn(unit(rng), k=3)
        assert [h.doc_id for h in hits] == ["only"]

    def test_self_similarity_is_one(self):
        store = HybridIndex(CFG)
        rng = np.random.default_rng(2)
        v = unit(rng)
        store.upsert(record("a", v))
        store.upsert(record("b", unit(rng)))
        hits = store.knn(v, k=1)
        assert hits[0].doc_id == "a"
        assert hits[0].text_sim == pytest.approx(1.0, abs=1e-6)

    def test_matches_oracle_on_random_store(self):
        store, meta, rng = build_random_store(200, seed=3)
        for _ in range(20):
            q = unit(rng)
            engine = [h.doc_id for h in store.knn(q, 10)]
            assert engine == oracle_knn(meta, q, 10)

    def test_tie_break_by_doc_id(self):
        # A band of 41 equal scores at scattered rows, inserted in reverse id
        # order, with and without rows scored above it; the k-th best score
        # falls before, inside, at either end of, or past the band. knn and
        # hybrid search, with and without a radius, put every tied row in
        # the answer in ascending doc id order.
        for above in (False, True):
            store, meta, q = tied_store(above)
            ranked = (ABOVE if above else []) + TIED
            for k in (1, 10, 40, 41, 42):
                knn = [h.doc_id for h in store.knn(q, k)]
                assert knn == oracle_knn(meta, q, k)
                assert knn[: len(ranked)] == ranked[:k]
                for radius in (None, 500.0):
                    spec = QuerySpec(text_vector=q, point=HERE, k=k, radius_filter=radius)
                    hits = store.hybrid_search(spec)
                    assert hits == full_sort(store, spec)
                    ids = [h.doc_id for h in hits]
                    assert ids == oracle_hybrid(meta, spec, CFG)
                    assert ids[: len(ranked)] == ranked[:k]
                    # Only the tied and ABOVE rows lie within 500 m: k = 42
                    # without ABOVE asks for more rows than are eligible.
                    if radius is not None:
                        assert ids == ranked[:k]

    def test_results_follow_every_upsert(self):
        # Query, then add an id, replace a vector and move a point out of
        # the radius: the next queries see all three writes.
        store, meta, rng = build_random_store(80, seed=25)
        qv = unit(rng)
        specs = [QuerySpec(text_vector=qv, point=GeoPoint(10.0, 20.0), k=10, radius_filter=r) for r in (None, 5e6)]

        def results():
            got = [[h.doc_id for h in store.knn(qv, 10)]] + [[h.doc_id for h in store.hybrid_search(s)] for s in specs]
            assert got == [oracle_knn(meta, qv, 10)] + [oracle_hybrid(meta, s, CFG) for s in specs]
            return got

        def put(doc_id, vec, point, window=None, credibility=1.0):
            store.upsert(record(doc_id, vec, point=point, window=window, credibility=credibility))
            meta[doc_id] = {
                "vec64": store.get(doc_id).vector.astype(np.float64),
                "point": point,
                "window": window,
                "credibility": credibility,
            }

        knn_before, _, radius_before = results()
        replaced = knn_before[0]
        moved = next(doc_id for doc_id in radius_before if doc_id != replaced)
        put("new", qv, GeoPoint(10.0, 20.0))
        old = meta[replaced]
        put(replaced, -qv, old["point"], old["window"], old["credibility"])
        old = meta[moved]
        put(moved, old["vec64"], GeoPoint(-50.0, -100.0), old["window"], old["credibility"])
        knn_after, hybrid_after, radius_after = results()
        assert knn_after[0] == hybrid_after[0] == radius_after[0] == "new"
        assert replaced not in knn_after
        assert moved not in radius_after


class TestHybridSearch:
    def test_degenerate_weights_equal_knn(self):
        store, meta, rng = build_random_store(150, seed=4)
        for _ in range(10):
            q = unit(rng)
            knn_hits = store.knn(q, 12)
            hybrid_hits = store.hybrid_search(
                QuerySpec(text_vector=q, k=12, weights=(1.0, 0.0, 0.0))
            )
            assert [h.doc_id for h in knn_hits] == [h.doc_id for h in hybrid_hits]
            for a, b in zip(knn_hits, hybrid_hits):
                assert a.combined == b.combined

    def test_spatial_only_prefers_near(self):
        store = HybridIndex(CFG)
        rng = np.random.default_rng(5)
        here = GeoPoint(1.3, 103.8)
        away = GeoPoint(1.39, 103.8)  # ~10 km north
        store.upsert(record("near", unit(rng), point=here))
        store.upsert(record("far", unit(rng), point=away))
        hits = store.hybrid_search(QuerySpec(text_vector=unit(rng), point=here, k=2, weights=(0.0, 1.0, 0.0)))
        assert [h.doc_id for h in hits] == ["near", "far"]
        assert hits[0].spatial_prox == pytest.approx(1.0)

    def test_temporal_component(self):
        store = HybridIndex(CFG)
        rng = np.random.default_rng(6)
        v = unit(rng)
        store.upsert(record("windowed", v, window=TimeWindow(100, 200)))
        store.upsert(record("bare", v))
        hits = store.hybrid_search(QuerySpec(text_vector=v, time=150.0, k=2, weights=(0.0, 0.0, 1.0)))
        assert [h.doc_id for h in hits] == ["windowed", "bare"]
        assert hits[0].temporal_rel == 1.0 and hits[1].temporal_rel == 0.0

    def test_min_credibility_excludes(self):
        store = HybridIndex(CFG)
        rng = np.random.default_rng(7)
        v = unit(rng)
        store.upsert(record("trusted", v, credibility=0.9))
        store.upsert(record("dubious", v, credibility=0.1))
        hits = store.hybrid_search(QuerySpec(text_vector=v, k=5, min_credibility=0.5))
        assert [h.doc_id for h in hits] == ["trusted"]

    def test_combined_is_exact_weighted_sum(self):
        store, meta, rng = build_random_store(50, seed=8)
        q = QuerySpec(text_vector=unit(rng), point=GeoPoint(10, 20), time=5e8, k=20)
        for hit in store.hybrid_search(q):
            w_t, w_s, w_d = q.weights
            assert hit.combined == w_t * hit.text_sim + w_s * hit.spatial_prox + w_d * hit.temporal_rel

    def test_matches_oracle_full_scan(self):
        store, meta, rng = build_random_store(200, seed=9)
        for i in range(20):
            q = QuerySpec(
                text_vector=unit(rng),
                point=GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-179, 180))),
                time=float(rng.uniform(0, 1.2e9)) if i % 2 else None,
                k=15,
                min_credibility=float(rng.uniform(0, 0.3)),
            )
            engine = [h.doc_id for h in store.hybrid_search(q)]
            assert engine == oracle_hybrid(meta, q, CFG)

    def test_radius_prefilter_equals_full_scan_oracle(self):
        store, meta, rng = build_random_store(300, seed=10)
        for _ in range(25):
            center = GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-179, 180)))
            radius = float(rng.uniform(1e4, 5e6))
            q = QuerySpec(text_vector=unit(rng), point=center, k=25, radius_filter=radius)
            engine = [h.doc_id for h in store.hybrid_search(q)]
            assert engine == oracle_hybrid(meta, q, CFG)

    def test_unlocated_records_score_zero_against_located_query(self):
        store = HybridIndex(CFG)
        rng = np.random.default_rng(11)
        v = unit(rng)
        store.upsert(record("located", v, point=GeoPoint(0, 0)))
        store.upsert(record("nowhere", v))
        hits = store.hybrid_search(QuerySpec(text_vector=v, point=GeoPoint(0, 0), k=2))
        by_id = {h.doc_id: h for h in hits}
        assert by_id["located"].spatial_prox == pytest.approx(1.0)
        assert by_id["nowhere"].spatial_prox == 0.0

    def test_pointless_query_neutralizes_spatial(self):
        store, meta, rng = build_random_store(40, seed=12)
        hits = store.hybrid_search(QuerySpec(text_vector=unit(rng), k=40))
        assert all(h.spatial_prox == 1.0 for h in hits)

    def test_invalid_weights_rejected(self):
        with pytest.raises(InvalidWeights):
            QuerySpec(text_vector=np.ones(D), weights=(0.5, 0.2, 0.1))
        with pytest.raises(InvalidWeights):
            QuerySpec(text_vector=np.ones(D), weights=(1.5, -0.4, -0.1))
        for weights in ((math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (math.inf, 0.0, 0.0)):
            with pytest.raises(InvalidWeights):
                QuerySpec(text_vector=np.ones(D), weights=weights)

    @pytest.mark.parametrize("radius", [-5.0, math.nan, math.inf])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(InvalidArgument):
            QuerySpec(text_vector=np.ones(D), point=GeoPoint(0, 0), radius_filter=radius)

    @pytest.mark.parametrize(
        "field, value",
        [("time", math.nan), ("time", math.inf), ("time", -math.inf), ("min_credibility", math.nan),
         ("min_credibility", math.inf)],
    )
    def test_non_finite_time_or_credibility_rejected(self, field, value):
        # A NaN time matched no window and a NaN credibility floor no row, so
        # both returned silently wrong hits; -inf stays a legal floor.
        with pytest.raises(InvalidArgument):
            QuerySpec(text_vector=np.ones(D), **{field: value})

    def test_minus_infinity_credibility_floor_keeps_every_row(self):
        store, _, rng = build_random_store(12, seed=13)
        hits = store.hybrid_search(QuerySpec(text_vector=unit(rng), k=20, min_credibility=-math.inf))
        assert len(hits) == 12

    def test_non_finite_query_vector_rejected(self):
        store, _, _ = build_random_store(5, seed=13)
        for bad in (math.nan, math.inf):
            qv = np.ones(D)
            qv[7] = bad
            with pytest.raises(InvalidVectorDim):
                store.knn(qv, 3)

    def test_radius_without_point_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec(text_vector=np.ones(D), radius_filter=100.0)

    def test_wrong_query_dim(self):
        store, _, _ = build_random_store(5, seed=13)
        with pytest.raises(InvalidVectorDim):
            store.hybrid_search(QuerySpec(text_vector=np.ones(D + 1)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_property_degenerate_weights(self, seed):
        store, meta, rng = build_random_store(30, seed=seed)
        q = unit(rng)
        knn_ids = [h.doc_id for h in store.knn(q, 10)]
        hybrid_ids = [h.doc_id for h in store.hybrid_search(QuerySpec(text_vector=q, k=10, weights=(1.0, 0.0, 0.0)))]
        assert knn_ids == hybrid_ids


class TestTopK:
    def test_no_eligible_row(self):
        store, _, q = tied_store(above=True)
        for spec in (
            QuerySpec(text_vector=q, point=GeoPoint(-40.0, -70.0), k=5, radius_filter=1000.0),
            QuerySpec(text_vector=q, k=5, min_credibility=1.5),
        ):
            assert store.hybrid_search(spec) == []
        assert HybridIndex(CFG).knn(q, 3) == []

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_equals_full_stable_sort(self, data):
        # Stores drawn from a few vectors, points, windows and credibilities,
        # so equal scores are common; every query kind and k, including k
        # past the eligible rows, must rank as the full stable sort does.
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(1, 60))
        vectors = [unit(rng) for _ in range(data.draw(st.integers(1, 4)))]
        points = [None, HERE, GeoPoint(1.31, 103.8), GeoPoint(1.5, 104.0)]
        windows = [None, TimeWindow(0.0, 10.0)]
        store = HybridIndex(CFG)
        for i in range(n):
            store.upsert(record(
                f"doc{i:02d}",
                vectors[int(rng.integers(len(vectors)))],
                point=points[int(rng.integers(len(points)))],
                window=windows[int(rng.integers(len(windows)))],
                credibility=float(rng.choice([0.2, 0.6, 1.0])),
            ))
        qv = vectors[0] if data.draw(st.booleans()) else unit(rng)
        k = data.draw(st.integers(1, n + 3))
        spec = QuerySpec(
            text_vector=qv,
            point=data.draw(st.sampled_from([None, HERE, GeoPoint(1.4, 103.9)])),
            time=data.draw(st.sampled_from([None, 5.0, 50.0])),
            k=k,
            weights=data.draw(st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), CFG.weights])),
            min_credibility=data.draw(st.sampled_from([0.0, 0.5, 0.8])),
        )
        if spec.point is not None and data.draw(st.booleans()):
            spec = replace(spec, radius_filter=data.draw(st.sampled_from([0.0, 1500.0, 30_000.0])))
        assert store.hybrid_search(spec) == full_sort(store, spec)
        knn_spec = QuerySpec(text_vector=qv, k=k, weights=(1.0, 0.0, 0.0), min_credibility=-math.inf)
        knn = [(h.doc_id, h.combined, h.text_sim) for h in store.knn(qv, k)]
        assert knn == [(h.doc_id, h.combined, h.text_sim) for h in full_sort(store, knn_spec)]


class TestRadiusPruning:
    """A radius query takes the float32 scores of a copy of its eligible
    rows when they are at most `_GATHER_SHARE` of the store, and of the
    whole matrix above it; both give the same hits, field for field, as the
    full scan."""

    @pytest.mark.parametrize("share", [0.01, 0.05, 0.12, 0.14, 0.16, 0.18, 0.3, 0.6])
    @pytest.mark.parametrize("variant", ["plain", "timed", "credible"])
    def test_pruned_equals_full_scan(self, monkeypatch, share, variant):
        store, meta, rng = build_random_store(400, seed=26)
        centre = GeoPoint(10.0, 20.0)
        ids = store.doc_ids()
        lat = np.array([meta[i]["point"].lat if meta[i]["point"] else 0.0 for i in ids])
        lon = np.array([meta[i]["point"].lon if meta[i]["point"] else 0.0 for i in ids])
        located = np.array([meta[i]["point"] is not None for i in ids])
        d = np.sort(haversine_array(centre, lat, lon, CFG.earth_radius_m)[located])
        # The radius alone keeps about `share` of the rows ("credible" then
        # halves that); the shares fall on both sides of the cut-off.
        radius = float(d[int(share * len(ids))])
        eligible = int(np.count_nonzero(d <= radius))
        assert (eligible <= vectorstore._GATHER_SHARE * len(ids)) == (share < vectorstore._GATHER_SHARE)
        qv = unit(rng)
        # k = 10 filters on float32 scores; k = len(ids) scores every row.
        for k in (10, len(ids)):
            spec = QuerySpec(
                text_vector=qv, point=centre, k=k, radius_filter=radius,
                time=5e8 if variant == "timed" else None,
                min_credibility=0.5 if variant == "credible" else 0.0,
            )
            monkeypatch.undo()
            default = store.hybrid_search(spec)
            assert [h.doc_id for h in default] == oracle_hybrid(meta, spec, CFG)
            monkeypatch.setattr(vectorstore, "_GATHER_SHARE", 0.0)  # always the whole matrix
            full = store.hybrid_search(spec)
            monkeypatch.setattr(vectorstore, "_GATHER_SHARE", 1.0)  # always gather
            gathered = store.hybrid_search(spec)
            assert len(default) > 0
            for a, b, c in zip(default, full, gathered, strict=True):
                for field in ("doc_id", "combined", "text_sim", "spatial_prox", "temporal_rel"):
                    assert getattr(a, field) == getattr(b, field) == getattr(c, field), field


class TestCombinedMonotonicity:
    def test_monotone_in_each_component(self):
        # Vary one component with the other two pinned; ranking must follow it.
        rng = np.random.default_rng(22)
        base = unit(rng)
        # text: same point/window, different similarity to the query
        store = HybridIndex(CFG)
        store.upsert(record("hi", base, point=GeoPoint(0, 0), window=TimeWindow(0, 10)))
        perturbed = base.copy()
        perturbed[:8] = -perturbed[:8]
        store.upsert(record("lo", perturbed, point=GeoPoint(0, 0), window=TimeWindow(0, 10)))
        hits = store.hybrid_search(QuerySpec(text_vector=base, point=GeoPoint(0, 0), time=5.0, k=2))
        assert [h.doc_id for h in hits] == ["hi", "lo"]
        # spatial: same vector/window, different distance
        store = HybridIndex(CFG)
        store.upsert(record("near", base, point=GeoPoint(0, 0), window=TimeWindow(0, 10)))
        store.upsert(record("far", base, point=GeoPoint(0, 0.05), window=TimeWindow(0, 10)))
        hits = store.hybrid_search(QuerySpec(text_vector=base, point=GeoPoint(0, 0), time=5.0, k=2))
        assert [h.doc_id for h in hits] == ["near", "far"]
        # temporal: same vector/point, different window relevance
        store = HybridIndex(CFG)
        store.upsert(record("in", base, point=GeoPoint(0, 0), window=TimeWindow(0, 10)))
        store.upsert(record("out", base, point=GeoPoint(0, 0), window=TimeWindow(20, 30)))
        hits = store.hybrid_search(QuerySpec(text_vector=base, point=GeoPoint(0, 0), time=5.0, k=2))
        assert [h.doc_id for h in hits] == ["in", "out"]


class TestConcurrency:
    def test_concurrent_upserts_and_queries(self):
        # Queries must observe complete records only: every hit's record is
        # fully formed and hit lists are always well-ordered.
        import threading

        store = HybridIndex(CFG)
        rng = np.random.default_rng(33)
        for i in range(50):
            store.upsert(record(f"seed{i}", unit(rng), point=GeoPoint(float(i % 60), float(i))))
        vectors = [unit(np.random.default_rng(1000 + i)) for i in range(50)]
        errors = []

        def writer():
            try:
                for i, vec in enumerate(vectors):
                    store.upsert(record(f"w{i}", vec, point=GeoPoint(1.0, float(i % 170))))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def reader():
            try:
                for i in range(100):
                    hits = store.hybrid_search(
                        QuerySpec(text_vector=vectors[i % len(vectors)], point=GeoPoint(1.0, 2.0), k=10)
                    )
                    combined = [h.combined for h in hits]
                    assert combined == sorted(combined, reverse=True)
                    for h in hits:
                        assert store.get(h.doc_id) is not None
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(store) == 100

    def test_parallel_writers_and_folds_lose_no_write(self):
        # Four writers append to the buffer while two readers fold it, with
        # thread switches forced every microsecond: a row appended during a
        # fold and then dropped with the buffer would go missing here.
        import sys
        import threading

        store = HybridIndex(CFG)
        vectors = [unit(np.random.default_rng(1100 + i)) for i in range(4)]
        errors = []
        done = threading.Event()

        def writer(w):
            try:
                for i in range(150):
                    store.upsert(record(f"w{w}-{i:03d}", vectors[w]))
                    store.upsert(record("shared", vectors[w]))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def reader():
            try:
                while not done.is_set():
                    ids = store.doc_ids()
                    assert ids == sorted(set(ids))
                    store.knn(vectors[0], 3)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
            readers = [threading.Thread(target=reader) for _ in range(2)]
            for t in writers + readers:
                t.start()
            for t in writers:
                t.join(timeout=60)
            done.set()
            for t in readers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + readers)
        assert errors == []
        assert store.doc_ids() == sorted([f"w{w}-{i:03d}" for w in range(4) for i in range(150)] + ["shared"])
        for w in range(4):
            want = (vectors[w] / np.linalg.norm(vectors[w])).astype(np.float32)
            assert np.array_equal(store.get(f"w{w}-149").vector, want)


class TestWritePath:
    """`upsert` buffers rows, and the next read folds them all at once."""

    def test_one_fold_per_read_after_writes(self, monkeypatch):
        folds = []
        fold = HybridIndex._fold
        monkeypatch.setattr(HybridIndex, "_fold", lambda self: folds.append(1) or fold(self))
        rng = np.random.default_rng(36)
        store = HybridIndex(CFG)
        for i in range(300):
            store.upsert(record(f"doc{i:03d}", unit(rng)))
        assert folds == []
        assert len(store) == 300
        assert len(folds) == 1
        store.knn(unit(rng), 3)
        store.get("doc001")
        store.doc_ids()
        assert len(folds) == 1
        assert store.upsert(record("doc005", unit(rng))) is True  # replaces a folded row
        assert store.upsert(record("new", unit(rng))) is False
        assert store.upsert(record("new", unit(rng))) is True  # replaces a buffered row
        assert len(folds) == 1
        assert len(store) == 301 and store.doc_ids()[-1] == "new"
        assert len(folds) == 2

    def test_upsert_copies_no_column(self):
        store, _, rng = build_random_store(2000, seed=35)
        cols = store._columns
        tracemalloc.start()
        try:
            for i in range(0, 100, 2):
                store.upsert(record(f"doc{i:04d}", unit(rng)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert store._columns is cols
        assert peak < cols.matrix.nbytes / 8, peak


def one_row_reference(vec: np.ndarray) -> np.ndarray:
    """What `upsert` stores of one vector, one row at a time: divided by
    `math.sqrt(vec.dot(vec))` after power-of-two scaling outside (2^-500,
    2^500), rounded to float32; zero stays zero."""
    with np.errstate(over="ignore"):
        norm = math.sqrt(float(vec.dot(vec)))
    if not 2.0**-500 < norm < 2.0**500 and np.any(vec):
        vec = np.ldexp(vec, -math.frexp(float(np.max(np.abs(vec))))[1])
        norm = math.sqrt(vec.dot(vec))
    return (vec / norm if norm > 0.0 else vec).astype(np.float32)


# Row scales that reach every case of the norm: zero, subnormal, under
# 2^-500 and over 2^500, squares that overflow, and plain ones.
SCALES = [0.0, 5e-324, 2.0**-1060, 2.0**-600, 2.0**-500, 2.0**500, 2.0**600, 1e300, 1e-3, 3.5]
BAD_ROWS = ["nan credibility", "inf credibility", "nan vector", "inf vector", "doc_id", "source", "text"]


class TestBatchWrite:
    """`_upsert_rows` stores what one `upsert` per row stores, and stops at
    the same row with the same error."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 1023, 1024, 1025]) | st.integers(1, 70),
        seed=st.integers(0, 2**32 - 1),
        scaled=st.lists(st.tuples(st.integers(0, 1024), st.sampled_from(SCALES)), max_size=8),
        repeats=st.lists(st.tuples(st.integers(0, 1024), st.integers(0, 1024)), max_size=3),
        bad=st.none() | st.tuples(st.integers(0, 1024), st.sampled_from(BAD_ROWS)),
        prior=st.integers(0, 3),
    )
    def test_batch_equals_one_upsert_per_row(self, n, seed, scaled, repeats, bad, prior):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((n, D))
        ids = [f"doc{i:04d}" for i in range(n)]
        for i, scale in scaled:
            vectors[i % n] = rng.standard_normal(D) * scale
        for i, j in repeats:  # an id written twice in one batch
            ids[j % n] = ids[i % n]
        points = [GeoPoint(float(lat), float(lon)) if lat > 0 else None
                  for lat, lon in rng.uniform(-80, 80, (n, 2))]
        windows = [TimeWindow(float(t), float(t) + 10.0) if t > 50 else None for t in rng.uniform(0, 100, n)]
        credibility = rng.uniform(0, 1, n).tolist()
        sources = rng.choice(["", "src", "sé"], n).tolist()
        texts = [f"text {i} é" for i in range(n)]
        if bad is not None:
            at, kind = bad[0] % n, bad[1]
            if kind.endswith("credibility"):
                credibility[at] = float(kind.split()[0])
            elif kind.endswith("vector"):
                vectors[at, at % D] = float(kind.split()[0])
            else:
                {"doc_id": ids, "source": sources, "text": texts}[kind][at] += "\udcff"
        # Rows already folded into the store, some under ids of the batch.
        stores = []
        for _ in range(2):
            store = HybridIndex(CFG)
            for i in range(prior):
                store.upsert(record(f"doc{2 * i:04d}", unit(np.random.default_rng(i))))
            store.doc_ids()
            stores.append(store)
        batch, each = stores

        stop, want_error = n, None
        for i, row in enumerate(zip(ids, vectors, points, windows, credibility, sources, texts)):
            try:
                each.upsert(VectorRecord(*row))
            except (InvalidArgument, InvalidVectorDim) as exc:
                stop, want_error = i, exc
                break
        if want_error is None:
            batch._upsert_rows(ids, vectors, points, windows, credibility, sources, texts)
        else:
            with pytest.raises(type(want_error)) as err:
                batch._upsert_rows(ids, vectors, points, windows, credibility, sources, texts)
            assert str(err.value) == str(want_error)

        assert batch.doc_ids() == each.doc_ids() == sorted({f"doc{2 * i:04d}" for i in range(prior)} | set(ids[:stop]))
        last = {doc_id: i for i, doc_id in enumerate(ids[:stop])}
        for doc_id in batch.doc_ids():
            got, want = batch.get(doc_id), each.get(doc_id)
            assert got.vector.tobytes() == want.vector.tobytes()
            assert (got.point, got.window, got.source, got.text) == (want.point, want.window, want.source, want.text)
            assert struct.pack("<d", got.credibility) == struct.pack("<d", want.credibility)
            if doc_id in last:
                assert got.vector.tobytes() == one_row_reference(vectors[last[doc_id]]).tobytes()
        with tempfile.TemporaryDirectory() as tmp:
            batch.save(Path(tmp) / "batch.gcev")
            each.save(Path(tmp) / "each.gcev")
            assert (Path(tmp) / "batch.gcev").read_bytes() == (Path(tmp) / "each.gcev").read_bytes()

    def test_block_capacity_doubles_as_one_row_at_a_time(self):
        rng = np.random.default_rng(41)
        for sizes in ([1], [64], [65], [1000, 1000], [1, 1023, 1025, 3]):
            store = HybridIndex(CFG)
            capacities = []
            for size in sizes:
                at = len(store._pending)
                store._upsert_rows([f"d{at + i}" for i in range(size)], rng.standard_normal((size, D)),
                                   [None] * size, [None] * size, [1.0] * size, [""] * size, [""] * size)
                capacities.append(len(store._block))
            want = [64 * 2 ** max(0, math.ceil(math.log2(sum(sizes[: i + 1]) / 64))) for i in range(len(sizes))]
            assert capacities == want, sizes


POOL = [unit(np.random.default_rng(100 + i)) for i in range(5)]
POINTS = [None, HERE, GeoPoint(1.31, 103.8), GeoPoint(-33.9, 151.2)]
WINDOWS = [None, TimeWindow(0.0, 10.0), TimeWindow(5.0, 50.0)]
IDS = st.text(st.characters(codec="utf-8"), min_size=1, max_size=6)


class StoreMachine(RuleBasedStateMachine):
    """Every write path and read of a store against a dict of the records
    `get` must return, ranked by the naive oracles."""

    def __init__(self):
        super().__init__()
        self.store = HybridIndex(CFG)
        self.model: dict[str, VectorRecord] = {}
        self.dir = tempfile.TemporaryDirectory()

    def teardown(self):
        self.dir.cleanup()

    def put(self, doc_id, data) -> bool:
        vec = POOL[data.draw(st.integers(0, len(POOL) - 1))] * data.draw(st.sampled_from([1.0, 3.5, 1e-3]))
        rec = record(
            doc_id, vec,
            point=data.draw(st.sampled_from(POINTS)),
            window=data.draw(st.sampled_from(WINDOWS)),
            credibility=data.draw(st.sampled_from([0.2, 0.6, 1.0])),
            source=data.draw(st.sampled_from(["", "src", "sé"])),
            text=data.draw(st.text(max_size=5)),
        )
        existed = self.store.upsert(rec)
        self.model[doc_id] = replace(rec, vector=(vec / np.linalg.norm(vec)).astype(np.float32))
        return existed

    def meta(self):
        return {
            doc_id: {"vec64": rec.vector.astype(np.float64), "point": rec.point, "window": rec.window,
                     "credibility": rec.credibility}
            for doc_id, rec in self.model.items()
        }

    def query_vector(self, data):
        return data.draw(st.sampled_from(POOL)) if data.draw(st.booleans()) else unit(np.random.default_rng(
            data.draw(st.integers(0, 2**32 - 1))))

    @rule(data=st.data())
    def upsert_new(self, data):
        doc_id = data.draw(IDS.filter(lambda i: i not in self.model))
        assert self.put(doc_id, data) is False

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def upsert_existing(self, data):
        doc_id = data.draw(st.sampled_from(sorted(self.model)))
        assert self.put(doc_id, data) is True

    @rule(data=st.data())
    def get(self, data):
        doc_id = data.draw(st.sampled_from(sorted(self.model)) if self.model and data.draw(st.booleans()) else IDS)
        got, want = self.store.get(doc_id), self.model.get(doc_id)
        if want is None:
            assert got is None
            return
        assert got.vector.dtype == np.float32 and got.vector.tobytes() == want.vector.tobytes()
        assert (got.doc_id, got.point, got.window, got.credibility, got.source, got.text) == (
            want.doc_id, want.point, want.window, want.credibility, want.source, want.text)

    @rule()
    def size_and_ids(self):
        assert len(self.store) == len(self.model)
        assert self.store.doc_ids() == sorted(self.model)
        # `_may_rank`'s error bound needs an upper bound on the row norms, up
        # to the rounding of a float64 sum that its slack covers.
        matrix = self.store._columns.matrix.astype(np.float64)
        assert self.store._columns.norm_max >= max(np.linalg.norm(matrix, axis=1), default=0.0) * (1 - 2.0**-40)

    @rule(data=st.data(), k=st.integers(1, 8))
    def knn(self, data, k):
        qv = self.query_vector(data)
        assert [h.doc_id for h in self.store.knn(qv, k)] == oracle_knn(self.meta(), qv, k)

    @rule(data=st.data(), k=st.integers(1, 8))
    def hybrid_search(self, data, k):
        spec = QuerySpec(
            text_vector=self.query_vector(data),
            point=data.draw(st.sampled_from(POINTS)),
            time=data.draw(st.sampled_from([None, 7.0, 20.0])),
            k=k,
            min_credibility=data.draw(st.sampled_from([0.0, 0.5])),
        )
        if spec.point is not None and data.draw(st.booleans()):
            spec = replace(spec, radius_filter=5000.0)
        assert [h.doc_id for h in self.store.hybrid_search(spec)] == oracle_hybrid(self.meta(), spec, CFG)

    @rule(data=st.data(), min_credibility=st.sampled_from([0.0, 0.5]), dedup=st.sampled_from([0.9, 1.0]))
    def relevance_filter(self, data, min_credibility, dedup):
        hits = self.store.knn(self.query_vector(data), 8)
        kept, kept_vecs = [], []
        for hit in hits:
            rec = self.model[hit.doc_id]
            vec = rec.vector.astype(np.float64)
            if rec.credibility >= min_credibility and all(float(np.dot(vec, v)) < dedup for v in kept_vecs):
                kept.append(hit)
                kept_vecs.append(vec)
        assert self.store.relevance_filter(hits, min_credibility, dedup) == kept

    @rule()
    def save_then_load(self):
        path = Path(self.dir.name) / "store.gcev"
        self.store.save(path)
        self.store = HybridIndex.load(path, CFG)


StoreMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)
TestStoreMachine = StoreMachine.TestCase


class TestRelevanceFilter:
    def test_passthrough_when_clean(self):
        store, meta, rng = build_random_store(20, seed=14)
        hits = store.knn(unit(rng), 10)
        kept = store.relevance_filter(hits, min_credibility=0.0, dedup_cosine=0.999)
        assert [h.doc_id for h in kept] == [h.doc_id for h in hits]

    def test_duplicate_vectors_deduped(self):
        store = HybridIndex(CFG)
        rng = np.random.default_rng(15)
        v = unit(rng)
        store.upsert(record("first", v))
        store.upsert(record("second", v))
        hits = store.knn(v, 2)
        kept = store.relevance_filter(hits, min_credibility=0.0, dedup_cosine=0.95)
        assert [h.doc_id for h in kept] == ["first"]

    def test_hand_computed_survivors(self):
        # Five 2-group records: a,b,c nearly identical; d,e distinct.
        store = HybridIndex(CFG)
        rng = np.random.default_rng(16)
        base = unit(rng)
        bump = np.zeros(D)
        bump[0] = 0.01
        for doc_id, vec, cred in [
            ("a", base, 1.0),
            ("b", base + bump, 1.0),
            ("c", base - bump, 1.0),
            ("d", unit(rng), 1.0),
            ("e", unit(rng), 0.2),
        ]:
            store.upsert(record(doc_id, vec, credibility=cred))
        hits = store.knn(base, 5)
        kept = store.relevance_filter(hits, min_credibility=0.5, dedup_cosine=0.95)
        assert [h.doc_id for h in kept] == ["a", "d"]

    def test_threshold_validated(self):
        store, _, _ = build_random_store(3, seed=17)
        with pytest.raises(ValueError):
            store.relevance_filter([], min_credibility=0.0, dedup_cosine=0.0)


UNIT = np.full(D, 1.0 / math.sqrt(D), dtype=np.float32)
NAN_VEC = UNIT.copy()
NAN_VEC[3] = np.nan
FIRST = (b"a", UNIT, 1.0, b"src", b"text")
SECOND_AT = 18 + 4 + 1 + 4 * D + 1 + 8 + 4 + 3 + 4 + 4  # header, then FIRST
VECTOR_AT = SECOND_AT + 4 + 1  # the vector of a second record with a 1-byte id
CREDIBILITY_AT = VECTOR_AT + 4 * D + 1  # also where a flagged point or window starts


class TestPersistence:
    @pytest.mark.parametrize(
        "second, offset",
        [
            ((b"\xff", UNIT, 1.0, b"src", b"text"), SECOND_AT + 4),
            ((b"b", UNIT, 1.0, b"s\xffc", b"text"), CREDIBILITY_AT + 8 + 4 + 1),
            ((b"b", UNIT, 1.0, b"src", b"te\xe9t"), CREDIBILITY_AT + 8 + 4 + 3 + 4 + 2),
            ((b"b", NAN_VEC, 1.0, b"src", b"text"), VECTOR_AT),
            ((b"b", 3.0 * UNIT, 1.0, b"src", b"text"), VECTOR_AT),
            ((b"b", (1.0 + 2.0**-20) * UNIT, 1.0, b"src", b"text"), VECTOR_AT),
            ((b"b", UNIT, float("nan"), b"src", b"text"), CREDIBILITY_AT),
            ((b"b", UNIT, float("-inf"), b"src", b"text"), CREDIBILITY_AT),
            ((b"a", UNIT, 1.0, b"src", b"text"), SECOND_AT),
            ((b"b", UNIT, 1.0, b"src", b"text", (float("nan"), 0.0)), CREDIBILITY_AT),
            ((b"b", UNIT, 1.0, b"src", b"text", (91.0, 0.0)), CREDIBILITY_AT),
            ((b"b", UNIT, 1.0, b"src", b"text", None, (5.0, 1.0)), CREDIBILITY_AT),
        ],
        ids=["id-not-utf8", "source-not-utf8", "text-not-utf8", "nan-vector", "non-unit-vector",
             "slightly-non-unit-vector", "nan-credibility",
             "inf-credibility", "duplicate-id", "nan-latitude", "latitude-out-of-range", "window-reversed"],
    )
    def test_malformed_record_raises_corrupt_at_offset(self, tmp_path, second, offset):
        path = tmp_path / "store.gcev"
        write_v1(path, [FIRST, (b"b", UNIT, 0.5, b"src", b"text", (1.5, 2.5), (1.0, 5.0))], D)
        assert HybridIndex.load(path, CFG).doc_ids() == ["a", "b"]
        write_v1(path, [FIRST, second], D)
        with pytest.raises(CorruptFile) as err:
            HybridIndex.load(path, CFG)
        assert err.value.offset == offset

    def test_empty_round_trip(self, tmp_path):
        store = HybridIndex(CFG)
        path = tmp_path / "empty.gcev"
        store.save(path)
        assert len(HybridIndex.load(path, CFG)) == 0

    def test_round_trip_identical_hits(self, tmp_path):
        store, meta, rng = build_random_store(120, seed=18)
        path = tmp_path / "store.gcev"
        store.save(path)
        loaded = HybridIndex.load(path, CFG)
        for i in range(15):
            q = QuerySpec(
                text_vector=unit(rng),
                point=GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170))),
                time=7e8 if i % 2 else None,
                k=10,
            )
            assert store.hybrid_search(q) == loaded.hybrid_search(q)

    def test_metadata_round_trip(self, tmp_path):
        store = HybridIndex(CFG)
        p = GeoPoint(1.25, 103.75)
        w = TimeWindow(10.5, 20.25)
        store.upsert(record("a", np.ones(D), point=p, window=w, credibility=0.75,
                            source="src", text="hello world"))
        path = tmp_path / "one.gcev"
        store.save(path)
        rec = HybridIndex.load(path, CFG).get("a")
        assert rec.point == p and rec.window == w
        assert rec.credibility == 0.75 and rec.source == "src" and rec.text == "hello world"
        assert np.array_equal(rec.vector, store.get("a").vector)

    def test_truncated_file_raises_corrupt(self, tmp_path):
        store, _, _ = build_random_store(5, seed=19)
        path = tmp_path / "store.gcev"
        store.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(CorruptFile):
            HybridIndex.load(path, CFG)

    def test_bad_magic_raises_corrupt_at_offset_zero(self, tmp_path):
        path = tmp_path / "bad.gcev"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CorruptFile) as err:
            HybridIndex.load(path, CFG)
        assert err.value.offset == 0

    def test_unknown_version_raises(self, tmp_path):
        store = HybridIndex(CFG)
        path = tmp_path / "v9.gcev"
        store.save(path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch):
            HybridIndex.load(path, CFG)

    def test_trailing_garbage_raises(self, tmp_path):
        store, _, _ = build_random_store(2, seed=20)
        path = tmp_path / "store.gcev"
        store.save(path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CorruptFile):
            HybridIndex.load(path, CFG)

    def test_save_is_byte_stable(self, tmp_path):
        store, _, _ = build_random_store(30, seed=21)
        p1, p2 = tmp_path / "a.gcev", tmp_path / "b.gcev"
        store.save(p1)
        store.save(p2)
        assert p1.read_bytes() == p2.read_bytes()


def near_copy(rng, base, eps):
    """`base` moved by about `eps` per component. For eps <= 1e-7 its scores
    differ from the base's by far less than the float32 error bound `B` of
    `_may_rank`, so float32 scores cannot order such rows."""
    return base + eps * rng.standard_normal(base.shape)


def meta_of(store):
    """The oracles' view of every stored record."""
    records = [store.get(doc_id) for doc_id in store.doc_ids()]
    return {
        rec.doc_id: {
            "vec64": rec.vector.astype(np.float64),
            "point": rec.point,
            "window": rec.window,
            "credibility": rec.credibility,
        }
        for rec in records
    }


class TestFloat32Filter:
    """`_scan` rescores exactly only the rows whose float32 score is within
    the error bound of the k-th best. The hits must equal, field for field,
    the exact scan of every eligible row (`full_sort`: k at least the store
    size, so nothing is filtered) and rank like the oracles, on stores whose
    float32 scores cannot order the rows."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_property_refined_equals_exact_scan_and_oracle(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(1, 60))
        bases = [unit(rng) for _ in range(data.draw(st.integers(1, 3)))]
        points = [None, HERE, GeoPoint(1.31, 103.8), GeoPoint(1.5, 104.0)]
        windows = [None, TimeWindow(0.0, 10.0)]
        store = HybridIndex(CFG)
        for i in range(n):
            eps = float(rng.choice([0.0, 1e-9, 1e-8, 1e-7]))  # 0: an exact duplicate
            store.upsert(record(
                f"doc{i:02d}",
                near_copy(rng, bases[int(rng.integers(len(bases)))], eps),
                point=points[int(rng.integers(len(points)))],
                window=windows[int(rng.integers(len(windows)))],
                credibility=float(rng.choice([0.2, 0.6, 1.0])),
            ))
        meta = meta_of(store)
        qv = data.draw(st.sampled_from(["base", "near", "random"]))
        qv = {"base": bases[0], "near": near_copy(rng, bases[0], 1e-8), "random": unit(rng)}[qv]
        k = data.draw(st.integers(1, n + 3))
        spec = QuerySpec(
            text_vector=qv,
            point=data.draw(st.sampled_from([None, HERE, GeoPoint(1.4, 103.9)])),
            time=data.draw(st.sampled_from([None, 5.0, 50.0])),
            k=k,
            weights=data.draw(st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), CFG.weights])),
            min_credibility=data.draw(st.sampled_from([0.0, 0.5, 0.8])),
        )
        if spec.point is not None and data.draw(st.booleans()):
            spec = replace(spec, radius_filter=data.draw(st.sampled_from([0.0, 1500.0, 30_000.0])))
        # 0: float32 scores of the whole matrix; 1: of the gathered rows.
        with patch.object(vectorstore, "_GATHER_SHARE", data.draw(st.sampled_from([0.0, 1.0]))):
            hits = store.hybrid_search(spec)
            knn = store.knn(qv, k)
        assert hits == full_sort(store, spec)
        assert [h.doc_id for h in hits] == oracle_hybrid(meta, spec, CFG)
        knn_spec = QuerySpec(text_vector=qv, k=k, weights=(1.0, 0.0, 0.0), min_credibility=-math.inf)
        assert knn == [replace(h, spatial_prox=0.0, temporal_rel=0.0) for h in full_sort(store, knn_spec)]
        assert [h.doc_id for h in knn] == oracle_knn(meta, qv, k)

    @pytest.mark.parametrize("k", [1, 3, 10, 50])
    def test_near_duplicates_of_the_query_rank_exactly(self, k):
        # 300 rows within a few float32 ulps of the query, among 300 others:
        # the float32 scores of the near rows disagree with their exact order.
        rng = np.random.default_rng(31)
        q = unit(rng)
        store = HybridIndex(CFG)
        for i in range(600):
            vec = near_copy(rng, q, float(rng.choice([0.0, 1e-8, 1e-7]))) if i % 2 else unit(rng)
            store.upsert(record(f"doc{i:03d}", vec, point=HERE if i % 3 else None))
        meta = meta_of(store)
        spec = QuerySpec(text_vector=q, point=HERE, k=k)
        for share in (0.0, 1.0):
            with patch.object(vectorstore, "_GATHER_SHARE", share):
                assert store.hybrid_search(spec) == full_sort(store, spec)
                assert [h.doc_id for h in store.knn(q, k)] == oracle_knn(meta, q, k)
        assert [h.doc_id for h in store.hybrid_search(spec)] == oracle_hybrid(meta, spec, CFG)

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_v1_store_with_non_unit_vectors(self, tmp_path, k):
        # The float32 error bound assumes rows of norm at most `norm_max`, so
        # a v1 file whose near copies of the query are scaled to norm 3 from
        # row k on is CorruptFile at row k's vector; the same file with unit
        # rows loads and ranks like the full sort and the oracles.
        rng = np.random.default_rng(32)
        q = unit(rng).astype(np.float32)
        near = [near_copy(rng, q, 1e-7) for _ in range(20)]
        rows = [(f"x{i:02d}".encode(), v / np.linalg.norm(v), 1.0, b"src", b"text") for i, v in enumerate(near)]
        rows += [(f"y{i:02d}".encode(), unit(rng), 1.0, b"src", b"text") for i in range(20)]
        path = tmp_path / "v1.gcev"
        write_v1(path, rows, D)
        store = HybridIndex.load(path, CFG)
        meta = meta_of(store)
        spec = QuerySpec(text_vector=q, point=HERE, k=k)
        assert store.hybrid_search(spec) == full_sort(store, spec)
        assert [h.doc_id for h in store.hybrid_search(spec)] == oracle_hybrid(meta, spec, CFG)
        assert [h.doc_id for h in store.knn(q, k)] == oracle_knn(meta, q, k)
        scaled = rows[:k] + [(i, 3.0 * v, *rest) for i, v, *rest in rows[k:20]] + rows[20:]
        write_v1(path, scaled, D)
        with pytest.raises(CorruptFile) as err:
            HybridIndex.load(path, CFG)
        row_bytes = 4 + 3 + 4 * D + 1 + 8 + 4 + 3 + 4 + 4  # 3-byte id, no point or window
        assert err.value.offset == 18 + k * row_bytes + 4 + 3

    def test_refine_scores_few_rows(self, monkeypatch):
        # The point of the filter: on a store without near ties, a k=10
        # query rescores a few more rows than k, not the store.
        store, _, rng = build_random_store(2000, seed=33)
        scored = []
        exact = vectorstore._exact_dots
        monkeypatch.setattr(vectorstore, "_exact_dots", lambda m, rows, q: scored.append(rows.size) or exact(m, rows, q))
        store.knn(unit(rng), 10)
        store.hybrid_search(QuerySpec(text_vector=unit(rng), point=GeoPoint(10.0, 20.0), time=5e8, k=10))
        assert all(10 <= size < 100 for size in scored), scored

    def test_no_float64_copy_of_the_matrix(self):
        # The columns keep the float32 vectors, and exact scores widen them
        # a block at a time: neither folding the buffered upserts into the
        # columns nor rescoring every row (they all tie, so the filter keeps
        # them all) allocates an N x d float64 matrix.
        n = 6000
        rng = np.random.default_rng(34)
        v = unit(rng)
        store = HybridIndex(CFG)
        for i in range(n):
            store.upsert(record(f"doc{i:04d}", v, point=HERE, window=TimeWindow(0.0, 10.0)))
        tracemalloc.start()
        try:
            cols = store._snapshot()
            held, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            knn = store.knn(v, 1)
            hybrid = store.hybrid_search(QuerySpec(text_vector=v, point=HERE, time=5.0, k=1))
            scan_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert [h.doc_id for h in knn + hybrid] == ["doc0000", "doc0000"]
        float64_matrix = n * D * 8
        assert cols.matrix.dtype == np.float32
        assert build_peak < 0.75 * float64_matrix, build_peak
        assert scan_peak < 0.25 * float64_matrix, scan_peak


def unfiltered_scan(store, q: QuerySpec) -> list:
    """`_scan` without its filters: every row scored as `_scan` scores the
    rows it keeps (`haversine_array` over the whole column, the radius as
    d <= r), ranked by a stable sort on descending combined score over the
    eligible rows in doc_id order."""
    cols, cfg = store._snapshot(), store.config
    qv = np.asarray(q.text_vector, dtype=np.float64)
    if np.linalg.norm(qv) > 0.0:
        qv = qv / np.linalg.norm(qv)
    eligible = cols.credibility >= q.min_credibility
    spatial = temporal = np.ones(len(cols.ids))
    if q.point is not None:
        d = haversine_array(q.point, cols.lat, cols.lon, cfg.earth_radius_m)
        spatial = np.where(cols.has_point, np.exp(-d / cfg.lambda_m), 0.0)
        if q.radius_filter is not None:
            eligible &= cols.has_point & (d <= q.radius_filter)
    if q.time is not None:
        temporal = ((cols.start <= q.time) & (q.time <= cols.end)).astype(np.float64)
    text = np.vecdot(cols.matrix.astype(np.float64), qv)
    w_t, w_s, w_d = q.weights
    combined = w_t * text + w_s * spatial + w_d * temporal
    rows = np.flatnonzero(eligible)
    best = rows[np.argsort(-combined[rows], kind="stable")][: q.k]
    return [ScoredHit(cols.ids[i], float(combined[i]), float(text[i]), float(spatial[i]), float(temporal[i]))
            for i in best]


def oracle_applies(meta, q: QuerySpec, config) -> bool:
    """Whether `oracle_hybrid` can judge q: its scalar haversine is not
    clamped, so it fails where h rounds above 1 near the antipode, and it
    rounds in another order, so a row exactly at the radius may fall on the
    other side of it than `haversine_array` puts it."""
    for rec in meta.values():
        if q.point is None or rec["point"] is None:
            continue
        try:
            d = haversine_contract(q.point, rec["point"], config.earth_radius_m)
        except ValueError:
            return False
        if q.radius_filter is not None:
            p = rec["point"]
            exact = haversine_array(q.point, np.array([p.lat]), np.array([p.lon]), config.earth_radius_m)[0]
            if (d <= q.radius_filter) != (exact <= q.radius_filter):
                return False
    return True


CENTRES = [HERE, GeoPoint(0.0, 180.0), GeoPoint(0.0, -179.99999999), GeoPoint(89.9999999, 10.0),
           GeoPoint(-90.0, 0.0), GeoPoint(-33.87, 151.21), GeoPoint(0.0, 0.0)]


def stress_points(centre: GeoPoint, rng) -> list:
    """Points that stress the spatial filter around `centre`: the centre;
    pairs at one distance on opposite bearings (east and west are exact
    ties); the antipode and points 1e-9 to 8 degrees from it; points just
    either side of +-180 degrees and at or near both poles; random points."""
    def clamp(lat):
        return max(-90.0, min(90.0, lat))

    lat, lon = centre.lat, centre.lon
    pts = [(lat, lon)]
    for delta in (2.0**-30, 2.0**-20, 2.0**-12, 2.0**-6, 1.0):
        pts += [(lat, lon + delta), (lat, lon - delta), (clamp(lat + delta), lon), (clamp(lat - delta), lon)]
    for eps in (0.0, 1e-9, 1e-6, 1e-3, 0.05, 0.2, 8.0):
        pts += [(clamp(-lat + eps), lon + 180.0), (-lat, lon + 180.0 - eps)]
    for eps in (1e-7, 1e-3):
        pts += [(lat, 180.0 - eps), (lat, -180.0 + eps)]
    pts += [(90.0, 0.0), (90.0, 123.0), (-90.0, -45.0), (89.9999999, 17.0), (-89.9999999, -170.0)]
    pts += [(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180))) for _ in range(5)]
    return [GeoPoint(a, b) for a, b in pts]


class TestSpatialFilter:
    """A located query decides the radius and approximates the spatial
    term from the chord to each row, and runs `haversine_array` and `exp`
    only on rows near the radius, near the antipode, or kept by
    `_may_rank`. The hits must equal the unfiltered scan field for field
    and rank like the oracle, on spatial near-ties, at the poles, across
    +-180 degrees, near the antipode and exactly at the radius."""

    RADII = ("at", "below", "above", "zero", "half-circumference", "far-cut")

    def radius(self, kind, centre, point, config):
        d = float(haversine_array(centre, np.array([point.lat]), np.array([point.lon]), config.earth_radius_m)[0])
        half = math.pi * config.earth_radius_m
        return {
            "at": d, "below": math.nextafter(d, 0.0), "above": math.nextafter(d, math.inf), "zero": 0.0,
            "half-circumference": half * (1.0 - 1e-12), "far-cut": (vectorstore._FAR - 0.1) * config.earth_radius_m,
        }[kind]

    @pytest.mark.parametrize("centre", CENTRES, ids=str)
    def test_rows_at_exactly_the_radius(self, centre):
        # Every row as the boundary: its own distance and the floats either
        # side of it, k large enough that only the radius filters.
        rng = np.random.default_rng(42)
        points = stress_points(centre, rng)
        store = HybridIndex(CFG)
        v = unit(rng)
        for i, p in enumerate(points):
            store.upsert(record(f"p{i:03d}", v, point=p))
        for p in points:
            for kind in ("at", "below", "above"):
                spec = QuerySpec(text_vector=v, point=centre, k=len(points), radius_filter=self.radius(kind, centre, p, CFG))
                assert store.hybrid_search(spec) == unfiltered_scan(store, spec), (p, kind)
        for kind in ("zero", "half-circumference", "far-cut"):
            spec = QuerySpec(text_vector=v, point=centre, k=len(points), radius_filter=self.radius(kind, centre, centre, CFG))
            assert store.hybrid_search(spec) == unfiltered_scan(store, spec), kind

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_property_equals_unfiltered_scan_and_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        centre = data.draw(st.sampled_from(CENTRES))
        pool = stress_points(centre, rng)
        n = data.draw(st.integers(1, 40))
        points = [pool[int(i)] for i in rng.integers(len(pool), size=n)]
        # 1e7 m keeps far rows' proximity above 0; 0.05 m makes cm count.
        config = EngineConfig(lambda_m=data.draw(st.sampled_from([CFG.lambda_m, 1e7, 0.05])))
        bases = [unit(rng) for _ in range(2)]
        store = HybridIndex(config)
        for i, p in enumerate(points):
            store.upsert(record(
                f"doc{i:02d}", bases[int(rng.integers(2))],
                point=None if rng.random() < 0.1 else p,
                window=TimeWindow(0.0, 10.0) if rng.random() < 0.5 else None,
                credibility=float(rng.choice([0.2, 1.0])),
            ))
        spec = QuerySpec(
            text_vector=data.draw(st.sampled_from([bases[0], unit(rng)])),
            point=centre,
            time=data.draw(st.sampled_from([None, 5.0])),
            k=data.draw(st.integers(1, n + 2)),
            weights=data.draw(st.sampled_from(
                [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0), (0.0, 0.5, 0.5), CFG.weights])),
            min_credibility=data.draw(st.sampled_from([0.0, 0.5])),
        )
        kind = data.draw(st.sampled_from((None,) + self.RADII))
        if kind is not None:
            boundary = points[data.draw(st.integers(0, n - 1))]
            spec = replace(spec, radius_filter=self.radius(kind, centre, boundary, config))
        hits = store.hybrid_search(spec)
        assert hits == unfiltered_scan(store, spec)
        meta = meta_of(store)
        if oracle_applies(meta, spec, config):
            assert [h.doc_id for h in hits] == oracle_hybrid(meta, spec, config)

    def test_longitudes_outside_the_canonical_range(self, tmp_path):
        # Version-2 files hold any finite longitude; such a row takes the
        # exact path and scores as the unfiltered scan scores it.
        rng = np.random.default_rng(43)
        store = HybridIndex(CFG)
        v = unit(rng)
        for i in range(30):
            store.upsert(record(f"doc{i:02d}", v, point=GeoPoint(1.3 + 0.001 * i, 103.8)))
        path = tmp_path / "lon.gcev"
        store.save(path)
        data = bytearray(path.read_bytes())
        string_bytes = [len("".join(column).encode()) for column in (store.doc_ids(), ["test"] * 30,
                                                                      [f"text for doc{i:02d}" for i in range(30)])]
        lon_at = vectorstore._v2_layout(D, 30, string_bytes)[0][3]
        lon = np.frombuffer(data, "<f8", 30, lon_at).copy()
        lon[::3] += 360.0
        lon[1::3] -= 720.0
        data[lon_at : lon_at + 240] = lon.tobytes()
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
        path.write_bytes(bytes(data))
        loaded = HybridIndex.load(path, CFG)
        for spec in (QuerySpec(text_vector=v, point=HERE, k=5), QuerySpec(text_vector=v, point=HERE, k=30, radius_filter=1500.0)):
            assert loaded.hybrid_search(spec) == unfiltered_scan(loaded, spec)
        assert [h.doc_id for h in loaded.hybrid_search(spec)] == [h.doc_id for h in store.hybrid_search(spec)]

    def test_exact_distances_only_near_the_radius_or_the_top(self, monkeypatch):
        # The point of the filter: `haversine_array` runs on the rows that
        # can pass the radius or rank, not on the store.
        store, _, rng = build_random_store(2000, seed=44)
        sizes = []
        exact = vectorstore.haversine_array
        monkeypatch.setattr(vectorstore, "haversine_array", lambda p, lat, lon, r: sizes.append(lat.size) or exact(p, lat, lon, r))
        centre = GeoPoint(10.0, 20.0)
        store.hybrid_search(QuerySpec(text_vector=unit(rng), point=centre, k=10))
        store.hybrid_search(QuerySpec(text_vector=unit(rng), point=centre, time=5e8, k=10))
        store.hybrid_search(QuerySpec(text_vector=unit(rng), point=centre, k=10, radius_filter=3_000_000.0))
        assert sizes and all(size < 100 for size in sizes), sizes
