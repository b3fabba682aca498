import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import composite_hash_block, composite_location, composite_tokens, oracle_composite, stored_vector

from geocontext import DEFAULT_CONFIG, EngineConfig
from geocontext.errors import DimensionMismatch, InvalidArgument, MissingWindow
from geocontext.geomodel import GeoPoint, LandmarkRecord, TimeWindow
from geocontext.ingest import index_gazetteer
from geocontext.spatial_embed import (
    _projection_matrix,
    embed_landmarks,
    embed_text,
    encode_location,
    make_composite,
    norm_tokens,
    project,
    query_vector,
    standardize,
    text_tokens,
)
from geocontext.vectorstore import HybridIndex

CFG = DEFAULT_CONFIG


def cos(a, b):
    return float(np.dot(a, b))


class TestEmbedText:
    def test_empty_is_zero(self):
        vec = embed_text([], 64)
        assert not vec.any()

    def test_deterministic(self):
        tokens = ["marina", "bay", "sands"]
        assert np.array_equal(embed_text(tokens, 256), embed_text(tokens, 256))

    def test_unit_norm_when_nonzero(self):
        vec = embed_text(["a", "b", "c"], 128)
        assert math.isclose(float(np.linalg.norm(vec)), 1.0, abs_tol=1e-9)

    def test_related_text_scores_higher(self):
        # Frozen regression values computed with the reference hash at seed 7919:
        # shared 2-of-2-vs-3 tokens -> 2/sqrt(6); disjoint tokens -> 0.
        va = embed_text("marina bay".split(), 256)
        vb = embed_text("marina bay sands".split(), 256)
        vc = embed_text("curry rice shop".split(), 256)
        assert cos(va, vb) == pytest.approx(2 / math.sqrt(6), abs=1e-12)
        assert cos(va, vc) == pytest.approx(0.0, abs=1e-12)
        assert cos(va, vb) > cos(va, vc)

    def test_seed_changes_embedding(self):
        tokens = ["alpha", "beta"]
        assert not np.array_equal(embed_text(tokens, 64, seed=1), embed_text(tokens, 64, seed=2))


    @pytest.mark.parametrize("token", ["\udcff", "harbour\ud800", "\udc00x"])
    def test_lone_surrogate_is_invalid_argument(self, token):
        with pytest.raises(InvalidArgument, match="not valid UTF-8"):
            embed_text(["harbour", token], 64)
        with pytest.raises(InvalidArgument, match="not valid UTF-8"):
            query_vector(["harbour", token], DEFAULT_CONFIG)


class TestNormTokens:
    def test_casefold_and_strip(self):
        assert norm_tokens(["Singapore?", "(Marina)", "BAY"]) == ["singapore", "marina", "bay"]

    def test_text_tokens(self):
        assert text_tokens("Where is  Marina Bay?") == ["where", "is", "marina", "bay"]


class TestEncodeLocation:
    def test_origin_components(self):
        vec = encode_location(GeoPoint(0, 0))
        assert np.array_equal(vec[0::4], np.zeros(16))  # sin lat
        assert np.array_equal(vec[1::4], np.ones(16))   # cos lat
        assert np.array_equal(vec[2::4], np.zeros(16))  # sin lon
        assert np.array_equal(vec[3::4], np.ones(16))   # cos lon

    @given(st.floats(-90, 90, allow_nan=False), st.floats(-180, 180, allow_nan=False))
    def test_bounded_and_pure(self, lat, lon):
        p = GeoPoint(lat, lon)
        vec = encode_location(p)
        assert np.all(vec >= -1.0) and np.all(vec <= 1.0)
        assert np.array_equal(vec, encode_location(GeoPoint(lat, lon)))

    def test_constant_norm(self):
        for p in (GeoPoint(0, 0), GeoPoint(1.35, 103.8), GeoPoint(-45, 170)):
            assert math.isclose(float(np.linalg.norm(encode_location(p))), math.sqrt(32), rel_tol=1e-12)

    def test_local_distance_monotonicity(self):
        # Derived by direct evaluation: a 0.001 deg step stays closer than a 1 deg step.
        base = encode_location(GeoPoint(1.3000, 103.9000))
        near = encode_location(GeoPoint(1.3010, 103.9000))
        far = encode_location(GeoPoint(2.3000, 103.9000))
        assert np.linalg.norm(base - near) < np.linalg.norm(base - far)


class TestStandardize:
    def test_zero_maps_to_zero(self):
        assert not standardize(np.zeros(CFG.concat_dim)).any()

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(CFG.concat_dim)
        assert np.array_equal(standardize(x), standardize(x))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            standardize(np.zeros(CFG.concat_dim + 1))

    def test_linear_before_normalization(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(CFG.concat_dim)
        y = rng.standard_normal(CFG.concat_dim)
        a, b = 2.5, -0.75
        lhs = project(a * x + b * y)
        rhs = a * project(x) + b * project(y)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_jl_distortion_bound(self):
        # Empirical check of the distance-preservation contract.
        rng = np.random.default_rng(42)
        X = rng.standard_normal((300, CFG.concat_dim))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        Y = np.stack([standardize(x) for x in X])

        def pdists(M):
            g = M @ M.T
            sq = np.diag(g)
            iu = np.triu_indices(len(M), 1)
            return np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2 * g, 0)[iu])

        ratio = np.abs(pdists(Y) / pdists(X) - 1.0)
        assert (ratio <= 0.25).mean() >= 0.95


class TestMakeComposite:
    def landmark(self, **kw):
        defaults = dict(
            id="sig",
            name="The Signature",
            point=GeoPoint(1.30, 103.90),
            category="landmark",
            description="An office building hosting events.",
            window=TimeWindow(0, 10_000),
        )
        defaults.update(kw)
        return LandmarkRecord(**defaults)

    def test_event_produces_dynamic_vector(self):
        composite = make_composite(self.landmark(), event_text="Partner Summit")
        assert composite.dynamic is not None
        assert composite.dynamic.window == TimeWindow(0, 10_000)
        assert composite.verify()

    def test_no_event_means_no_dynamic(self):
        composite = make_composite(self.landmark(window=None))
        assert composite.dynamic is None
        concat = composite.concat()
        assert not concat[CFG.d_loc + CFG.d_st :].any()
        assert composite.verify()

    def test_event_without_window_raises(self):
        with pytest.raises(MissingWindow):
            make_composite(self.landmark(window=None), event_text="Partner Summit")

    def test_deterministic(self):
        c1 = make_composite(self.landmark(), event_text="Partner Summit")
        c2 = make_composite(self.landmark(), event_text="Partner Summit")
        assert np.array_equal(c1.standardized, c2.standardized)

    def test_external_embedder_substitution(self):
        calls = []

        def stub(tokens, dim):
            calls.append((tuple(tokens), dim))
            vec = np.zeros(dim)
            vec[0] = 1.0
            return vec

        composite = make_composite(self.landmark(window=None), embedder=stub)
        assert calls and composite.spatial_text[0] == 1.0

    def test_standardized_unit_norm(self):
        composite = make_composite(self.landmark(window=None))
        assert math.isclose(float(np.linalg.norm(composite.standardized)), 1.0, abs_tol=1e-9)


class TestQueryVector:
    def test_matches_record_pipeline_for_text_block(self):
        qv = query_vector(["marina", "bay"])
        st_block = embed_text(["marina", "bay"], CFG.d_st, CFG.hash_seed)
        manual = standardize(np.concatenate([np.zeros(CFG.d_loc), st_block, np.zeros(CFG.d_dyn)]))
        assert np.array_equal(qv, manual)

    def test_dimension_from_config(self):
        small = EngineConfig(d_text=32, d_loc=16, d_st=32, d_dyn=16)
        assert query_vector(["a"], small).shape == (32,)


# Words that stress tokenizing: casefolds that change length (ß, İ),
# punctuation-only words that normalize to nothing, punctuation around a
# word, and words that repeat within and across records.
WORDS = st.one_of(
    st.sampled_from(["Straße", "İstanbul", "STRASSE", "...", "“”", "°", "(bay)", "bay", "Bay,", "a", "-", "'s"]),
    st.text(max_size=6),
)
TEXT = st.lists(WORDS, max_size=10).map(" ".join)
LAT = st.one_of(st.sampled_from([90.0, -90.0, 0.0, -0.0]), st.floats(-90, 90))
LON = st.one_of(st.sampled_from([180.0, -180.0, 0.0, -0.0]), st.floats(-180, 180))
WINDOW = st.builds(lambda a, b: TimeWindow(min(a, b), max(a, b)), st.floats(0, 2e9), st.floats(0, 2e9))
# (window, event text): an event needs a window; a window may come without one.
EVENT = st.one_of(st.tuples(st.none(), st.none()), st.tuples(WINDOW, st.none() | TEXT))
ROW = st.tuples(TEXT.filter(bool), TEXT, TEXT, LAT, LON, EVENT)
CONFIGS = st.sampled_from([CFG, EngineConfig(d_text=8, d_loc=4, d_st=1, d_dyn=3)])


def landmarks_of(rows):
    """(landmark, event text) pairs, ids r0, r1, ... in input order."""
    return [
        (LandmarkRecord(id=f"r{i}", name=name, point=GeoPoint(lat, lon), category=category,
                        description=description, window=window), event)
        for i, (name, category, description, lat, lon, (window, event)) in enumerate(rows)
    ]


class TestBatchEmbedding:
    """`embed_landmarks` and everything built on it give the bits of the
    one-record formula in `oracles.oracle_composite`."""

    @given(CONFIGS, st.lists(ROW, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_per_record_formula(self, config, rows):
        pairs = landmarks_of(rows)
        matrix = _projection_matrix(config.projection_seed, config.d_text, config.concat_dim)
        batch = embed_landmarks([lm for lm, _ in pairs], [event for _, event in pairs], config)
        assert [block.shape for block in batch] == [
            (len(pairs), d) for d in (config.d_loc, config.d_st, config.d_dyn, config.d_text)
        ]
        for i, (lm, event) in enumerate(pairs):
            want = oracle_composite(lm, event, config, matrix)
            assert [block[i].tobytes() for block in batch] == [w.tobytes() for w in want]
            one = make_composite(lm, event, config)
            got = (one.location, one.spatial_text, one.dynamic.values if one.dynamic else np.zeros(config.d_dyn),
                   one.standardized)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            assert (one.dynamic is None) == (event is None)
            assert encode_location(lm.point, config.d_loc).tobytes() == want[0].tobytes()
            tokens = composite_tokens(f"{lm.name} {lm.category} {lm.description}")
            assert embed_text(tokens, config.d_st, config.hash_seed).tobytes() == want[1].tobytes()
            assert standardize(one.concat(config), config).tobytes() == want[3].tobytes()

    @given(CONFIGS, st.lists(ROW, max_size=5), st.integers(0, 5), TEXT)
    @settings(max_examples=60, deadline=None)
    def test_index_gazetteer_stores_the_per_record_vectors(self, config, rows, bad_at, bad_event):
        """With a record that has event text but no window put in at
        `bad_at` (none past the end), MissingWindow names it and the
        records before it, only those, are stored."""
        pairs = landmarks_of(rows)
        records = [lm if event is None else replace(lm, event_text=event) for lm, event in pairs]
        bad = bad_at < len(records)
        if bad:
            records[bad_at] = replace(records[bad_at], window=None, event_text=bad_event)
        store = HybridIndex(config)
        if bad:
            with pytest.raises(MissingWindow, match=f"'r{bad_at}'"):
                index_gazetteer(records, store, config)
        else:
            assert index_gazetteer(records, store, config) == len(records)
        kept = records[:bad_at] if bad else records
        assert store.doc_ids() == sorted(rec.id for rec in kept)
        matrix = _projection_matrix(config.projection_seed, config.d_text, config.concat_dim)
        for rec in kept:
            want = stored_vector(oracle_composite(rec, rec.event_text, config, matrix)[3])
            assert store.get(rec.id).vector.tobytes() == want.tobytes()

    def test_location_and_hash_blocks_at_the_edges(self):
        for lat, lon in ((90.0, 180.0), (-90.0, -180.0), (-0.0, -0.0), (0.0, 0.0)):
            p = GeoPoint(lat, lon)
            assert encode_location(p).tobytes() == composite_location(p.lat, p.lon, CFG.d_loc).tobytes()
        for tokens in ([], ["ß"], ["ss", "ss", "ss"], ["i̇stanbul", "İstanbul"], [""]):
            want = composite_hash_block(tokens, CFG.d_st, CFG.hash_seed)
            assert embed_text(tokens, CFG.d_st).tobytes() == want.tobytes()
