"""Acceptance criteria, one test per criterion.

Each test prints a single "ACCEPTANCE <n> PASS" line (visible with -s / -rA)
after its assertions, and enforces the criterion's stated time budget.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from oracles import bearing_3d, distance_3d, oracle_hybrid, oracle_knn

from geocontext import DEFAULT_CONFIG
from geocontext.cli import main
from geocontext.evalkit import contextual_relevance, run_eval, spatial_accuracy
from geocontext.fixtures import (
    EVENT_TIME,
    build_landmarks,
    build_store,
    write_eval_dataset,
    write_gazetteer_csv,
)
from geocontext.geocompute import FeatureSet, Feature, distance_matrix, nearest_join, within_radius
from geocontext.geomodel import GeoPoint, TimeWindow
from geocontext.georelate import EARTH_RADIUS_M, haversine, initial_bearing
from geocontext.geotext import (
    Gazetteer,
    ngram_tokenize,
    parse_address,
    subword_encode,
    subword_train,
    text_to_coord,
)
from geocontext.ragctx import answer_prompt
from geocontext.spatial_embed import query_vector, standardize, text_tokens
from geocontext.vectorstore import HybridIndex, QuerySpec, VectorRecord

CFG = DEFAULT_CONFIG


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def done(self, n, label):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"criterion {n} exceeded {self.limit}s ({elapsed:.1f}s)"
        print(f"ACCEPTANCE {n} PASS: {label} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def landmarks100():
    return build_landmarks(100)


@pytest.fixture(scope="module")
def store100(landmarks100):
    return build_store(landmarks100, CFG)


@pytest.fixture(scope="module")
def random_store():
    rng = np.random.default_rng(2024)
    store = HybridIndex(CFG)
    meta = {}
    for i in range(1000):
        vec = rng.standard_normal(CFG.d_text)
        vec /= np.linalg.norm(vec)
        point = None
        window = None
        if i % 5 != 4:
            point = GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-179, 180)))
        if i % 3 == 0:
            start = float(rng.uniform(0, 1e9))
            window = TimeWindow(start, start + float(rng.uniform(0, 1e8)))
        credibility = float(rng.uniform(0, 1))
        store.upsert(
            VectorRecord(
                doc_id=f"r{i:04d}", vector=vec, point=point, window=window,
                credibility=credibility, source="rand", text=f"record {i}",
            )
        )
        meta[f"r{i:04d}"] = {
            "vec64": store.get(f"r{i:04d}").vector.astype(np.float64),
            "point": point, "window": window, "credibility": credibility,
        }
    return store, meta


def test_criterion_01_paper_fidelity_triple():
    budget = Budget(1.0)
    assert [t.text for t in ngram_tokenize("New York City", 2)] == ["New York", "York City"]
    fields = parse_address("123 East Coast, Singapore City")
    assert (fields.street_number, fields.street_name, fields.city) == ("123", "East Coast", "Singapore")
    p = text_to_coord("1.3008° N, 103.9122° E")
    assert (p.lat, p.lon) == (1.3008, 103.9122)
    budget.done(1, "bigram / address / coordinate fidelity")


def test_criterion_02_geodesy_oracle_suite():
    budget = Budget(5.0)
    rng = random.Random(99)
    for _ in range(25):
        a = GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))
        b = GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))
        assert haversine(a, b) == haversine(b, a)
        expected = distance_3d(a, b, EARTH_RADIUS_M)
        if expected > 0:
            assert abs(haversine(a, b) - expected) / expected < 1e-6
        if a != b:
            assert abs(initial_bearing(a, b) - bearing_3d(a, b)) % 360 < 1e-6
    p = GeoPoint(1.3521, 103.8198)
    assert haversine(p, p) == 0.0
    antipodal = haversine(GeoPoint(0, 0), GeoPoint(0, 180))
    assert abs(antipodal - math.pi * EARTH_RADIUS_M) / (math.pi * EARTH_RADIUS_M) <= 1e-9
    assert initial_bearing(GeoPoint(0, 0), GeoPoint(1, 0)) == 0.0
    assert initial_bearing(GeoPoint(1, 0), GeoPoint(0, 0)) == 180.0
    assert initial_bearing(GeoPoint(0, 0), GeoPoint(0, 1)) == 90.0
    assert initial_bearing(GeoPoint(0, 1), GeoPoint(0, 0)) == 270.0
    budget.done(2, "geodesy matches independent oracles")


def test_criterion_03_search_exactness(random_store):
    budget = Budget(60.0)
    store, meta = random_store
    rng = np.random.default_rng(7)
    for i in range(100):
        qvec = rng.standard_normal(CFG.d_text)
        qvec /= np.linalg.norm(qvec)
        assert [h.doc_id for h in store.knn(qvec, 10)] == oracle_knn(meta, qvec, 10)

        point = GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-179, 180)))
        q_full = QuerySpec(
            text_vector=qvec, point=point,
            time=float(rng.uniform(0, 1.2e9)) if i % 2 else None,
            k=10, min_credibility=float(rng.uniform(0, 0.2)),
        )
        assert [h.doc_id for h in store.hybrid_search(q_full)] == oracle_hybrid(meta, q_full, CFG)

        q_pruned = QuerySpec(
            text_vector=qvec, point=point, k=10,
            radius_filter=float(rng.uniform(5e4, 5e6)),
        )
        assert [h.doc_id for h in store.hybrid_search(q_pruned)] == oracle_hybrid(meta, q_pruned, CFG)
    budget.done(3, "knn + hybrid + radius-filtered match naive oracle on 1000x100")


def test_criterion_04_degenerate_weights_equal_knn(random_store):
    budget = Budget(30.0)
    store, _ = random_store
    rng = np.random.default_rng(8)
    for _ in range(50):
        qvec = rng.standard_normal(CFG.d_text)
        qvec /= np.linalg.norm(qvec)
        knn_hits = store.knn(qvec, 10)
        hybrid_hits = store.hybrid_search(QuerySpec(text_vector=qvec, k=10, weights=(1.0, 0.0, 0.0)))
        assert [(h.doc_id, h.combined) for h in knn_hits] == [(h.doc_id, h.combined) for h in hybrid_hits]
    budget.done(4, "hybrid w=(1,0,0) equals knn exactly")


def test_criterion_05_persistence_round_trip(random_store, tmp_path):
    budget = Budget(10.0)
    store, _ = random_store
    path = tmp_path / "acceptance.gcev"
    store.save(path)
    loaded = HybridIndex.load(path, CFG)
    rng = np.random.default_rng(9)
    for i in range(50):
        qvec = rng.standard_normal(CFG.d_text)
        qvec /= np.linalg.norm(qvec)
        q = QuerySpec(
            text_vector=qvec,
            point=GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-179, 180))),
            time=5e8 if i % 2 else None,
            k=10,
        )
        original = json.dumps([h.__dict__ for h in store.hybrid_search(q)], sort_keys=True)
        reloaded = json.dumps([h.__dict__ for h in loaded.hybrid_search(q)], sort_keys=True)
        assert original.encode() == reloaded.encode()
    budget.done(5, "save/load hit lists byte-identical over 50 queries")


def test_criterion_06_standardization_jl_property():
    budget = Budget(30.0)
    rng = np.random.default_rng(42)
    X = rng.standard_normal((1000, CFG.concat_dim))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    Y = np.stack([standardize(x, CFG) for x in X])

    def pairwise(M):
        g = M @ M.T
        sq = np.diag(g)
        iu = np.triu_indices(len(M), 1)
        return np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2 * g, 0)[iu])

    ratio = np.abs(pairwise(Y) / pairwise(X) - 1.0)
    frac = float((ratio <= 0.25).mean())
    assert frac >= 0.95, f"only {frac:.4f} of pairs within 25% distortion"
    budget.done(6, f"JL distortion: {frac:.4f} of pairs within 25%")


def test_criterion_07_subword_round_trip():
    budget = Budget(30.0)
    rng = random.Random(123)
    words = [
        "".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(2, 10))) for _ in range(1000)
    ]
    corpus = [" ".join(words[i : i + 10]) for i in range(0, 1000, 10)]
    alphabet = {ch for line in corpus for ch in line}
    m1 = subword_train(corpus, len(alphabet) + 60)
    m2 = subword_train(corpus, len(alphabet) + 60)
    assert m1.merges == m2.merges and m1.vocab == m2.vocab
    for line in corpus:
        assert "".join(t.text for t in subword_encode(m1, line)) == line
    budget.done(7, "1000-word corpus round-trips byte-for-byte; training deterministic")


def test_criterion_08_self_retrieval(landmarks100, store100):
    budget = Budget(30.0)
    failures = []
    for rec in landmarks100:
        qvec = query_vector(text_tokens(rec.name), CFG)
        hits = store100.hybrid_search(QuerySpec(text_vector=qvec, k=2, weights=CFG.weights))
        if hits[0].doc_id != rec.id:
            self_hit = next((h for h in store100.hybrid_search(
                QuerySpec(text_vector=qvec, k=len(landmarks100), weights=CFG.weights)
            ) if h.doc_id == rec.id), None)
            failures.append((rec.id, hits[0], self_hit))
    assert len(landmarks100) - len(failures) >= 98, f"too many self-retrieval misses: {failures}"
    for rec_id, winner, self_hit in failures:
        assert self_hit is not None
        assert abs(winner.combined - self_hit.combined) <= 1e-9, (
            f"{rec_id} lost to {winner.doc_id} without a cosine tie"
        )
    budget.done(8, f"self-retrieval rank-1 for {len(landmarks100) - len(failures)}/100")


def test_criterion_09_rag_determinism_and_citations(landmarks100, store100):
    budget = Budget(60.0)
    gazetteer = Gazetteer.from_records(landmarks100)
    rng = random.Random(5)
    templates = ["Tell me about {}", "Where is {}?", "What happens near {} today?", "{}"]
    prompts = [rng.choice(templates).format(rng.choice(landmarks100).name) for _ in range(100)]
    for prompt in prompts:
        runs = [
            answer_prompt(store100, gazetteer, prompt, 5, CFG, time=EVENT_TIME) for _ in range(3)
        ]
        blobs = [json.dumps(r, sort_keys=True).encode("utf-8") for r in runs]
        assert blobs[0] == blobs[1] == blobs[2]
        for citation in runs[0]["citations"]:
            assert store100.get(citation["doc_id"]) is not None, "fabricated citation"
    budget.done(9, "OfflineResponder byte-identical across 3 runs; no fabricated citations")


def test_criterion_10_geocompute_consistency():
    budget = Budget(30.0)
    rng = np.random.default_rng(11)

    def feature_set(prefix, n):
        return FeatureSet(features=tuple(
            Feature(id=f"{prefix}{i}", geometry=GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170))))
            for i in range(n)
        ))

    a, b = feature_set("a", 30), feature_set("b", 25)
    ab = distance_matrix(a, b).payload
    ba = distance_matrix(b, a).payload
    for i in range(len(a)):
        for j in range(len(b)):
            assert ab[i][j] == ba[j][i]

    pairs = nearest_join(a, b).payload
    for i, (_, bid, dist) in enumerate(pairs):
        row_min = min(ab[i])
        assert dist == row_min
        assert bid == b.features[ab[i].index(row_min)].id

    center = GeoPoint(0, 0)
    for _ in range(20):
        r1, r2 = sorted((float(rng.uniform(0, 2e7)), float(rng.uniform(0, 2e7))))
        inner = {fid for fid, _ in within_radius(a, center, r1).payload}
        outer = {fid for fid, _ in within_radius(a, center, r2).payload}
        assert inner <= outer
    budget.done(10, "matrix transpose exact; join equals row-min; radius monotone")


def test_criterion_11_eval_harness(landmarks100, store100, tmp_path):
    budget = Budget(30.0)
    dataset = write_eval_dataset(landmarks100, tmp_path / "eval.jsonl", stride=4)
    report = run_eval(dataset, store100, CFG, k=3, gazetteer=Gazetteer.from_records(landmarks100))
    assert report.precision_at_k[1] == 1.0

    pts = [GeoPoint(1, 1), GeoPoint(2, 2), GeoPoint(-3, 100)]
    assert spatial_accuracy(pts, pts) == (0.0, 0.0)

    assert contextual_relevance("alpha beta", "alpha beta gamma delta") == pytest.approx(2 / 3, abs=1e-9)
    budget.done(11, f"precision@1=1.0 over {report.n_cases} exact-name cases; metric identities hold")


def test_criterion_12_end_to_end_cli(landmarks100, tmp_path, capsys):
    budget = Budget(60.0)
    gazetteer_csv = write_gazetteer_csv(landmarks100, tmp_path / "gaz.csv")
    store_path = tmp_path / "store.gcev"
    assert main(["ingest", "--gazetteer", str(gazetteer_csv), "--store", str(store_path)]) == 0
    capsys.readouterr()
    assert main([
        "query", "--store", str(store_path),
        "--prompt", "Where is the Coldplay event going to happen in Singapore?",
        "--gazetteer", str(gazetteer_csv),
        "--time", str(EVENT_TIME),
        "--k", "5", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    cited = [c["doc_id"] for c in payload["citations"]]
    assert "mbs" in cited, f"event record not cited: {cited}"
    mbs_record = None
    from geocontext.vectorstore import HybridIndex as _HI

    mbs_record = _HI.load(store_path, CFG).get("mbs")
    assert mbs_record.window is not None and mbs_record.window.contains(EVENT_TIME)
    budget.done(12, "CLI ingest -> query cites the windowed event record")
