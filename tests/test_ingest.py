import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocontext import DEFAULT_CONFIG
from geocontext.errors import DuplicateId, MissingHeader, RowError
from geocontext.fixtures import build_landmarks, write_gazetteer_csv
from geocontext.geomodel import GeoPoint, LandmarkRecord
from geocontext.ingest import (
    DescriptionCandidate,
    FixtureFetcher,
    index_descriptions,
    index_gazetteer,
    load_gazetteer,
    quality_filter,
    score_relevance,
)
from geocontext.spatial_embed import embed_text, query_vector, text_tokens
from geocontext.vectorstore import HybridIndex, QuerySpec

CFG = DEFAULT_CONFIG

HEADER = "id,name,lat,lon,category,description,source,credibility,admin_path"


def write_csv(tmp_path, body, header=HEADER, name="gaz.csv"):
    path = tmp_path / name
    path.write_text(header + "\n" + body, encoding="utf-8")
    return path


class TestLoadGazetteer:
    def test_three_valid_rows(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a,Alpha,1.0,2.0,city,Desc A,src,0.9,\n"
            "b,Beta,2.0,3.0,street,Desc B,src,0.8,x|y\n"
            "c,Gamma,3.0,4.0,landmark,Desc C,src,0.7,\n",
        )
        records, diagnostics = load_gazetteer(path)
        assert [r.id for r in records] == ["a", "b", "c"]
        assert records[1].admin_path == ("x", "y")
        assert diagnostics == []

    def test_duplicate_id_raises(self, tmp_path):
        path = write_csv(tmp_path, "a,Alpha,1,2,city,D,src,0.9,\na,Again,2,3,city,D,src,0.9,\n")
        with pytest.raises(DuplicateId, match="a"):
            load_gazetteer(path)

    def test_bad_lat_lenient_skips_with_line_number(self, tmp_path):
        path = write_csv(tmp_path, "a,Alpha,91.0,2,city,D,src,0.9,\nb,Beta,1,2,city,D,src,0.9,\n")
        records, diagnostics = load_gazetteer(path)
        assert [r.id for r in records] == ["b"]
        assert len(diagnostics) == 1 and "line 2" in diagnostics[0]

    def test_bad_lat_strict_raises_row_error(self, tmp_path):
        path = write_csv(tmp_path, "a,Alpha,91.0,2,city,D,src,0.9,\n")
        with pytest.raises(RowError) as err:
            load_gazetteer(path, strict=True)
        assert err.value.line == 2

    def test_missing_header(self, tmp_path):
        path = write_csv(tmp_path, "", header="wrong,columns")
        with pytest.raises(MissingHeader):
            load_gazetteer(path)
        with pytest.raises(MissingHeader):
            load_gazetteer(write_csv(tmp_path, "", header="", name="empty.csv"))

    def test_optional_event_columns(self, tmp_path):
        header = HEADER + ",window_start,window_end,event"
        path = write_csv(
            tmp_path,
            'e,Event Hall,1,2,landmark,"Hosts, things",src,0.9,,100,200,Launch party\n',
            header=header,
        )
        records, _ = load_gazetteer(path)
        rec = records[0]
        assert rec.window.start == 100 and rec.window.end == 200
        assert rec.event_text == "Launch party"
        assert rec.description == "Hosts, things"

    def test_round_trip_with_fixture_writer(self, tmp_path, landmarks):
        path = write_gazetteer_csv(landmarks, tmp_path / "fixture.csv")
        records, diagnostics = load_gazetteer(path)
        assert diagnostics == []
        assert [r.id for r in records] == [r.id for r in landmarks]
        by_id = {r.id: r for r in records}
        assert by_id["mbs"].window == landmarks[-2].window
        assert by_id["mbs"].event_text == landmarks[-2].event_text
        assert by_id["sg"].point == landmarks[-1].point


class TestScoreRelevance:
    def test_identical_strings(self):
        s = "the waterfront promenade"
        assert score_relevance(s, s.split()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_terms_zero(self):
        assert score_relevance("anything at all", []) == 0.0

    def test_partial_overlap_matches_embedding_computation(self):
        desc = "quiet garden near the river"
        terms = ["garden", "river", "tickets"]
        expected = float(
            np.dot(
                embed_text(text_tokens(desc), CFG.d_st, CFG.hash_seed),
                embed_text([t.casefold() for t in terms], CFG.d_st, CFG.hash_seed),
            )
        )
        assert score_relevance(desc, terms) == pytest.approx(max(0.0, expected), abs=1e-12)
        assert 0.0 < score_relevance(desc, terms) < 1.0


def candidate(i, text, credibility=1.0):
    return DescriptionCandidate(landmark_id=f"lm{i}", text=text, source="s", credibility=credibility)


class TestQualityFilter:
    def test_all_clean(self):
        cands = [candidate(i, f"A perfectly fine description number {i} with detail.") for i in range(4)]
        kept, report = quality_filter(cands)
        assert len(kept) == 4
        assert report.kept == report.total == 4
        assert (report.dropped_low_credibility, report.dropped_language, report.dropped_redundant) == (0, 0, 0)

    def test_exact_duplicate_dropped_as_redundant(self):
        text = "This description appears twice in the candidate list."
        kept, report = quality_filter([candidate(0, text), candidate(1, text)])
        assert len(kept) == 1
        assert report.dropped_redundant == 1

    def test_mixed_fixture_tallies(self):
        from geocontext import EngineConfig

        cfg = EngineConfig(min_credibility=0.5, min_chars=20)
        dup = "The same long descriptive sentence about one place."
        cands = [
            candidate(0, "A good long description of the first landmark."),
            candidate(1, "short", credibility=0.9),                      # language: too short
            candidate(2, dup),                                           # kept
            candidate(3, dup),                                           # redundant
            candidate(4, "Another acceptable description here.", credibility=0.1),  # low credibility
            candidate(5, "Mostly unprintable \x00\x01\x02\x03\x04\x05\x06\x07\x08 text"),  # language
        ]
        kept, report = quality_filter(cands, cfg)
        assert [c.landmark_id for c in kept] == ["lm0", "lm2"]
        assert report.total == 6 and report.kept == 2
        assert report.dropped_low_credibility == 1
        assert report.dropped_language == 2
        assert report.dropped_redundant == 1

    @given(st.lists(st.sampled_from([
        candidate(0, "A reasonable description of a place."),
        candidate(1, "tiny"),
        candidate(2, "Another reasonable description of a place."),
        candidate(3, "A reasonable description of a place."),
        candidate(4, "x", credibility=0.0),
    ]), max_size=12))
    @settings(max_examples=40)
    def test_tallies_always_sum(self, cands):
        from geocontext import EngineConfig

        cfg = EngineConfig(min_credibility=0.5)
        _, report = quality_filter(cands, cfg)
        assert (
            report.kept
            + report.dropped_low_credibility
            + report.dropped_language
            + report.dropped_redundant
            == report.total
            == len(cands)
        )


class TestFixtureFetcher:
    def test_reads_fixture_file(self, tmp_path):
        (tmp_path / "lm1.txt").write_text(
            "source: travel-notes\nA lovely spot by the water with shaded walks.\n", encoding="utf-8"
        )
        rec = LandmarkRecord(id="lm1", name="Spot", point=GeoPoint(0, 0), category="landmark")
        cands = FixtureFetcher(tmp_path).fetch(rec)
        assert len(cands) == 1
        assert cands[0].source == "travel-notes"
        assert cands[0].credibility == 1.0

    def test_optional_credibility_line(self, tmp_path):
        (tmp_path / "lm2.txt").write_text(
            "source: reviews\ncredibility: 0.4\nSome user supplied text about the place.\n",
            encoding="utf-8",
        )
        rec = LandmarkRecord(id="lm2", name="Spot", point=GeoPoint(0, 0), category="landmark")
        assert FixtureFetcher(tmp_path).fetch(rec)[0].credibility == 0.4

    def test_missing_file_returns_empty(self, tmp_path):
        rec = LandmarkRecord(id="nope", name="X", point=GeoPoint(0, 0), category="city")
        assert FixtureFetcher(tmp_path).fetch(rec) == []


class TestIndexGazetteer:
    def test_empty_list(self):
        assert index_gazetteer([], HybridIndex(CFG), CFG) == 0

    def test_reindex_idempotent(self, landmarks):
        store = HybridIndex(CFG)
        n1 = index_gazetteer(landmarks, store, CFG)
        size1 = len(store)
        n2 = index_gazetteer(landmarks, store, CFG)
        assert n1 == n2 == len(landmarks)
        assert len(store) == size1
        qv = query_vector(text_tokens(landmarks[0].name), CFG)
        before = store.hybrid_search(QuerySpec(text_vector=qv, k=5))
        index_gazetteer(landmarks, store, CFG)
        assert store.hybrid_search(QuerySpec(text_vector=qv, k=5)) == before

    def test_records_carry_metadata(self, fixture_store, landmarks):
        rec = fixture_store.get("mbs")
        assert rec.point == landmarks[-2].point
        assert rec.window == landmarks[-2].window
        assert rec.credibility == landmarks[-2].credibility
        assert rec.text.startswith("Marina Bay Sands:")

    def test_self_retrieval_rank_one(self, fixture_store, landmarks):
        misses = []
        for r in landmarks:
            qv = query_vector(text_tokens(r.name), CFG)
            hits = fixture_store.hybrid_search(QuerySpec(text_vector=qv, k=1, weights=CFG.weights))
            if hits[0].doc_id != r.id:
                misses.append(r.id)
        assert misses == []


class TestIndexDescriptions:
    def test_descriptions_become_separate_records(self, tmp_path):
        store = HybridIndex(CFG)
        landmark = build_landmarks(4)[0]
        index_gazetteer([landmark], store, CFG)
        cands = [
            DescriptionCandidate(landmark.id, "First fetched description of the place.", "web", 0.8),
            DescriptionCandidate(landmark.id, "Second, different text about the place.", "api", 0.9),
        ]
        n = index_descriptions(landmark, cands, store, CFG)
        assert n == 2
        assert len(store) == 3
        d0 = store.get(f"{landmark.id}#d0")
        assert d0.source == "web" and d0.credibility == 0.8
        assert d0.point == landmark.point
