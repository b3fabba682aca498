from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocontext import DEFAULT_CONFIG
from oracles import oracle_composite, stored_vector

from geocontext.errors import DuplicateId, InvalidArgument, MissingHeader, MissingWindow, ParseError, RowError
from geocontext.fixtures import build_landmarks, write_gazetteer_csv
from geocontext.geomodel import GeoPoint, LandmarkRecord, TimeWindow
from geocontext.ingest import (
    DescriptionCandidate,
    FixtureFetcher,
    index_descriptions,
    index_gazetteer,
    load_gazetteer,
    quality_filter,
    score_relevance,
)
from geocontext.spatial_embed import _projection_matrix, embed_text, make_composite, query_vector, text_tokens
from geocontext.vectorstore import HybridIndex, QuerySpec, VectorRecord

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

    def test_not_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "gaz.csv"
        path.write_bytes((HEADER + "\nb1,Caf").encode() + b"\xe9" + b",1.0,2.0,cafe,,src,1.0,\n")
        with pytest.raises(ParseError, match=r"\(line 2, offset 73\)"):
            load_gazetteer(path)

    def test_missing_header(self, tmp_path):
        path = write_csv(tmp_path, "", header="wrong,columns")
        with pytest.raises(MissingHeader):
            load_gazetteer(path)
        with pytest.raises(MissingHeader):
            load_gazetteer(write_csv(tmp_path, "", header="", name="empty.csv"))

    def test_lenient_diagnostics_one_row_of_each_failure(self, tmp_path):
        # Blank and whitespace-only rows are skipped but still count lines;
        # cells past the optional columns are ignored.
        rows = [
            "a,Alpha,1.0,2.0,city,d,s,0.5,SG|Central,,,",
            "b,Beta,1.0,2.0,city",
            "",
            " , ,\t",
            "c,Gamma,north,2.0,city,d,s,0.5,",
            "d,Delta,1.0,east,city,d,s,0.5,",
            "e,Epsilon,91.5,2.0,city,d,s,0.5,",
            "f,Zeta,nan,2.0,city,d,s,0.5,",
            "g,Eta,1.0,inf,city,d,s,0.5,",
            "h,Theta,1.0,2.0,city,d,s,high,",
            "i,Iota,1.0,2.0,city,d,s,1.5,",
            "j,,1.0,2.0,city,d,s,0.5,",
            "k,Kappa,1.0,2.0,city,d,s,0.5,,soon,10,",
            "l,Lambda,1.0,2.0,city,d,s,0.5,,20,10,Fair",
            "m,Mu,1.0,2.0,city,d,s,0.5,,inf,10,",
            "n,Nu,1.0,2.0,city,d,s,0.5,,5,,",
            "o,Xi,1.0,540.0,city,d,s,0.5,A|,0,10, Fair ,extra,cells",
            "p,Omicron,-90,-180,city,,s,1,,,,  ",
            "q,Pi,1e400,2.0,city,d,s,0.5,",
        ]
        path = write_csv(tmp_path, "\n".join(rows) + "\n", header=HEADER + ",window_start,window_end,event")
        records, diagnostics = load_gazetteer(path)
        assert diagnostics == [
            "line 3: expected >= 9 columns, got 5",
            "line 6: could not convert string to float: 'north'",
            "line 7: could not convert string to float: 'east'",
            "line 8: latitude 91.5 outside [-90, 90]",
            "line 9: coordinates must be finite, got (nan, 2.0)",
            "line 10: coordinates must be finite, got (1.0, inf)",
            "line 11: could not convert string to float: 'high'",
            "line 12: credibility 1.5 outside [0, 1]",
            "line 13: landmark name must be non-empty",
            "line 14: could not convert string to float: 'soon'",
            "line 15: window start 20.0 after end 10.0",
            "line 16: time window bounds must be finite",
            "line 17: could not convert string to float: ''",
            "line 20: coordinates must be finite, got (inf, 2.0)",
        ]
        assert [repr(r) for r in records] == [
            "LandmarkRecord(id='a', name='Alpha', point=GeoPoint(lat=1.0, lon=2.0), category='city', "
            "description='d', source='s', credibility=0.5, admin_path=('SG', 'Central'), window=None, "
            "event_text=None)",
            "LandmarkRecord(id='o', name='Xi', point=GeoPoint(lat=1.0, lon=180.0), category='city', "
            "description='d', source='s', credibility=0.5, admin_path=('A',), "
            "window=TimeWindow(start=0.0, end=10.0), event_text='Fair')",
            "LandmarkRecord(id='p', name='Omicron', point=GeoPoint(lat=-90.0, lon=180.0), category='city', "
            "description='', source='s', credibility=1.0, admin_path=(), window=None, event_text=None)",
        ]
        with pytest.raises(RowError, match="expected >= 9 columns") as err:
            load_gazetteer(path, strict=True)
        assert err.value.line == 3

    def test_window_cells_without_their_header_columns_are_read(self, tmp_path):
        path = write_csv(tmp_path, "e,Event Hall,1,2,landmark,D,src,0.9,,100,200,Launch party\n")
        (rec,), diagnostics = load_gazetteer(path)
        assert diagnostics == []
        assert rec.window == TimeWindow(100.0, 200.0) and rec.event_text == "Launch party"

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

    def test_not_utf8_is_parse_error(self, tmp_path):
        (tmp_path / "lm3.txt").write_bytes(b"source: reviews\nCaf\xe9 on the corner, open late every day.\n")
        rec = LandmarkRecord(id="lm3", name="Spot", point=GeoPoint(0, 0), category="landmark")
        with pytest.raises(ParseError, match=r"lm3\.txt.*\(line 2, offset 19\)"):
            FixtureFetcher(tmp_path).fetch(rec)

    @pytest.mark.parametrize("value", ["high", "", "0.5 stars"])
    def test_credibility_that_is_not_a_number_is_row_error(self, tmp_path, value):
        (tmp_path / "lm4.txt").write_text(
            f"source: reviews\ncredibility: {value}\nSome user supplied text about the place.\n", encoding="utf-8")
        rec = LandmarkRecord(id="lm4", name="Spot", point=GeoPoint(0, 0), category="landmark")
        with pytest.raises(RowError, match=r"line 2: .*lm4\.txt"):
            FixtureFetcher(tmp_path).fetch(rec)

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

    def test_more_records_than_one_batch_stop_at_missing_window(self, landmarks):
        records = [replace(r, id=f"{r.id}-{k:02d}") for k in range(11) for r in landmarks]
        bad = 1050
        records[bad] = replace(records[bad], window=None, event_text="Partner Summit")
        store = HybridIndex(CFG)
        with pytest.raises(MissingWindow, match=records[bad].id):
            index_gazetteer(records, store, CFG)
        assert store.doc_ids() == sorted(r.id for r in records[:bad])
        for r in records[:3] + records[1020:bad]:
            got = store.get(r.id)
            assert got.vector.tobytes() == stored_vector(make_composite(r, r.event_text, CFG).standardized).tobytes()
            assert got.text == (f"{r.name}: {r.description}" if r.description else r.name)

    @pytest.mark.parametrize("field", ["name", "category", "description", "event_text"])
    def test_lone_surrogate_stops_at_the_record(self, landmarks, field):
        # As with a missing window: the records before it are stored, and
        # the error is typed and names the record.
        records = [replace(r, id=f"{r.id}-{k:02d}") for k in range(11) for r in landmarks]
        bad = 1030
        changes = {field: "harbour \udcff"}
        if field == "event_text" and records[bad].window is None:
            changes["window"] = TimeWindow(0.0, 1.0)
        records[bad] = replace(records[bad], **changes)
        store = HybridIndex(CFG)
        with pytest.raises(InvalidArgument, match=f"{records[bad].id}.*{field.replace('_', ' ')}"):
            index_gazetteer(records, store, CFG)
        assert store.doc_ids() == sorted(r.id for r in records[:bad])

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


def one_upsert_per_record(records, store):
    """`index_gazetteer` as one `make_composite` and one `upsert` per
    record, in order."""
    for rec in records:
        vector = make_composite(rec, rec.event_text, CFG).standardized
        text = f"{rec.name}: {rec.description}" if rec.description else rec.name
        store.upsert(VectorRecord(rec.id, vector, rec.point, rec.window, rec.credibility, rec.source, text))


def with_field(rec, field, value):
    """rec with one field set, past `LandmarkRecord`'s own checks (a NaN
    credibility would fail them)."""
    rec = replace(rec)
    object.__setattr__(rec, field, value)
    return rec


class TestIndexGazetteerBatches:
    BAD = {
        "nan credibility": lambda rec: with_field(rec, "credibility", float("nan")),
        "inf credibility": lambda rec: with_field(rec, "credibility", float("inf")),
        "id": lambda rec: with_field(rec, "id", rec.id + "\udcff"),
        "source": lambda rec: with_field(rec, "source", "src \ud800"),
        "text": lambda rec: with_field(rec, "description", rec.description + " \udcff"),
        "event without window": lambda rec: with_field(with_field(rec, "window", None), "event_text", "Fair"),
    }

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 1023, 1024, 1020]),
        bad=st.none() | st.tuples(st.integers(0, 1024), st.sampled_from(sorted(BAD))),
        rotate=st.integers(0, 99),
    )
    def test_stores_what_one_upsert_per_record_stores(self, landmarks, n, bad, rotate):
        pool = landmarks[rotate:] + landmarks[:rotate]
        records = [replace(r, id=f"{r.id}-{k:02d}") for k in range(11) for r in pool][:n]
        if bad is not None:
            at = bad[0] % n
            records[at] = self.BAD[bad[1]](records[at])
        batch, each = HybridIndex(CFG), HybridIndex(CFG)
        stop, want_error = n, None
        try:
            one_upsert_per_record(records, each)
        except (InvalidArgument, MissingWindow) as exc:
            stop, want_error = at, exc
        if want_error is None:
            assert index_gazetteer(records, batch, CFG) == n
        else:
            with pytest.raises(type(want_error)) as err:
                index_gazetteer(records, batch, CFG)
            assert str(err.value) == str(want_error)
        assert batch.doc_ids() == each.doc_ids() == sorted(r.id for r in records[:stop])
        matrix = _projection_matrix(CFG.projection_seed, CFG.d_text, CFG.concat_dim)
        for rec in records[:stop]:
            got, want = batch.get(rec.id), each.get(rec.id)
            oracle = stored_vector(oracle_composite(rec, rec.event_text, CFG, matrix)[3])
            assert got.vector.tobytes() == want.vector.tobytes() == oracle.tobytes()
            assert (got.point, got.window, got.source, got.text) == (want.point, want.window, want.source, want.text)
            assert np.float64(got.credibility).tobytes() == np.float64(want.credibility).tobytes()


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
