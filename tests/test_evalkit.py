import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geocontext import DEFAULT_CONFIG
from geocontext.errors import DatasetParseError, EmptyInput, InvalidArgument, LengthMismatch
from geocontext.evalkit import (
    EvalCase,
    contextual_relevance,
    parse_dataset,
    precision_at_k,
    precision_at_k_radius,
    run_eval,
    spatial_accuracy,
    write_report,
)
from geocontext.fixtures import write_eval_dataset
from geocontext.geomodel import GeoPoint
from geocontext.georelate import EARTH_RADIUS_M

CFG = DEFAULT_CONFIG


class TestSpatialAccuracy:
    def test_perfect_predictions(self):
        pts = [GeoPoint(1, 1), GeoPoint(2, 2)]
        assert spatial_accuracy(pts, pts) == (0.0, 0.0)

    def test_one_degree_on_equator(self):
        import math

        mean, median = spatial_accuracy([GeoPoint(0, 0)], [GeoPoint(0, 1)])
        expected = EARTH_RADIUS_M * math.pi / 180
        assert mean == pytest.approx(expected, rel=1e-9)
        assert median == pytest.approx(expected, rel=1e-9)

    def test_five_case_fixture_matches_per_pair_oracle(self):
        from geocontext.georelate import haversine
        import statistics

        preds = [GeoPoint(i, i) for i in range(5)]
        truths = [GeoPoint(i + 0.1 * i, i) for i in range(5)]
        errors = [haversine(p, t) for p, t in zip(preds, truths)]
        mean, median = spatial_accuracy(preds, truths)
        assert mean == pytest.approx(statistics.fmean(errors), rel=1e-12)
        assert median == pytest.approx(statistics.median(errors), rel=1e-12)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            spatial_accuracy([GeoPoint(0, 0)], [])
        with pytest.raises(EmptyInput):
            spatial_accuracy([], [])


class TestPrecisionAtK:
    def test_truth_first_everywhere(self):
        results = [["a", "b"], ["c", "d"]]
        truths = [["a"], ["c"]]
        assert precision_at_k(results, truths, 1) == 1.0

    def test_truth_absent_everywhere(self):
        assert precision_at_k([["a"], ["b"]], [["x"], ["y"]], 3) == 0.0

    def test_counted_by_hand_fixture(self):
        results = [
            ["a", "b", "c"], ["x", "t1", "y"], ["m", "n", "t2"], ["t3", "q", "r"], ["u", "v", "w"],
            ["p", "t4", "z"], ["no", "no", "no"], ["t5", "x", "y"], ["a", "b", "t6"], ["zz", "zz", "zz"],
        ]
        truths = [["a"], ["t1"], ["t2"], ["t3"], ["t"], ["t4"], ["t"], ["t5"], ["t6"], ["t"]]
        # hits at k=3: cases 0,1,2,3,5,7,8 -> 7/10
        assert precision_at_k(results, truths, 3) == pytest.approx(0.7)
        # hits at k=1: cases 0,3,7 -> 3/10
        assert precision_at_k(results, truths, 1) == pytest.approx(0.3)

    @given(st.integers(1, 5))
    def test_monotone_in_k(self, k):
        results = [["a", "b", "c", "d", "e"], ["v", "w", "x", "y", "z"], ["m", "a", "z", "q", "t"]]
        truths = [["c"], ["q"], ["a"]]
        assert precision_at_k(results, truths, k) <= precision_at_k(results, truths, min(5, k + 1))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            precision_at_k([], [], 1)

    def test_radius_variant(self):
        results = [[GeoPoint(0, 0), GeoPoint(10, 10)], [GeoPoint(50, 50)]]
        truths = [GeoPoint(0, 0.001), GeoPoint(-50, -50)]
        assert precision_at_k_radius(results, truths, 2, radius_m=500.0) == 0.5

    @pytest.mark.parametrize("radius_m", [-5.0, float("nan"), float("inf")])
    def test_radius_variant_rejects_bad_radius(self, radius_m):
        with pytest.raises(InvalidArgument):
            precision_at_k_radius([[GeoPoint(0, 0)]], [GeoPoint(0, 0)], 1, radius_m=radius_m)


class TestContextualRelevance:
    def test_identical(self):
        assert contextual_relevance("alpha beta gamma", "alpha beta gamma") == 1.0

    def test_disjoint(self):
        assert contextual_relevance("alpha beta", "gamma delta") == 0.0

    def test_half_overlap_f1(self):
        # answer = half the reference tokens, no extras: F1 = 2/3.
        assert contextual_relevance("alpha beta", "alpha beta gamma delta") == pytest.approx(2 / 3, abs=1e-9)

    def test_case_insensitive(self):
        assert contextual_relevance("Alpha BETA", "alpha beta") == 1.0

    @given(st.text(alphabet="ab ", max_size=30), st.text(alphabet="ab ", max_size=30))
    def test_symmetric(self, a, b):
        assert contextual_relevance(a, b) == pytest.approx(contextual_relevance(b, a), abs=1e-12)

    @given(st.text(alphabet="abcd ", max_size=40), st.text(alphabet="abcd ", max_size=40))
    def test_bounded(self, a, b):
        assert 0.0 <= contextual_relevance(a, b) <= 1.0


class TestParseDataset:
    def test_bad_line_number_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"query": "ok", "truth_doc_ids": ["a"]}\n{nope}\n', encoding="utf-8")
        with pytest.raises(DatasetParseError) as err:
            parse_dataset(path)
        assert err.value.line == 2

    def test_empty_dataset_strict_vs_lenient(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert parse_dataset(path) == []
        with pytest.raises(DatasetParseError):
            parse_dataset(path, strict=True)

    def test_case_requires_some_truth(self):
        with pytest.raises(ValueError):
            EvalCase(query="q")


class TestRunEval:
    def test_self_retrieval_dataset_precision_one(self, tmp_path, landmarks, fixture_store, fixture_gazetteer):
        dataset = write_eval_dataset(landmarks, tmp_path / "eval.jsonl", stride=5)
        report = run_eval(dataset, fixture_store, CFG, k=3, gazetteer=fixture_gazetteer)
        assert report.n_cases == 20
        assert report.precision_at_k[1] == 1.0
        assert report.spatial_accuracy_mean_m == 0.0
        assert report.spatial_accuracy_median_m == 0.0

    def test_report_internally_consistent(self, tmp_path, landmarks, fixture_store, fixture_gazetteer):
        import statistics

        dataset = write_eval_dataset(landmarks, tmp_path / "eval.jsonl", stride=10)
        report = run_eval(dataset, fixture_store, CFG, k=3, gazetteer=fixture_gazetteer)
        errors = [row.spatial_error_m for row in report.rows if row.spatial_error_m is not None]
        assert report.spatial_accuracy_mean_m == pytest.approx(statistics.fmean(errors), rel=1e-9)
        rels = [row.relevance for row in report.rows if row.relevance is not None]
        assert report.contextual_relevance_mean == pytest.approx(statistics.fmean(rels), rel=1e-9)
        hit1 = sum(1 for row in report.rows if row.hit_at_1) / len(report.rows)
        assert report.precision_at_k[1] == pytest.approx(hit1, rel=1e-9)

    def test_deterministic(self, tmp_path, landmarks, fixture_store, fixture_gazetteer):
        dataset = write_eval_dataset(landmarks, tmp_path / "eval.jsonl", stride=20)
        r1 = run_eval(dataset, fixture_store, CFG, k=3, gazetteer=fixture_gazetteer)
        r2 = run_eval(dataset, fixture_store, CFG, k=3, gazetteer=fixture_gazetteer)
        assert r1.to_json() == r2.to_json()

    def test_case_order_invariance_of_aggregates(self, tmp_path, landmarks, fixture_store, fixture_gazetteer):
        lines = write_eval_dataset(landmarks, tmp_path / "fwd.jsonl", stride=10).read_text(encoding="utf-8").strip().splitlines()
        rev = tmp_path / "rev.jsonl"
        rev.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
        fwd_report = run_eval(tmp_path / "fwd.jsonl", fixture_store, CFG, k=3, gazetteer=fixture_gazetteer)
        rev_report = run_eval(rev, fixture_store, CFG, k=3, gazetteer=fixture_gazetteer)
        assert fwd_report.precision_at_k == rev_report.precision_at_k
        assert fwd_report.spatial_accuracy_mean_m == pytest.approx(rev_report.spatial_accuracy_mean_m)
        assert fwd_report.contextual_relevance_mean == pytest.approx(rev_report.contextual_relevance_mean)

    def test_report_files_written(self, tmp_path, landmarks, fixture_store, fixture_gazetteer):
        dataset = write_eval_dataset(landmarks, tmp_path / "eval.jsonl", stride=25)
        report = run_eval(dataset, fixture_store, CFG, k=2, gazetteer=fixture_gazetteer)
        json_path, txt_path = write_report(report, tmp_path / "report")
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        assert doc["n_cases"] == report.n_cases
        assert "precision@k" in txt_path.read_text(encoding="utf-8") or "p@1" in txt_path.read_text(encoding="utf-8")

    def test_radius_variant_flag(self, tmp_path, landmarks, fixture_store, fixture_gazetteer):
        dataset = write_eval_dataset(landmarks, tmp_path / "eval.jsonl", stride=10)
        report = run_eval(
            dataset, fixture_store, CFG, k=3, gazetteer=fixture_gazetteer, radius_m=50.0
        )
        # Self-retrieval puts the truth record (at the truth point) at rank 1.
        assert report.precision_at_k[1] == 1.0
