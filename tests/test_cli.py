import json
import math

import pytest

from geocontext.cli import main
from geocontext.fixtures import (
    EVENT_TIME,
    build_landmarks,
    write_description_fixtures,
    write_eval_dataset,
    write_gazetteer_csv,
)
from geocontext.georelate import EARTH_RADIUS_M
from geocontext.geotext import subword_train


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    records = build_landmarks(20)
    gazetteer_csv = write_gazetteer_csv(records, root / "gaz.csv")
    fixtures_dir = root / "descriptions"
    write_description_fixtures(records, fixtures_dir, count=2)
    dataset = write_eval_dataset(records, root / "eval.jsonl", stride=3)
    store = root / "store.gcev"
    code = main(["ingest", "--gazetteer", str(gazetteer_csv), "--store", str(store)])
    assert code == 0
    return {
        "root": root,
        "gazetteer": gazetteer_csv,
        "fixtures": fixtures_dir,
        "dataset": dataset,
        "store": store,
    }


class TestTokenizeCommand:
    def test_ngram(self, capsys):
        assert main(["tokenize", "New York City", "--scheme", "ngram", "--n", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert [line.split("\t")[2] for line in out] == ["New York", "York City"]

    def test_semantic(self, workspace, capsys):
        code = main(
            ["tokenize", "Visit Marina Bay Sands", "--scheme", "semantic",
             "--gazetteer", str(workspace["gazetteer"])]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "landmark\t" in out

    def test_subword(self, workspace, capsys):
        model_path = workspace["root"] / "model.json"
        subword_train(["aaab", "aaab"], 3).save(model_path)
        assert main(["tokenize", "aaab", "--scheme", "subword", "--model", str(model_path)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert [line.split("\t")[2] for line in out] == ["aa", "a", "b"]

    def test_usage_error_exits_1(self, capsys):
        assert main(["tokenize", "text", "--scheme", "bogus"]) == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["tokenize", "text", "--nope"]) == 1


class TestIngestCommand:
    def test_ingest_reports_count(self, workspace, capsys, tmp_path):
        store = tmp_path / "s.gcev"
        code = main(["ingest", "--gazetteer", str(workspace["gazetteer"]), "--store", str(store)])
        assert code == 0
        assert "indexed=20" in capsys.readouterr().out

    def test_ingest_with_fixtures_adds_descriptions(self, workspace, capsys, tmp_path):
        store = tmp_path / "s.gcev"
        code = main(
            ["ingest", "--gazetteer", str(workspace["gazetteer"]),
             "--fixtures", str(workspace["fixtures"]), "--store", str(store)]
        )
        assert code == 0
        assert "indexed=22" in capsys.readouterr().out

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["ingest", "--gazetteer", str(tmp_path / "nope.csv"), "--store", str(tmp_path / "s")])
        assert code == 2
        assert "error_code=" in capsys.readouterr().err

    def test_bad_gazetteer_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,the,right,header\n", encoding="utf-8")
        code = main(["ingest", "--gazetteer", str(bad), "--store", str(tmp_path / "s")])
        assert code == 2
        assert "error_code=MissingHeader" in capsys.readouterr().err


    def test_gazetteer_that_is_not_utf8_is_parse_error(self, workspace, tmp_path, capsys):
        data = workspace["gazetteer"].read_bytes()
        at = data.index(b"\n", data.index(b"\n") + 1) + 3  # third byte of the second record
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(data[:at] + b"\xff" + data[at:])
        code = main(["ingest", "--gazetteer", str(bad), "--store", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error_code=ParseError: gazetteer")
        assert f"(line 3, offset {at})" in err

    def fixture_workspace(self, workspace, tmp_path, body: bytes):
        """A copy of the description fixtures with the first one replaced."""
        fixtures = tmp_path / "descriptions"
        fixtures.mkdir()
        for path in workspace["fixtures"].iterdir():
            (fixtures / path.name).write_bytes(path.read_bytes())
        first = sorted(fixtures.iterdir())[0]
        first.write_bytes(body)
        return fixtures, first

    def test_fixture_that_is_not_utf8_is_parse_error(self, workspace, tmp_path, capsys):
        fixtures, bad = self.fixture_workspace(workspace, tmp_path, b"source: web\nCaf\xe9 by the water, open late.\n")
        code = main(["ingest", "--gazetteer", str(workspace["gazetteer"]), "--fixtures", str(fixtures),
                     "--store", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error_code=ParseError: ")
        assert bad.name in err and "(line 2, offset 15)" in err

    def test_fixture_credibility_that_is_not_a_number_is_row_error(self, workspace, tmp_path, capsys):
        fixtures, bad = self.fixture_workspace(
            workspace, tmp_path, b"source: web\ncredibility: high\nA long enough description of the place.\n")
        code = main(["ingest", "--gazetteer", str(workspace["gazetteer"]), "--fixtures", str(fixtures),
                     "--store", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error_code=RowError: line 2: ")
        assert bad.name in err and "'high'" in err


class TestQueryCommand:
    def test_self_retrieval_citation(self, workspace, capsys):
        code = main(
            ["query", "--store", str(workspace["store"]), "--prompt", "Amber Basalt",
             "--gazetteer", str(workspace["gazetteer"]), "--k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("Based on 3 sources: Amber Basalt")
        assert "citation: lm000" in out

    def test_json_output_shape(self, workspace, capsys):
        code = main(
            ["query", "--store", str(workspace["store"]), "--prompt", "Cedar Delta",
             "--json", "--k", "2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"response", "citations"}
        assert all(set(c) == {"doc_id", "source"} for c in payload["citations"])

    def test_reproducible_output(self, workspace, capsys):
        argv = ["query", "--store", str(workspace["store"]), "--prompt", "Ember Falcon", "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_time_flag_accepted(self, workspace, capsys):
        code = main(
            ["query", "--store", str(workspace["store"]),
             "--prompt", "Where is the Coldplay event going to happen in Singapore?",
             "--gazetteer", str(workspace["gazetteer"]), "--time", str(EVENT_TIME), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(c["doc_id"] == "mbs" for c in payload["citations"])


    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_time_exits_2(self, workspace, capsys, bad):
        code = main(
            ["query", "--store", str(workspace["store"]), "--prompt", "Amber Basalt",
             "--gazetteer", str(workspace["gazetteer"]), f"--time={bad}", "--json"]
        )
        assert code == 2
        assert "time" in capsys.readouterr().err

    def test_prompt_with_an_undecodable_byte_exits_2(self, workspace, capsys):
        # A shell passes $'harbour \xff' as bytes that are not UTF-8, and
        # Python decodes the stray byte to the lone surrogate U+DCFF.
        code = main(["query", "--store", str(workspace["store"]), "--prompt", "harbour \udcff", "--json"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error_code=InvalidArgument: ")

    def test_corrupt_store_is_data_error(self, workspace, tmp_path, capsys):
        data = bytearray(workspace["store"].read_bytes())
        data[64] ^= 0xFF  # first byte of the first vector: the checksum no longer matches
        store = tmp_path / "corrupt.gcev"
        store.write_bytes(bytes(data))
        code = main(["query", "--store", str(store), "--prompt", "Amber Basalt"])
        assert code == 2
        assert "error_code=CorruptFile" in capsys.readouterr().err


class TestComputeCommand:
    def write_fc(self, path, *points):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature", "id": pid,
                 "geometry": {"type": "Point", "coordinates": [lon, lat]}, "properties": {}}
                for pid, lat, lon in points
            ],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_identical_single_points_zero_matrix(self, tmp_path, capsys):
        a = self.write_fc(tmp_path / "a.geojson", ("p", 1.5, 2.5))
        out = tmp_path / "matrix.json"
        code = main(["compute", "--op", "distance-matrix", "--a", str(a), "--b", str(a), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["meters"] == [[0.0]]
        assert (tmp_path / "matrix.json.summary.txt").exists()

    def test_within_radius(self, tmp_path, capsys):
        a = self.write_fc(tmp_path / "a.geojson", ("near", 0.0, 0.0), ("far", 20.0, 20.0))
        out = tmp_path / "subset.geojson"
        code = main(
            ["compute", "--op", "within-radius", "--a", str(a), "--center", "0, 0",
             "--radius-m", "1000", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [f["id"] for f in doc["features"]] == ["near"]

    def test_near_antipodal_distance_matrix(self, tmp_path, capsys):
        a = self.write_fc(tmp_path / "a.geojson", ("a", -83.59841063608013, -140.89987463008316))
        b = self.write_fc(tmp_path / "b.geojson", ("b", 83.59841063493201, 39.100125367551286))
        out = tmp_path / "matrix.json"
        code = main(["compute", "--op", "distance-matrix", "--a", str(a), "--b", str(b), "--out", str(out)])
        assert code == 0
        [[d]] = json.loads(out.read_text(encoding="utf-8"))["meters"]
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-9)

    def test_missing_b_is_data_error(self, workspace, tmp_path, capsys):
        # Also out-of-domain numbers: exit 2 with an error code, never a traceback.
        a = self.write_fc(tmp_path / "a.geojson", ("p", 0, 0))
        compute = ["compute", "--a", str(a), "--out", str(tmp_path / "o")]
        within = [*compute, "--op", "within-radius", "--center", "0, 0", "--radius-m"]
        for argv in (
            [*compute, "--op", "nearest-join"],
            [*within, "-1"],
            [*within, "nan"],
            [*within, "inf"],
            ["query", "--store", str(workspace["store"]), "--prompt", "Where is it?", "--k", "0"],
        ):
            assert main(argv) == 2, argv
            assert "error_code=" in capsys.readouterr().err

    def test_malformed_collection_is_parse_error(self, tmp_path, capsys):
        def feature(geometry):
            return {"type": "FeatureCollection", "features": [{"type": "Feature", "geometry": geometry}]}

        for doc in (
            {"type": "FeatureCollection", "features": 5},
            feature({"type": "Polygon", "coordinates": [5]}),
            feature({"type": "Point", "coordinates": [True, False]}),
        ):
            a = tmp_path / "a.geojson"
            a.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["compute", "--op", "within-radius", "--a", str(a), "--center", "0, 0",
                    "--radius-m", "1000", "--out", str(tmp_path / "o")]
            assert main(argv) == 2, doc
            assert "error_code=ParseError" in capsys.readouterr().err


    def test_feature_id_that_is_not_a_string_or_number_is_parse_error(self, tmp_path, capsys):
        for fid in (True, {"x": 1}, [1]):
            doc = {"type": "FeatureCollection", "features": [
                {"type": "Feature", "id": fid, "geometry": {"type": "Point", "coordinates": [0, 0]}}]}
            a = tmp_path / "a.geojson"
            a.write_text(json.dumps(doc), encoding="utf-8")
            out = tmp_path / "o.json"
            argv = ["compute", "--op", "distance-matrix", "--a", str(a), "--b", str(a), "--out", str(out)]
            assert main(argv) == 2, fid
            assert capsys.readouterr().err.startswith("error_code=ParseError: feature 0: id must be"), fid
            assert not out.exists()

    def test_file_that_is_not_utf8_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.geojson"
        path.write_bytes(b'{"type": "FeatureCollection", "name": "Caf\xe9", "features": []}')
        code = main(["compute", "--op", "within-radius", "--a", str(path), "--center", "1.3,103.8",
                     "--radius-m", "10", "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error_code=ParseError: geospatial file") and "(line 1, offset 42)" in err


class TestEvalCommand:
    def test_eval_writes_report(self, workspace, capsys, tmp_path):
        out = tmp_path / "report"
        code = main(
            ["eval", "--store", str(workspace["store"]), "--dataset", str(workspace["dataset"]),
             "--k", "3", "--out", str(out), "--gazetteer", str(workspace["gazetteer"])]
        )
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert doc["precision_at_k"]["1"] == 1.0

    def test_eval_radius_variant_flag(self, workspace, capsys, tmp_path):
        out = tmp_path / "radius_report"
        code = main(
            ["eval", "--store", str(workspace["store"]), "--dataset", str(workspace["dataset"]),
             "--k", "3", "--out", str(out), "--gazetteer", str(workspace["gazetteer"]),
             "--radius-m", "50"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "radius_report.json").read_text(encoding="utf-8"))
        assert doc["precision_at_k"]["1"] == 1.0

    def test_eval_bad_radius_is_invalid_argument(self, workspace, capsys, tmp_path):
        for radius in ("-5", "nan", "inf"):
            code = main(
                ["eval", "--store", str(workspace["store"]), "--dataset", str(workspace["dataset"]),
                 "--k", "3", "--out", str(tmp_path / "report"), "--radius-m", radius]
            )
            assert code == 2, radius
            assert "error_code=InvalidArgument" in capsys.readouterr().err


    def test_dataset_that_is_not_utf8_is_parse_error(self, workspace, capsys, tmp_path):
        dataset = tmp_path / "latin1.jsonl"
        dataset.write_bytes(workspace["dataset"].read_bytes() + b'{"query": "Caf\xe9", "truth_doc_ids": ["lm000"]}\n')
        lines = workspace["dataset"].read_bytes().count(b"\n")
        code = main(["eval", "--store", str(workspace["store"]), "--dataset", str(dataset),
                     "--out", str(tmp_path / "report")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error_code=ParseError: dataset")
        assert f"(line {lines + 1}, offset " in err


class TestConfigFile:
    def test_dump_load_round_trip(self, tmp_path):
        from geocontext.config import DEFAULT_CONFIG, dump_config, load_config

        path = tmp_path / "engine.cfg"
        path.write_text(dump_config(DEFAULT_CONFIG), encoding="utf-8")
        assert load_config(path) == DEFAULT_CONFIG

    def test_config_roundtrip_and_unknown_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "engine.cfg"
        cfg_path.write_text("lambda_m = 2000\nw_t = 0.5\nw_s = 0.4\nw_d = 0.1\n", encoding="utf-8")
        records = build_landmarks(5)
        gaz = write_gazetteer_csv(records, tmp_path / "g.csv")
        store = tmp_path / "s.gcev"
        assert main(["--config", str(cfg_path), "ingest", "--gazetteer", str(gaz), "--store", str(store)]) == 0

        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_key = 1\n", encoding="utf-8")
        code = main(["--config", str(bad), "ingest", "--gazetteer", str(gaz), "--store", str(store)])
        assert code == 2
        assert "error_code=ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"w_t": math.nan, "w_s": 0.5, "w_d": 0.5},
            {"w_t": 0.5, "w_s": math.inf, "w_d": 0.5},
            {"lambda_m": math.nan},
            {"lambda_m": math.inf},
            {"earth_radius_m": math.nan},
            {"earth_radius_m": -1.0},
            {"earth_radius_m": 0.0},
        ],
    )
    def test_non_finite_or_non_positive_scale_is_config_error(self, fields):
        from geocontext.config import EngineConfig
        from geocontext.errors import ConfigError

        with pytest.raises(ConfigError):
            EngineConfig(**fields)

    def test_config_that_is_not_utf8_exits_2(self, workspace, tmp_path, capsys):
        path = tmp_path / "latin1.conf"
        path.write_bytes(b"# caf\xe9\nlambda_m = 500\n")
        code = main(["--config", str(path), "query", "--store", str(workspace["store"]), "--prompt", "Amber Basalt"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error_code=ParseError: config") and "(line 1, offset 5)" in err

    def test_nan_weight_in_config_file_exits_2(self, workspace, tmp_path, capsys):
        cfg_path = tmp_path / "nan.cfg"
        cfg_path.write_text("w_t = nan\nw_s = 0.5\nw_d = 0.5\n", encoding="utf-8")
        code = main(["--config", str(cfg_path), "query", "--store", str(workspace["store"]),
                     "--prompt", "Where is Marina Bay Sands?", "--json"])
        assert code == 2
        assert "error_code=ConfigError" in capsys.readouterr().err
