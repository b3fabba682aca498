import json
import threading
import urllib.error
import urllib.request

import pytest

from geocontext import DEFAULT_CONFIG
from geocontext.cli import main
from geocontext.fixtures import build_landmarks, build_store, write_gazetteer_csv
from geocontext.geotext import Gazetteer
from geocontext.server import MAX_BODY_BYTES, make_server

CFG = DEFAULT_CONFIG


@pytest.fixture(scope="module")
def running_server(tmp_path_factory):
    records = build_landmarks(20)
    store = build_store(records, CFG)
    server = make_server(store, Gazetteer.from_records(records), CFG, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield {"base": base, "records": records, "store": store}
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.read()


def post(url, payload):
    return post_raw(url, json.dumps(payload).encode("utf-8"))


def post_raw(url, data, headers=None):
    req = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(req, timeout=5) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


class TestHealthz:
    def test_reports_record_count(self, running_server):
        status, body = get(running_server["base"] + "/healthz")
        assert status == 200
        assert json.loads(body) == {"records": 20, "status": "ok"}

    def test_unknown_path_404(self, running_server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(running_server["base"] + "/nope")
        assert err.value.code == 404


class TestQueryEndpoint:
    def test_query_returns_citations(self, running_server):
        status, body = post(running_server["base"] + "/query", {"prompt": "Amber Basalt", "k": 3})
        assert status == 200
        payload = json.loads(body)
        assert payload["citations"][0]["doc_id"] == "lm000"

    def test_matches_cli_query_bytes(self, running_server, tmp_path, capsys):
        records = running_server["records"]
        store_path = tmp_path / "store.gcev"
        running_server["store"].save(store_path)
        gaz_path = write_gazetteer_csv(records, tmp_path / "gaz.csv")
        prompt = "Where is Cedar Delta?"
        assert main(
            ["query", "--store", str(store_path), "--prompt", prompt,
             "--gazetteer", str(gaz_path), "--k", "4", "--json"]
        ) == 0
        cli_bytes = capsys.readouterr().out.strip().encode("utf-8")
        status, http_bytes = post(running_server["base"] + "/query", {"prompt": prompt, "k": 4})
        assert status == 200
        assert http_bytes == cli_bytes

    def test_empty_prompt_is_400(self, running_server):
        for payload in (
            {"prompt": "", "k": 3},
            {"prompt": "Amber Basalt", "time": "nan"},
            {"prompt": "Amber Basalt", "time": float("inf")},
            {"prompt": "Amber Basalt", "k": 101},
            {"prompt": "Amber Basalt", "k": 1e9},
            {"prompt": "Amber Basalt", "k": float("inf")},
        ):
            status, body = post(running_server["base"] + "/query", payload)
            assert status == 400, payload
            assert "error" in json.loads(body)

    def test_bad_json_is_400(self, running_server):
        # Not JSON, JSON that is not an object, and a negative length, on
        # both POST endpoints.
        for path in ("/query", "/compute"):
            for data, headers in (
                (b"{not json", {}),
                (b"[1, 2]", {}),
                (b'"Amber Basalt"', {}),
                (b"{}", {"Content-Length": "-1"}),
            ):
                status, body = post_raw(running_server["base"] + path, data, headers)
                assert status == 400, (path, data, headers)
                assert json.loads(body) == {"error": "bad JSON body"}

    def test_prompt_that_is_not_a_string_is_typed_400(self, running_server):
        # A number, a list, null and an object: a typed 400 on a connection
        # that stays up, not an error from inside the prompt analysis.
        for prompt in (5, ["a"], None, {"text": "Amber Basalt"}):
            status, body = post(running_server["base"] + "/query", {"prompt": prompt, "k": 3})
            assert status == 400, prompt
            assert json.loads(body)["error"].startswith("InvalidArgument: "), body

    def test_deeply_nested_body_is_400(self, running_server):
        # Far deeper than the JSON decoder's recursion limit, on both POST
        # endpoints, bare and inside an object.
        for path in ("/query", "/compute"):
            for data in (b"[" * 100_000, b'{"prompt": ' + b"[" * 100_000):
                status, body = post_raw(running_server["base"] + path, data)
                assert status == 400, path
                assert json.loads(body) == {"error": "bad JSON body"}

    def test_prompt_with_a_lone_surrogate_is_typed_400(self, running_server):
        status, body = post_raw(running_server["base"] + "/query", b'{"prompt": "harbour \\udcff"}')
        assert status == 400
        assert json.loads(body)["error"].startswith("InvalidArgument: "), body

    def test_body_over_cap_is_400_unread(self, running_server):
        # Only two bytes follow the header: a server that tried to read the
        # declared length would block until the client timed out.
        for path in ("/query", "/compute"):
            status, body = post_raw(
                running_server["base"] + path, b"{}", {"Content-Length": str(MAX_BODY_BYTES + 1)}
            )
            assert status == 400, path
            assert json.loads(body) == {"error": f"body larger than {MAX_BODY_BYTES} bytes"}


class TestComputeEndpoint:
    def fc(self, *points):
        return {
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature", "id": pid,
                 "geometry": {"type": "Point", "coordinates": [lon, lat]}, "properties": {}}
                for pid, lat, lon in points
            ],
        }

    def test_distance_matrix(self, running_server):
        payload = {"op": "distance-matrix", "a": self.fc(("p", 1.0, 2.0)), "b": self.fc(("q", 1.0, 2.0))}
        status, body = post(running_server["base"] + "/compute", payload)
        assert status == 200
        doc = json.loads(body)
        assert doc["kind"] == "distance_matrix"
        assert doc["document"]["meters"] == [[0.0]]

    def test_within_radius(self, running_server):
        payload = {
            "op": "within-radius",
            "a": self.fc(("near", 0.0, 0.0), ("far", 30.0, 30.0)),
            "center": {"lat": 0.0, "lon": 0.0},
            "radius_m": 5000,
        }
        status, body = post(running_server["base"] + "/compute", payload)
        assert status == 200
        assert [f["id"] for f in json.loads(body)["document"]["features"]] == ["near"]

    def test_unknown_op_400(self, running_server):
        within = {"op": "within-radius", "a": self.fc(("near", 0.0, 0.0)), "center": {"lat": 0.0, "lon": 0.0}}
        for payload in ({"op": "teleport"}, {**within, "radius_m": "nan"}, {**within, "radius_m": float("inf")}):
            status, body = post(running_server["base"] + "/compute", payload)
            assert status == 400, payload
            assert "error" in json.loads(body)
