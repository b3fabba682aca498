"""Embedded HTTP query service.

Endpoints (JSON bodies, UTF-8):
  GET  /healthz  -> {"records": n, "status": "ok"}
  POST /query    -> {"prompt", "k"?, "time"?} -> {"response", "citations"}
  POST /compute  -> {"op", "a", "b"?, "center"?, "radius_m"?} with inline
                    FeatureCollections -> {"kind", "summary", "document"}

The service holds an immutable store snapshot; ingestion is offline.
POST /query responses are byte-identical to `gce query --json` for the same
store, prompt, and config.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import GeoContextError, InvalidArgument
from .geocompute import distance_matrix, nearest_join, parse_feature_collection, within_radius
from .geomodel import GeoPoint
from .geotext.gazetteer import Gazetteer
from .ragctx import answer_prompt, payload_json
from .vectorstore import HybridIndex

# Largest k a POST /query may ask for: the relevance filter is quadratic in k.
MAX_K = 100
# Largest request body read, in bytes: a 20k-feature inline /compute
# FeatureCollection is about 3 MB.
MAX_BODY_BYTES = 32 * 1024 * 1024


def _compute_payload(body: dict) -> dict:
    op = body.get("op")
    if op == "distance-matrix":
        result = distance_matrix(parse_feature_collection(body["a"]), parse_feature_collection(body["b"]))
    elif op == "nearest-join":
        result = nearest_join(parse_feature_collection(body["a"]), parse_feature_collection(body["b"]))
    elif op == "within-radius":
        center = body["center"]
        result = within_radius(
            parse_feature_collection(body["a"]),
            GeoPoint(float(center["lat"]), float(center["lon"])),
            float(body["radius_m"]),
        )
    else:
        raise ValueError(f"unknown compute op {op!r}")
    return {"kind": result.kind, "summary": result.summary, "document": result.document}


class _Handler(BaseHTTPRequestHandler):
    server_version = "geocontext/0.1"

    def log_message(self, fmt, *args):  # keep stdout reproducible
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = payload_json(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/healthz":
            self._send(200, {"status": "ok", "records": len(self.server.store)})
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                raise ValueError("negative Content-Length")
            if length > MAX_BODY_BYTES:
                self._send(400, {"error": f"body larger than {MAX_BODY_BYTES} bytes"})
                return
            body = json.loads(self.rfile.read(length).decode("utf-8")) if length else {}
            if not isinstance(body, dict):
                raise ValueError("body is not a JSON object")
        except (ValueError, RecursionError):  # also UnicodeDecodeError; RecursionError: nested too deep
            self._send(400, {"error": "bad JSON body"})
            return
        try:
            if self.path == "/query":
                k = int(body.get("k", 5))
                if k > MAX_K:
                    raise InvalidArgument(f"k must be <= {MAX_K}, got {k}")
                prompt = body.get("prompt", "")
                if not isinstance(prompt, str):
                    raise InvalidArgument(f"prompt must be a string, got {type(prompt).__name__}")
                payload = answer_prompt(
                    self.server.store,
                    self.server.gazetteer,
                    prompt,
                    k,
                    self.server.config,
                    time=float(body["time"]) if body.get("time") is not None else None,
                )
                self._send(200, payload)
            elif self.path == "/compute":
                self._send(200, _compute_payload(body))
            else:
                self._send(404, {"error": "not found"})
        except (GeoContextError, ValueError, KeyError, TypeError, OverflowError) as exc:
            self._send(400, {"error": f"{type(exc).__name__}: {exc}"})


def make_server(
    store: HybridIndex,
    gazetteer: Gazetteer | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server bound to host:port."""
    server = ThreadingHTTPServer((host, port), _Handler)
    server.store = store
    server.gazetteer = gazetteer if gazetteer is not None else Gazetteer()
    server.config = config
    return server
