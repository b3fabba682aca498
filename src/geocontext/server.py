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
# Seconds a connection may stay silent, at any point of a request, before
# the handler gives up on it: a body shorter than its Content-Length gets a
# 400 after this long instead of holding a handler thread.
SOCKET_TIMEOUT_S = 10.0


def _number(value, name: str) -> float:
    """A JSON number field as a float; InvalidArgument for any other type."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidArgument(f"{name} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond float range
        raise InvalidArgument(f"{name} is out of range") from None


def _collection(body: dict, op: str, name: str):
    if name not in body:
        raise InvalidArgument(f'{op} requires "{name}"')
    return parse_feature_collection(body[name])


def _compute_payload(body: dict) -> dict:
    op = body.get("op")
    if op == "distance-matrix":
        result = distance_matrix(_collection(body, op, "a"), _collection(body, op, "b"))
    elif op == "nearest-join":
        result = nearest_join(_collection(body, op, "a"), _collection(body, op, "b"))
    elif op == "within-radius":
        a = _collection(body, op, "a")
        center = body.get("center")
        if not isinstance(center, dict):
            raise InvalidArgument(f"center must be an object, got {type(center).__name__}")
        point = GeoPoint(_number(center.get("lat"), "center.lat"), _number(center.get("lon"), "center.lon"))
        result = within_radius(a, point, _number(body.get("radius_m"), "radius_m"))
    else:
        raise InvalidArgument(f"unknown compute op {op!r}")
    return {"kind": result.kind, "summary": result.summary, "document": result.document}


class _Handler(BaseHTTPRequestHandler):
    server_version = "geocontext/0.1"
    timeout = SOCKET_TIMEOUT_S

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
            try:
                data = self.rfile.read(length)
            except TimeoutError:
                self.close_connection = True
                self._send(400, {"error": f"body not received within {self.timeout:g} s"})
                return
            body = json.loads(data.decode("utf-8")) if length else {}
            if not isinstance(body, dict):
                raise ValueError("body is not a JSON object")
        except (ValueError, RecursionError):  # also UnicodeDecodeError; RecursionError: nested too deep
            self._send(400, {"error": "bad JSON body"})
            return
        try:
            if self.path == "/query":
                k = body.get("k", 5)
                if isinstance(k, bool) or not isinstance(k, int):
                    raise InvalidArgument(f"k must be an integer, got {type(k).__name__}")
                if k > MAX_K:
                    raise InvalidArgument(f"k must be <= {MAX_K}, got {k}")
                prompt = body.get("prompt", "")
                if not isinstance(prompt, str):
                    raise InvalidArgument(f"prompt must be a string, got {type(prompt).__name__}")
                time = body.get("time")
                if isinstance(time, bool) or not isinstance(time, (int, float, type(None))):
                    raise InvalidArgument(f"time must be a number, got {type(time).__name__}")
                payload = answer_prompt(
                    self.server.store,
                    self.server.gazetteer,
                    prompt,
                    k,
                    self.server.config,
                    time=float(time) if time is not None else None,
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
