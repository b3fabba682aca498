"""serve-200: `gce serve` on a 200-record store under a fixed-rate open loop.

Two sender threads send 300 requests/s on a schedule fixed in advance, one
connection per request, whether or not earlier requests have returned. A
request's latency runs from the moment it was due, so a stall also charges
the requests queued behind it; how late the senders ran is reported apart.
97% of requests are `POST /query` with the four prompt shapes and 3% are
malformed bodies (bad JSON, empty prompt, a top-level JSON array), which
succeed only as a 400 with a JSON error body.

The untraced run starts the server as a child process. The traced run hosts
it on a thread of this process, so the tracer sees its calls.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import threading
import time

import numpy as np

import gen
import layers
import tracer as tracing
from common import Outcome, child_env, gce_argv, median, pid_peak_rss_mb, quantile, run_gce

N_RECORDS = 200
RATE = 300.0
SENDERS = 2
MALFORMED_SHARE = 0.03
POOL = 200
K = 5
SETUP_REPEATS = 5
WARMUP = 40
TIMEOUT_S = 10.0
MALFORMED = {
    "bad_json": b'{"prompt": "unterminated',
    "empty_prompt": b'{"prompt": ""}',
    "json_array": b'["What is near the bay?"]',
}


def query_body(prompt, k: int) -> bytes:
    """The `POST /query` body that asks for a prompt's answer."""
    body = {"prompt": prompt.text, "k": k}
    if prompt.time is not None:
        body["time"] = prompt.time
    return json.dumps(body).encode("utf-8")


def post(port: int, path: str, body: bytes) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _healthz(port: int) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        resp.read()
        if resp.status != 200:
            raise RuntimeError(f"/healthz answered {resp.status}")
    finally:
        conn.close()


class ChildServer:
    """`gce serve` in a child process on an ephemeral port."""

    def __init__(self, store_path, csv_path, log_path):
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            gce_argv("serve", "--store", str(store_path), "--gazetteer", str(csv_path), "--bind", "127.0.0.1:0"),
            env=child_env(), stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"gce serve did not start: {line!r}; see {log_path}")
        self.port = int(line.split()[2].rpartition(":")[2])

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class ThreadServer:
    """The same service on a thread of this process (traced runs only)."""

    def __init__(self, store, gazetteer, config):
        from geocontext.server import make_server

        self.server = make_server(store, gazetteer, config)
        # A request the handler drops (the JSON-array body) is already counted
        # as failed by the client; keep socketserver's traceback off stderr.
        self.server.handle_error = lambda request, client_address: None
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


def _separate_cpus(server_pid: int) -> None:
    """Give the server one CPU and the senders the others, so they never
    compete. The server answers from one thread at a time under the GIL, and
    threads it starts later inherit the affinity. Confining each process
    also saves cross-CPU wake-ups, whose cost on a shared virtual machine
    varies most from run to run."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(server_pid, {cpus[-1]})
        os.sched_setaffinity(0, set(cpus[:-1]))


def _open_loop(port: int, schedule: list[tuple[str, int, bytes]], rate: float) -> list[tuple]:
    """Send schedule[i] at t0 + i/rate; returns (i, due, sent, end, status, body, error)."""
    t0 = time.perf_counter() + 0.05
    results: list[tuple] = []
    lock = threading.Lock()

    def sender(first: int) -> None:
        mine = []
        for i in range(first, len(schedule), SENDERS):
            due = t0 + i / rate
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            status, body, error = 0, b"", None
            try:
                status, body = post(port, "/query", schedule[i][2])
            except (OSError, http.client.HTTPException) as exc:
                error = f"{type(exc).__name__}: {exc}"
            mine.append((i, due, sent, time.perf_counter(), status, body, error))
        with lock:
            results.extend(mine)

    threads = [threading.Thread(target=sender, args=(j,)) for j in range(SENDERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    results.sort()
    return results


def run(seed: int, seconds: float, workdir, traced: bool) -> Outcome:
    from geocontext.config import DEFAULT_CONFIG as config
    from geocontext.geotext.gazetteer import Gazetteer
    from geocontext.ingest import load_gazetteer
    from geocontext.ragctx import answer_prompt, payload_json
    from geocontext.vectorstore import HybridIndex

    out = Outcome()
    rng = np.random.default_rng(seed)
    g, rows = gen.make_gazetteer(rng, N_RECORDS)
    csv_path = gen.write_csv(rows, workdir / "gazetteer.csv")
    store_path = workdir / "store.gcev"
    run_gce("ingest", "--gazetteer", str(csv_path), "--store", str(store_path))

    pool = []
    for j in range(POOL):
        prompt = gen.make_prompt(rng, g, gen.PROMPT_SHAPES[j % len(gen.PROMPT_SHAPES)])
        pool.append((prompt, query_body(prompt, K)))
    malformed = list(MALFORMED.items())

    def schedule(n: int) -> list[tuple[str, int, bytes]]:
        """(kind, pool index or malformed index, body) for n requests."""
        out_ = []
        for _ in range(n):
            if rng.random() < MALFORMED_SHARE:
                m = int(rng.integers(len(malformed)))
                out_.append(("malformed", m, malformed[m][1]))
            else:
                p = int(rng.integers(POOL))
                out_.append(("query", p, pool[p][1]))
        return out_

    records, _ = load_gazetteer(csv_path)
    gazetteer = Gazetteer.from_records(records)
    tracer = tracing.Tracer() if traced else None
    setup_times = []
    server = None
    try:
        if traced:
            patches = tracing.install(tracer)
            store = HybridIndex.load(store_path, config)
            patches.uninstall()
            server = ThreadServer(store, gazetteer, config)
        else:
            store = HybridIndex.load(store_path, config)
            for _ in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                    server = None
                t0 = time.perf_counter()
                server = ChildServer(store_path, csv_path, workdir / "serve.log")
                _healthz(server.port)
                setup_times.append(time.perf_counter() - t0)
            _separate_cpus(server.proc.pid)
        _open_loop(server.port, schedule(WARMUP), RATE)
        if traced:
            untraced = _open_loop(server.port, sched_a := schedule(int(RATE * seconds / 2)), RATE)
            patches = tracing.install(tracer)
            try:
                timed = _open_loop(server.port, sched_b := schedule(int(RATE * seconds / 2)), RATE)
            finally:
                patches.uninstall()
            runs = [(sched_a, untraced), (sched_b, timed)]
        else:
            sched = schedule(int(RATE * seconds))
            timed = _open_loop(server.port, sched, RATE)
            runs = [(sched, timed)]
            peak_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    expected: dict[int, bytes] = {}
    per_run = []  # per loop: latency from due by kind, /query latency from send
    late = []
    for sched, results in runs:
        from_due = {"query": [], "malformed": []}
        from_send = []
        for i, due, sent, end, status, body, error in results:
            kind, idx, request = sched[i]
            out.attempted += 1
            late.append(sent - due)
            if error is not None:
                out.fail(f"{kind} {request[:60]!r}: {error}")
                continue
            if kind == "query":
                prompt = pool[idx][0]
                if idx not in expected:
                    payload = answer_prompt(store, gazetteer, prompt.text, K, config, time=prompt.time)
                    expected[idx] = payload_json(payload).encode("utf-8")
                if status != 200 or body != expected[idx]:
                    out.mismatch(f"query {prompt.text!r}: status {status}, body differs from answer_prompt")
                    continue
                from_send.append((end - sent) * 1e3)
            else:
                try:
                    doc = json.loads(body)
                except ValueError:
                    doc = None
                if status != 400 or not isinstance(doc, dict) or "error" not in doc:
                    out.mismatch(f"malformed {malformed[idx][0]}: status {status}, body {body[:80]!r}")
                    continue
            from_due[kind].append((end - due) * 1e3)
        per_run.append((from_due, from_send))

    from_due, from_send = per_run[-1]
    out.facts["generator_lateness_p99_ms"] = quantile(late, 0.99) * 1e3
    out.facts["samples"] = {k: len(v) for k, v in from_due.items()}
    if traced:
        out.layers = layers.from_tracer(tracer)
        answer_s = tracer.durations()["ragctx.answer_prompt"][0]
        out.layers["server.self_ms"] = sum(from_send) / len(from_send) - sum(answer_s) / len(answer_s) * 1e3
        out.layers["trace.overhead_pct"] = layers.overhead_pct(per_run[0][1], from_send)
        out.tracer = tracer
        return out

    query, bad = from_due["query"], from_due["malformed"]
    out.named = {
        "setup_s": median(setup_times),
        "query_p25_ms": quantile(query, 0.25),
        "query_p50_ms": median(query),
        "query_p95_ms": quantile(query, 0.95),
        "query_p99_ms": quantile(query, 0.99),
        "malformed_p25_ms": quantile(bad, 0.25),
        "malformed_p50_ms": median(bad),
        "query_from_send_p25_ms": quantile(from_send, 0.25),
        "query_from_send_p50_ms": median(from_send),
        "peak_rss_mb": peak_rss,
    }
    # Sub-millisecond requests: host interference on a shared virtual machine
    # moves their median by up to a third from run to run, their lower
    # quartile by about half as much. The gated slots use the lower quartile.
    out.metrics = {
        "setup_s": out.named["setup_s"],
        "op_ms": out.named["query_p25_ms"],
        "op2_ms": out.named["malformed_p25_ms"],
        "op3_ms": out.named["query_from_send_p25_ms"],
        "peak_rss_mb": peak_rss,
    }
    return out
