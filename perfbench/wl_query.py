"""query-50k: one in-process caller in a closed loop on a 50,000-record store.

The store is built by `gce ingest` from a CSV in a child process, saved, and
loaded back here, as `gce query` / `gce serve` would. Each cycle runs the
four answer_prompt prompt shapes plus one 2 km radius `hybrid_search` and one
k=10 `knn`, in a seeded order.

The traced run ends with a short closed loop of `POST /query` requests to the
service, hosted on a thread of this process on the same store, so that the
`server` layer is measured too: its self time is each request as the client
sees it minus the `answer_prompt` span inside it.
"""

from __future__ import annotations

import gc
import http.client
import time

import numpy as np

import gen
import layers
import tracer as tracing
from common import Outcome, median, quantile, run_gce, self_peak_rss_mb
from oracle import StoreOracle
from wl_serve import ThreadServer, post, query_body

N_RECORDS = 50_000
ANSWER_K = 5
SEARCH_K = 10
RADIUS_M = 2_000.0
SETUP_REPEATS = 3
SERVE_SHARE = 0.1  # of --seconds, for the traced run's HTTP phase


def run(seed: int, seconds: float, workdir, traced: bool) -> Outcome:
    from geocontext import ragctx
    from geocontext.config import DEFAULT_CONFIG as config
    from geocontext.geomodel import GeoPoint
    from geocontext.geotext.gazetteer import Gazetteer
    from geocontext.ingest import load_gazetteer
    from geocontext.spatial_embed import query_vector
    from geocontext.vectorstore import HybridIndex, QuerySpec

    out = Outcome()
    rng = np.random.default_rng(seed)
    g, rows = gen.make_gazetteer(rng, N_RECORDS)
    csv_path = gen.write_csv(rows, workdir / "gazetteer.csv")
    store_path = workdir / "store.gcev"
    run_gce("ingest", "--gazetteer", str(csv_path), "--store", str(store_path))

    tracer = tracing.Tracer() if traced else None
    patches = tracing.install(tracer) if traced else None

    def setup():
        store = HybridIndex.load(store_path, config)
        records, _ = load_gazetteer(csv_path)
        return store, Gazetteer.from_records(records)

    setup_times = []
    store = gazetteer = None
    for _ in range(SETUP_REPEATS):
        store = gazetteer = None
        gc.collect()
        t0 = time.perf_counter()
        store, gazetteer = setup()
        setup_times.append(time.perf_counter() - t0)
    if patches:
        patches.uninstall()

    cluster = np.flatnonzero(
        (g.lat >= gen.CLUSTER_LAT[0]) & (g.lat <= gen.CLUSTER_LAT[1])
        & (g.lon >= gen.CLUSTER_LON[0]) & (g.lon <= gen.CLUSTER_LON[1])
    )

    def make_op():
        """One cycle's operations, in seeded order."""
        ops = [("answer", gen.make_prompt(rng, g, shape)) for shape in gen.PROMPT_SHAPES]
        text = gen.make_prompt(rng, g, "no_place").text
        i = int(cluster[rng.integers(len(cluster))])
        ops.append(("radius", QuerySpec(
            text_vector=query_vector(text.split(), config),
            point=GeoPoint(float(g.lat[i]), float(g.lon[i])),
            k=SEARCH_K, weights=config.weights, radius_filter=RADIUS_M,
        )))
        ops.append(("knn", query_vector(gen.make_prompt(rng, g, "no_place").text.split(), config)))
        order = rng.permutation(len(ops))
        return [ops[j] for j in order]

    def call(kind, arg):
        if kind == "answer":
            return ragctx.answer_prompt(store, gazetteer, arg.text, ANSWER_K, config, time=arg.time)
        if kind == "radius":
            return store.hybrid_search(arg)
        return store.knn(arg, SEARCH_K)

    for kind, arg in make_op():  # warm-up: fill lazy caches before timing
        call(kind, arg)

    def loop(budget_s: float) -> list[tuple[str, object, object, float]]:
        done = []
        deadline = time.perf_counter() + budget_s
        while time.perf_counter() < deadline:
            for kind, arg in make_op():
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = call(kind, arg)
                except Exception as exc:  # any raise is a failed operation
                    out.fail(f"{kind}: {type(exc).__name__}: {exc}")
                    continue
                done.append((kind, arg, result, time.perf_counter() - t0))
        return done

    def serve(budget_s: float) -> list[tuple[object, int, bytes, float, float]]:
        """Closed loop over HTTP, one connection per request; returns
        (prompt, status, body, client-seen s, answer_prompt span s)."""
        server = ThreadServer(store, gazetteer, config)
        done = []
        try:
            deadline = time.perf_counter() + budget_s
            while True:
                for shape in gen.PROMPT_SHAPES:
                    prompt = gen.make_prompt(rng, g, shape)
                    request = query_body(prompt, ANSWER_K)
                    out.attempted += 1
                    first = len(tracer.spans)
                    t0 = time.perf_counter()
                    try:
                        status, body = post(server.port, "/query", request)
                    except (OSError, http.client.HTTPException) as exc:
                        out.fail(f"POST /query: {type(exc).__name__}: {exc}")
                        continue
                    client_s = time.perf_counter() - t0
                    # The handler closes its span before it sends the reply.
                    answer_ns = sum(
                        end - start for name, _, _, start, end in tracer.spans[first:]
                        if name == "ragctx.answer_prompt"
                    )
                    done.append((prompt, status, body, client_s, answer_ns / 1e9))
                if time.perf_counter() >= deadline:
                    return done
        finally:
            server.stop()

    served = []
    if traced:
        untraced = loop(seconds / 2)
        patches = tracing.install(tracer)
        try:
            timed = loop(seconds / 2 - seconds * SERVE_SHARE)
            served = serve(seconds * SERVE_SHARE)
        finally:
            patches.uninstall()
    else:
        untraced = []
        timed = loop(seconds)
    peak_rss = self_peak_rss_mb()

    oracle = StoreOracle(store, config)
    for kind, arg, result, _ in untraced + timed:
        if kind == "answer":
            analysis = ragctx.analyze_prompt_cfg(arg.text, gazetteer, config)
            spec = QuerySpec(
                text_vector=query_vector(list(analysis.query_tokens), config),
                point=GeoPoint(*arg.anchor) if arg.anchor else None,
                time=arg.time, k=ANSWER_K, weights=config.weights,
                min_credibility=config.min_credibility,
            )
            scores, eligible = oracle.hybrid_scores(spec)
            kept = oracle.relevance_filter(
                oracle.top(scores, eligible, ANSWER_K), config.min_credibility, config.dedup_cosine
            )
            want = [{"doc_id": oracle.ids[r], "source": oracle.sources[r]} for r in kept]
            if result["citations"] != want or not result["response"]:
                out.mismatch(f"answer {arg.text!r}: citations {result['citations']} != oracle {want}")
        elif kind == "radius":
            scores, eligible = oracle.hybrid_scores(arg)
            why = oracle.check_hits(result, scores, eligible, SEARCH_K)
            if why:
                out.mismatch(f"radius search: {why}")
        else:
            scores, eligible = oracle.knn_scores(arg)
            why = oracle.check_hits(result, scores, eligible, SEARCH_K)
            if why:
                out.mismatch(f"knn: {why}")

    for prompt, status, body, _, _ in served:
        want = ragctx.payload_json(
            ragctx.answer_prompt(store, gazetteer, prompt.text, ANSWER_K, config, time=prompt.time)
        )
        if status != 200 or body != want.encode("utf-8"):
            out.mismatch(f"POST /query {prompt.text!r}: status {status}, body differs from answer_prompt")

    def ms(kind, runs):
        return [dt * 1e3 for k, _, _, dt in runs if k == kind]

    answer, radius, knn = ms("answer", timed), ms("radius", timed), ms("knn", timed)
    out.named = {
        "setup_s": median(setup_times),
        "query_p50_ms": median(answer),
        "query_p95_ms": quantile(answer, 0.95),
        "radius_p50_ms": median(radius),
        "knn_p50_ms": median(knn),
        "peak_rss_mb": peak_rss,
    }
    out.metrics = {
        "setup_s": out.named["setup_s"],
        "op_ms": out.named["query_p50_ms"],
        "op2_ms": out.named["radius_p50_ms"],
        "op3_ms": out.named["knn_p50_ms"],
        "peak_rss_mb": peak_rss,
    }
    for shape in gen.PROMPT_SHAPES:
        samples = [dt * 1e3 for k, arg, _, dt in timed if k == "answer" and arg.shape == shape]
        out.named[f"query_{shape}_p50_ms"] = median(samples)
    out.facts["samples"] = {"answer": len(answer), "radius": len(radius), "knn": len(knn)}
    if traced:
        out.layers = layers.from_tracer(tracer)
        out.layers["trace.overhead_pct"] = layers.overhead_pct(ms("answer", untraced), answer)
        if served:
            client_s = sum(row[3] for row in served)
            answer_s = sum(row[4] for row in served)
            out.layers["server.self_ms"] = (client_s - answer_s) / len(served) * 1e3
        out.facts["samples"]["served"] = len(served)
        out.tracer = tracer
    return out
