"""compute-1k: `gce compute` run in-process through `cli.main`.

Each cycle runs distance-matrix and nearest-join on 1,000 x 1,000 features
and within-radius over 20,000 features (10% of features are polygons), each
as the CLI does it: read the GeoJSON files, compute, write the result file
and its summary. Set-up is the cold start of `gce compute` on a ten-feature
file: the fixed cost every invocation pays before its own work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time

import numpy as np

import gen
import layers
import oracle
import tracer as tracing
from common import Outcome, median, quantile, run_gce, self_peak_rss_mb

N_SIDE = 1_000
N_RADIUS = 20_000
RADIUS_M = 5_000.0
SETUP_REPEATS = 5
OPS = ("distance-matrix", "nearest-join", "within-radius")


def _check_distance_matrix(doc, a, b, dist, out: Outcome) -> None:
    if doc["rows"] != [f["id"] for f in a["features"]] or doc["cols"] != [f["id"] for f in b["features"]]:
        out.mismatch("distance-matrix: row or column ids out of input order")
        return
    bad = int(np.count_nonzero(~oracle.dist_close(np.asarray(doc["meters"]), dist)))
    if bad:
        out.mismatch(f"distance-matrix: {bad} distances differ from the 3-D oracle")


def _check_nearest_join(doc, a, b, dist, out: Outcome) -> None:
    col = {f["id"]: j for j, f in enumerate(b["features"])}
    ids = [f["id"] for f in b["features"]]
    feats = doc["features"]
    if [f["id"] for f in feats] != [f["id"] for f in a["features"]]:
        out.mismatch("nearest-join: output features out of input order")
        return
    wrong = []
    for i, f in enumerate(feats):
        got = f["properties"]["nearest_id"]
        row = dist[i]
        best = min(range(len(ids)), key=lambda j: (row[j], ids[j]))
        if got == ids[best]:
            ok = True
        else:  # accept only a tie within the oracle's rounding
            ok = got in col and bool(oracle.dist_close(row[col[got]], row[best]))
        if not ok or not oracle.dist_close(f["properties"]["distance_m"], row[col.get(got, best)]):
            wrong.append(f"{f['id']} -> {got}, oracle {ids[best]}")
    if wrong:
        out.mismatch(f"nearest-join: {len(wrong)} features wrong, first {wrong[0]}")


def _check_within_radius(doc, c, dist, out: Outcome) -> None:
    ids = [f["id"] for f in c["features"]]
    position = {fid: i for i, fid in enumerate(ids)}
    boundary = oracle.dist_close(dist, np.full_like(dist, RADIUS_M))
    want = {ids[i] for i in np.flatnonzero((dist <= RADIUS_M) & ~boundary)}
    optional = {ids[i] for i in np.flatnonzero(boundary)}
    got = [f["id"] for f in doc["features"]]
    reported = [f["properties"]["distance_m"] for f in doc["features"]]
    if not want <= set(got) <= want | optional or len(set(got)) != len(got):
        out.mismatch(f"within-radius: {len(got)} features, oracle {len(want)}")
        return
    if any(not oracle.dist_close(d, dist[position[fid]]) for fid, d in zip(got, reported)):
        out.mismatch("within-radius: a distance differs from the 3-D oracle")
    elif list(zip(reported, got)) != sorted(zip(reported, got)):
        out.mismatch("within-radius: output not ascending by distance then id")


def run(seed: int, seconds: float, workdir, traced: bool) -> Outcome:
    from geocontext import cli
    from geocontext.config import DEFAULT_CONFIG as config

    out = Outcome()
    rng = np.random.default_rng(seed)
    a = gen.make_features(rng, N_SIDE, "a")
    b = gen.make_features(rng, N_SIDE, "b")
    c = gen.make_features(rng, N_RADIUS, "c")
    centre = (float(rng.uniform(*gen.CLUSTER_LAT)), float(rng.uniform(*gen.CLUSTER_LON)))
    paths = {name: gen.write_json(doc, workdir / f"{name}.json") for name, doc in (("a", a), ("b", b), ("c", c))}
    tiny = gen.write_json({"type": "FeatureCollection", "features": c["features"][:10]}, workdir / "tiny.json")
    centre_arg = f"{centre[0]!r},{centre[1]!r}"

    argv = {
        "distance-matrix": ["--a", str(paths["a"]), "--b", str(paths["b"])],
        "nearest-join": ["--a", str(paths["a"]), "--b", str(paths["b"])],
        "within-radius": ["--a", str(paths["c"]), "--center", centre_arg, "--radius-m", repr(RADIUS_M)],
    }
    outputs = {op: workdir / f"{op}.out.json" for op in OPS}

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        run_gce("compute", "--op", "within-radius", "--a", str(tiny), "--center", centre_arg,
                "--radius-m", repr(RADIUS_M), "--out", str(workdir / "tiny.out.json"))
        setup_times.append(time.perf_counter() - t0)

    digests: dict[str, bytes] = {}

    def gate() -> None:
        """Check the outputs once against the oracle; later cycles must
        reproduce the first cycle's bytes."""
        fresh = {op: hashlib.blake2b(outputs[op].read_bytes()).digest() for op in OPS}
        if digests:
            for op in OPS:
                if fresh[op] != digests[op]:
                    out.mismatch(f"{op}: output bytes differ from the first cycle")
            return
        digests.update(fresh)
        r = config.earth_radius_m
        lat_a, lon_a = oracle.representative_points(a)
        lat_b, lon_b = oracle.representative_points(b)
        lat_c, lon_c = oracle.representative_points(c)
        dist_ab = oracle.distance_matrix_m(lat_a, lon_a, lat_b, lon_b, r)
        dist_c = oracle.central_angle(centre[0], centre[1], lat_c, lon_c) * r
        _check_distance_matrix(json.loads(outputs["distance-matrix"].read_text()), a, b, dist_ab, out)
        _check_nearest_join(json.loads(outputs["nearest-join"].read_text()), a, b, dist_ab, out)
        _check_within_radius(json.loads(outputs["within-radius"].read_text()), c, dist_c, out)

    def loop(budget_s: float) -> dict[str, list[float]]:
        times = {op: [] for op in OPS}
        deadline = time.perf_counter() + budget_s
        while True:
            for op in OPS:
                # Write a new file each time, as a user naming a new --out
                # would: on ext4, truncating a file rewritten moments ago
                # forces its earlier blocks to disk and adds ~0.2 s of noise.
                outputs[op].unlink(missing_ok=True)
                out.attempted += 1
                sink = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = cli.main(["compute", "--op", op, *argv[op], "--out", str(outputs[op])])
                dt = time.perf_counter() - t0
                if rc != 0:
                    out.fail(f"{op}: exit {rc}: {sink.getvalue().strip()[-200:]}")
                    continue
                times[op].append(dt)
            gate()
            if time.perf_counter() >= deadline:
                return times

    loop(0.0)  # one untimed cycle: warms allocator and file cache, runs the oracle gate
    tracer = tracing.Tracer() if traced else None
    if traced:
        untraced = loop(seconds / 2)
        patches = tracing.install(tracer)
        try:
            times = loop(seconds / 2)
        finally:
            patches.uninstall()
        counters = tracing.install_counters(tracer)
        try:
            loop(0.0)
        finally:
            counters.uninstall()
    else:
        times = loop(seconds)
    peak_rss = self_peak_rss_mb()

    if traced:
        cycles = len(times["distance-matrix"])
        out.layers = layers.from_tracer(tracer)
        spans = tracer.durations()
        for op in ("load_geo_file", "write_result"):
            out.layers[f"geocompute.{op}.s"] = sum(spans[f"geocompute.{op}"][0]) / cycles
        out.layers["georelate.haversine.calls"] = tracer.counts["georelate.haversine.calls"]  # one cycle
        out.layers["trace.overhead_pct"] = layers.overhead_pct(
            untraced["distance-matrix"], times["distance-matrix"]
        )
        out.tracer = tracer
        return out

    out.named = {
        "setup_s": median(setup_times),
        "distance_matrix_s": median(times["distance-matrix"]),
        "distance_matrix_p95_s": quantile(times["distance-matrix"], 0.95),
        "nearest_join_s": median(times["nearest-join"]),
        "within_radius_s": median(times["within-radius"]),
        "peak_rss_mb": peak_rss,
    }
    out.metrics = {
        "setup_s": out.named["setup_s"],
        "op_ms": out.named["distance_matrix_s"] * 1e3,
        "op2_ms": out.named["nearest_join_s"] * 1e3,
        "op3_ms": out.named["within_radius_s"] * 1e3,
        "peak_rss_mb": peak_rss,
    }
    out.facts["cycles"] = len(times["distance-matrix"])
    return out
