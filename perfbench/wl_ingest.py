"""ingest-50k: the write side, cycle after cycle on one 50,000-row CSV.

Each cycle parses the CSV with `load_gazetteer`, indexes the records into a
fresh store with `index_gazetteer` in batches of 1,000, saves the store and
loads it back. The CSV is written before timing starts. Set-up is the cold
start of `gce ingest` on a ten-row CSV: the fixed cost every ingest pays
before its first record.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import gen
import layers
import tracer as tracing
from common import Outcome, median, quantile, run_gce, self_peak_rss_mb

N_RECORDS = 50_000
BATCH = 1_000
SETUP_REPEATS = 5


def _same_record(a, b) -> bool:
    return (
        a.doc_id == b.doc_id
        and a.vector.dtype == b.vector.dtype
        and a.vector.tobytes() == b.vector.tobytes()
        and a.point == b.point
        and a.window == b.window
        and a.credibility == b.credibility
        and a.source == b.source
        and a.text == b.text
    )


def run(seed: int, seconds: float, workdir, traced: bool) -> Outcome:
    from geocontext import ingest
    from geocontext.config import DEFAULT_CONFIG as config
    from geocontext.vectorstore import HybridIndex

    out = Outcome()
    rng = np.random.default_rng(seed)
    g, rows = gen.make_gazetteer(rng, N_RECORDS)
    csv_path = gen.write_csv(rows, workdir / "gazetteer.csv")
    tiny_csv = gen.write_csv(rows[:10], workdir / "tiny.csv")
    store_path = workdir / "store.gcev"
    del rows

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        run_gce("ingest", "--gazetteer", str(tiny_csv), "--store", str(workdir / "tiny.gcev"))
        setup_times.append(time.perf_counter() - t0)

    def cycle(stats) -> None:
        t0 = time.perf_counter()
        out.attempted += 1
        records, diagnostics = ingest.load_gazetteer(csv_path)
        parse_s = time.perf_counter() - t0
        if diagnostics or len(records) != N_RECORDS:
            out.mismatch(f"load_gazetteer: {len(records)} records, diagnostics {diagnostics[:3]}")
        store = HybridIndex(config)
        index_s = 0.0
        for i in range(0, len(records), BATCH):
            out.attempted += 1
            t0 = time.perf_counter()
            n = ingest.index_gazetteer(records[i : i + BATCH], store, config)
            dt = time.perf_counter() - t0
            index_s += dt
            stats["batch"].append(dt)
            if n != len(records[i : i + BATCH]):
                out.mismatch(f"index_gazetteer indexed {n} of {BATCH}")
        del records
        out.attempted += 2
        store_path.unlink(missing_ok=True)  # a new file, as in wl_compute
        t0 = time.perf_counter()
        store.save(store_path)
        stats["save"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        loaded = HybridIndex.load(store_path, config)
        stats["load"].append(time.perf_counter() - t0)
        stats["rps"].append(N_RECORDS / (parse_s + index_s))
        stats["bytes"].append(store_path.stat().st_size / N_RECORDS)

        ids = store.doc_ids()
        if ids != loaded.doc_ids() or len(ids) != N_RECORDS:
            out.mismatch("loaded store holds other doc ids than the saved one")
        else:
            differ = [doc_id for doc_id in ids if not _same_record(store.get(doc_id), loaded.get(doc_id))]
            if differ:
                out.mismatch(f"{len(differ)} records differ after save/load, first {differ[0]!r}")
        del store, loaded
        gc.collect()

    def loop(budget_s: float):
        stats = {"batch": [], "save": [], "load": [], "rps": [], "bytes": []}
        deadline = time.perf_counter() + budget_s
        while True:
            cycle(stats)
            if time.perf_counter() >= deadline:
                return stats

    if traced:
        tracer = tracing.Tracer()
        untraced = loop(seconds / 2)
        patches = tracing.install(tracer)
        try:
            stats = loop(seconds / 2)
        finally:
            patches.uninstall()
    else:
        stats = loop(seconds)
    peak_rss = self_peak_rss_mb()

    if traced:
        cycles = len(stats["save"])
        out.layers = layers.from_tracer(tracer)
        _, own = tracer.durations()["ingest.index_gazetteer"]
        out.layers["ingest.index_gazetteer.self_s"] = sum(own) / cycles
        out.layers["vectorstore.save.bytes_per_record"] = median(stats["bytes"])
        out.layers["trace.overhead_pct"] = layers.overhead_pct(untraced["batch"], stats["batch"])
        out.tracer = tracer
        return out

    batch_ms = [dt * 1e3 for dt in stats["batch"]]
    out.named = {
        "setup_s": median(setup_times),
        "ingest_rps": median(stats["rps"]),
        "index_batch_p50_ms": median(batch_ms),
        "index_batch_p95_ms": quantile(batch_ms, 0.95),
        "save_s": median(stats["save"]),
        "load_s": median(stats["load"]),
        "store_bytes_per_record": median(stats["bytes"]),
        "peak_rss_mb": peak_rss,
    }
    out.metrics = {
        "setup_s": out.named["setup_s"],
        "op_ms": out.named["index_batch_p50_ms"],
        "op2_ms": out.named["save_s"] * 1e3,
        "op3_ms": out.named["load_s"] * 1e3,
        "peak_rss_mb": peak_rss,
    }
    out.facts["cycles"] = len(stats["save"])
    return out
