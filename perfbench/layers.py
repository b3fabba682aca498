"""Per-layer metrics of a traced run, read from the tracer's spans and counts.

Every traced run reports every name below. A layer the workload never calls
reports 0: that is what was measured, not a missing value.
"""

from __future__ import annotations

from common import median

PER_LAYER = {
    "vectorstore.hybrid_search.ms": "ms",
    "vectorstore.hybrid_search.hits": "count",
    "vectorstore.relevance_filter.ms": "ms",
    "vectorstore.relevance_filter.kept_ratio": "ratio",
    "vectorstore.knn.ms": "ms",
    "ragctx.analyze_prompt_cfg.self_ms": "ms",
    "geotext.semantic_tag.ms": "ms",
    "spatial_embed.query_vector.ms": "ms",
    "ragctx.retrieve_context.self_ms": "ms",
    "ragctx.assemble_prompt.ms": "ms",
    "ragctx.respond.ms": "ms",
    "ragctx.answer_prompt.self_ms": "ms",
    "server.self_ms": "ms",
    "ingest.load_gazetteer.s": "s",
    "ingest.index_gazetteer.self_s": "s",
    "spatial_embed.make_composite.us_per_record": "us",
    "vectorstore.upsert.us_per_record": "us",
    "vectorstore.save.s": "s",
    "vectorstore.save.bytes_per_record": "B",
    "vectorstore.load.s": "s",
    "geocompute.load_geo_file.s": "s",
    "geocompute.distance_matrix.s": "s",
    "geocompute.nearest_join.s": "s",
    "geocompute.within_radius.s": "s",
    "geocompute.write_result.s": "s",
    "georelate.haversine.calls": "count",
    "trace.overhead_pct": "%",
}


def from_tracer(tracer) -> dict[str, float]:
    """Fill each metric whose value follows from its name alone.

    `<span>.ms` / `.s` is the median span duration, `.self_ms` / `.self_s`
    the median self time, `.us_per_record` the mean duration of a one-record
    call. Metrics that need the workload's own counts are set by the workload.
    """
    spans = tracer.durations()
    out = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if span not in spans:
            continue
        total, own = spans[span]
        scale = 1e3 if stat.endswith("ms") else 1.0
        if stat in ("ms", "s"):
            out[name] = median(total) * scale
        elif stat in ("self_ms", "self_s"):
            out[name] = median(own) * scale
        elif stat == "us_per_record":
            out[name] = sum(total) / len(total) * 1e6
    counts = tracer.counts
    if counts.get("vectorstore.hybrid_search.calls"):
        out["vectorstore.hybrid_search.hits"] = (
            counts["vectorstore.hybrid_search.hits"] / counts["vectorstore.hybrid_search.calls"]
        )
    if counts.get("vectorstore.relevance_filter.in"):
        out["vectorstore.relevance_filter.kept_ratio"] = (
            counts["vectorstore.relevance_filter.kept"] / counts["vectorstore.relevance_filter.in"]
        )
    return out


def overhead_pct(untraced_s: list[float], traced_s: list[float]) -> float:
    """How much slower the workload's main operation ran with tracing on."""
    return (median(traced_s) / median(untraced_s) - 1.0) * 100.0
