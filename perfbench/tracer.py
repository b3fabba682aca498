"""In-memory span tracing by wrapping the program's public functions.

Spans are recorded from the benchmark's side only: `Patches` swaps a module
attribute (or a `HybridIndex` method) for a wrapper at the place where the
program looks it up, and puts the original back on `uninstall`. The program's
source is not touched, so an untraced run executes exactly the shipped code.

A span is (name, id, parent id, start ns, end ns); a root span's parent id
is 0. Self time is a span's duration minus the durations of its direct
children, which run nested on the same thread and so never overlap.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = self._new_id()
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((name, span_id, parent, start, end))

    def wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def counter(self, fn, name: str):
        """Count calls only: fn may run millions of times per operation."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def durations(self) -> dict[str, tuple[list[float], list[float]]]:
        """name -> (durations s, self times s), one entry per span."""
        child_time: dict[int, int] = defaultdict(int)
        for _, _, parent, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        out: dict[str, tuple[list[float], list[float]]] = defaultdict(lambda: ([], []))
        for name, span_id, _, start, end in self.spans:
            total, own = out[name]
            total.append((end - start) / 1e9)
            own.append((end - start - child_time[span_id]) / 1e9)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Patches:
    """Wrappers over program functions that can be switched on and off."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, on_result=None) -> None:
        self._set(owner, attr, self.tracer.wrap(getattr(owner, attr), name, on_result))

    def count(self, owner, attr: str, name: str) -> None:
        self._set(owner, attr, self.tracer.counter(getattr(owner, attr), name))

    def span_classmethod(self, cls, attr: str, name: str) -> None:
        self._set(cls, attr, classmethod(self.tracer.wrap(cls.__dict__[attr].__func__, name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _hits(tracer: Tracer, args, result) -> None:
    tracer.add("vectorstore.hybrid_search.calls")
    tracer.add("vectorstore.hybrid_search.hits", len(result))


def _kept(tracer: Tracer, args, result) -> None:
    tracer.add("vectorstore.relevance_filter.in", len(args[1]))
    tracer.add("vectorstore.relevance_filter.kept", len(result))


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary the per-layer metrics read."""
    from geocontext import cli, ingest, ragctx, server
    from geocontext.vectorstore import HybridIndex

    p = Patches(tracer)
    p.span(ragctx, "analyze_prompt_cfg", "ragctx.analyze_prompt_cfg")
    p.span(ragctx, "semantic_tag", "geotext.semantic_tag")
    p.span(ragctx, "retrieve_context", "ragctx.retrieve_context")
    p.span(ragctx, "query_vector", "spatial_embed.query_vector")
    p.span(ragctx, "assemble_prompt", "ragctx.assemble_prompt")
    p.span(ragctx, "respond", "ragctx.respond")
    p.span(ragctx, "answer_prompt", "ragctx.answer_prompt")
    p.span(server, "answer_prompt", "ragctx.answer_prompt")
    p.span(HybridIndex, "hybrid_search", "vectorstore.hybrid_search", _hits)
    p.span(HybridIndex, "relevance_filter", "vectorstore.relevance_filter", _kept)
    p.span(HybridIndex, "knn", "vectorstore.knn")
    p.span(HybridIndex, "upsert", "vectorstore.upsert")
    p.span(HybridIndex, "save", "vectorstore.save")
    p.span_classmethod(HybridIndex, "load", "vectorstore.load")
    p.span(ingest, "load_gazetteer", "ingest.load_gazetteer")
    p.span(ingest, "index_gazetteer", "ingest.index_gazetteer")
    p.span(ingest, "make_composite", "spatial_embed.make_composite")
    for op in ("load_geo_file", "distance_matrix", "nearest_join", "within_radius", "write_result"):
        p.span(cli, op, f"geocompute.{op}")
    return p


def install_counters(tracer: Tracer) -> Patches:
    """Count haversine calls. Kept apart from the spans because a wrapper on
    a call made millions of times would inflate the spans around it."""
    from geocontext import geocompute

    p = Patches(tracer)
    p.count(geocompute, "haversine", "georelate.haversine.calls")
    return p
