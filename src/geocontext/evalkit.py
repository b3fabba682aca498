"""Evaluation metrics and dataset runner.

Metrics are deliberate operationalizations: spatial accuracy is haversine
error statistics, geocoding precision is hit@k against truth doc sets (with a
radius-based variant), and contextual relevance is bag-of-words token F1.
The runner drives the full retrieval pipeline with the OfflineResponder, so
reports are bit-stable for a fixed store, dataset, and config.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import DatasetParseError, EmptyInput, EmptyPrompt, LengthMismatch, decode_utf8
from .geomodel import GeoPoint
from .georelate import check_radius, haversine
from .geotext.gazetteer import Gazetteer
from .ragctx import answer_prompt
from .vectorstore import HybridIndex


@dataclass(frozen=True)
class EvalCase:
    query: str
    truth_point: GeoPoint | None = None
    truth_doc_ids: tuple[str, ...] = ()
    reference_answer: str | None = None

    def __post_init__(self):
        if self.truth_point is None and not self.truth_doc_ids and self.reference_answer is None:
            raise ValueError("eval case needs at least one truth field")
        object.__setattr__(self, "truth_doc_ids", tuple(self.truth_doc_ids))


def spatial_accuracy(preds: Sequence[GeoPoint], truths: Sequence[GeoPoint]) -> tuple[float, float]:
    """Mean and median haversine error in meters over aligned point lists."""
    if len(preds) != len(truths):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(truths)} truths")
    if not preds:
        raise EmptyInput("no prediction/truth pairs")
    errors = [haversine(p, t) for p, t in zip(preds, truths)]
    return statistics.fmean(errors), statistics.median(errors)


def precision_at_k(
    results: Sequence[Sequence[str]],
    truth_sets: Sequence[Sequence[str]],
    k: int,
) -> float:
    """Fraction of cases whose top-k results intersect the truth set."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(results) != len(truth_sets):
        raise LengthMismatch(f"{len(results)} result lists vs {len(truth_sets)} truth sets")
    if not results:
        raise EmptyInput("no cases")
    hits = sum(
        1 for ranked, truth in zip(results, truth_sets) if set(ranked[:k]) & set(truth)
    )
    return hits / len(results)


def precision_at_k_radius(
    result_points: Sequence[Sequence[GeoPoint | None]],
    truth_points: Sequence[GeoPoint],
    k: int,
    radius_m: float,
) -> float:
    """Radius variant: a case hits iff any top-k result point lies within
    radius_m of the truth point."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_radius(radius_m)
    if len(result_points) != len(truth_points):
        raise LengthMismatch(f"{len(result_points)} result lists vs {len(truth_points)} truth points")
    if not result_points:
        raise EmptyInput("no cases")
    hits = 0
    for points, truth in zip(result_points, truth_points):
        if any(p is not None and haversine(p, truth) <= radius_m for p in points[:k]):
            hits += 1
    return hits / len(result_points)


def contextual_relevance(answer: str, reference: str) -> float:
    """Token-level F1 between casefolded whitespace token multisets."""
    a = Counter(answer.casefold().split())
    r = Counter(reference.casefold().split())
    if not a and not r:
        return 1.0
    if not a or not r:
        return 0.0
    common = sum((a & r).values())
    if common == 0:
        return 0.0
    precision = common / sum(a.values())
    recall = common / sum(r.values())
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class CaseRow:
    index: int
    query: str
    ranked_doc_ids: tuple[str, ...]
    top_doc_id: str | None
    spatial_error_m: float | None
    relevance: float | None
    hit_at_1: bool | None


@dataclass(frozen=True)
class EvalReport:
    n_cases: int
    spatial_accuracy_mean_m: float | None
    spatial_accuracy_median_m: float | None
    precision_at_k: dict[int, float]
    contextual_relevance_mean: float | None
    rows: tuple[CaseRow, ...] = field(default=())

    def to_json(self) -> str:
        doc = {
            "n_cases": self.n_cases,
            "spatial_accuracy_mean_m": self.spatial_accuracy_mean_m,
            "spatial_accuracy_median_m": self.spatial_accuracy_median_m,
            "precision_at_k": {str(k): v for k, v in sorted(self.precision_at_k.items())},
            "contextual_relevance_mean": self.contextual_relevance_mean,
            "rows": [
                {
                    "index": row.index,
                    "query": row.query,
                    "ranked_doc_ids": list(row.ranked_doc_ids),
                    "top_doc_id": row.top_doc_id,
                    "spatial_error_m": row.spatial_error_m,
                    "relevance": row.relevance,
                    "hit_at_1": row.hit_at_1,
                }
                for row in self.rows
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def to_table(self) -> str:
        lines = [
            f"cases: {self.n_cases}",
            f"spatial accuracy mean/median (m): {self.spatial_accuracy_mean_m} / {self.spatial_accuracy_median_m}",
            "precision@k: "
            + ", ".join(f"p@{k}={v:.4f}" for k, v in sorted(self.precision_at_k.items())),
            f"contextual relevance mean: {self.contextual_relevance_mean}",
            "-" * 72,
        ]
        for row in self.rows:
            top = row.top_doc_id or "-"
            err = f"{row.spatial_error_m:.1f}" if row.spatial_error_m is not None else "-"
            rel = f"{row.relevance:.4f}" if row.relevance is not None else "-"
            lines.append(f"[{row.index:>3}] top={top:<24} err_m={err:<12} rel={rel}  {row.query}")
        return "\n".join(lines)


def parse_dataset(path: str | Path, strict: bool = False) -> list[EvalCase]:
    """Read a JSONL dataset of eval cases.

    A file that is not UTF-8 raises ParseError; bad lines raise
    DatasetParseError with the line number; an empty dataset raises in
    strict mode and yields zero cases otherwise.
    """
    cases: list[EvalCase] = []
    for lineno, line in enumerate(decode_utf8(Path(path).read_bytes(), f"dataset {path}").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            truth_point = None
            if "truth_lat" in obj or "truth_lon" in obj:
                truth_point = GeoPoint(float(obj["truth_lat"]), float(obj["truth_lon"]))
            cases.append(
                EvalCase(
                    query=obj["query"],
                    truth_point=truth_point,
                    truth_doc_ids=tuple(obj.get("truth_doc_ids", ())),
                    reference_answer=obj.get("reference_answer"),
                )
            )
        except DatasetParseError:
            raise
        except Exception as exc:
            raise DatasetParseError(str(exc), line=lineno) from exc
    if not cases and strict:
        raise DatasetParseError("dataset has no cases", line=0)
    return cases


def run_eval(
    dataset_path: str | Path,
    store: HybridIndex,
    config: EngineConfig = DEFAULT_CONFIG,
    k: int = 5,
    gazetteer: Gazetteer | None = None,
    strict: bool = False,
    radius_m: float | None = None,
) -> EvalReport:
    """Evaluate the retrieval pipeline over a JSONL dataset.

    Each case runs `answer_prompt` with the OfflineResponder: the ranked doc
    ids are its citations in rank order, the answer is its response. Metrics
    aggregate only over cases carrying the relevant truth field. With radius_m set,
    precision switches to the radius variant: a case hits when a top-k record
    point falls within that radius of the truth point.
    """
    if radius_m is not None:
        check_radius(radius_m)
    cases = parse_dataset(dataset_path, strict=strict)
    g = gazetteer if gazetteer is not None else Gazetteer()

    rows: list[CaseRow] = []
    doc_results: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    point_results: list[tuple[tuple[GeoPoint | None, ...], GeoPoint]] = []
    spatial_errors: list[float] = []
    relevances: list[float] = []

    for i, case in enumerate(cases):
        try:
            payload = answer_prompt(store, g, case.query, k, config)
        except EmptyPrompt:
            raise DatasetParseError("empty query", line=i + 1) from None
        answer = payload["response"]
        ranked = tuple(c["doc_id"] for c in payload["citations"])
        top = ranked[0] if ranked else None

        err = None
        if case.truth_point is not None:
            top_rec = store.get(top) if top else None
            if top_rec is not None and top_rec.point is not None:
                err = haversine(top_rec.point, case.truth_point)
                spatial_errors.append(err)
            point_results.append((tuple(store.get(d).point for d in ranked), case.truth_point))

        rel = None
        if case.reference_answer is not None:
            rel = contextual_relevance(answer, case.reference_answer)
            relevances.append(rel)

        hit1 = None
        if case.truth_doc_ids:
            doc_results.append((ranked, case.truth_doc_ids))
            hit1 = bool(set(ranked[:1]) & set(case.truth_doc_ids))

        rows.append(
            CaseRow(
                index=i,
                query=case.query,
                ranked_doc_ids=ranked,
                top_doc_id=top,
                spatial_error_m=err,
                relevance=rel,
                hit_at_1=hit1,
            )
        )

    precisions: dict[int, float] = {}
    if radius_m is not None and point_results:
        pts = [p for p, _ in point_results]
        truths = [t for _, t in point_results]
        for kk in range(1, k + 1):
            precisions[kk] = precision_at_k_radius(pts, truths, kk, radius_m)
    elif doc_results:
        ranked_lists = [r for r, _ in doc_results]
        truth_sets = [t for _, t in doc_results]
        for kk in range(1, k + 1):
            precisions[kk] = precision_at_k(ranked_lists, truth_sets, kk)

    return EvalReport(
        n_cases=len(cases),
        spatial_accuracy_mean_m=statistics.fmean(spatial_errors) if spatial_errors else None,
        spatial_accuracy_median_m=statistics.median(spatial_errors) if spatial_errors else None,
        precision_at_k=precisions,
        contextual_relevance_mean=statistics.fmean(relevances) if relevances else None,
        rows=tuple(rows),
    )


def write_report(report: EvalReport, out_base: str | Path) -> tuple[Path, Path]:
    """Serialize the report as <base>.json and <base>.txt."""
    base = Path(out_base)
    json_path = base.with_suffix(".json") if base.suffix != ".json" else base
    txt_path = json_path.with_suffix(".txt")
    json_path.write_text(report.to_json() + "\n", encoding="utf-8")
    txt_path.write_text(report.to_table() + "\n", encoding="utf-8")
    return json_path, txt_path
