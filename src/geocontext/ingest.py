"""Gazetteer loading, description acquisition, quality filtering, and bulk
indexing into the vector store.

The gazetteer is a UTF-8 CSV (RFC 4180 quoting) with header columns
id,name,lat,lon,category,description,source,credibility,admin_path plus
optional trailing window_start,window_end,event columns for time-bounded
event records. Lenient parsing skips malformed rows with line-numbered
diagnostics; strict mode raises on the first bad row.

Description fetchers are a contract; the bundled implementation reads local
fixture files ({dir}/{landmark_id}.txt, first line "source: <label>") and
never touches the network.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import DuplicateId, MissingHeader, RowError, decode_utf8
from .geomodel import GeoPoint, LandmarkRecord, TimeWindow
# `perfbench/tracer.py` wraps `ingest.make_composite` by name, so it stays
# imported here.
from .spatial_embed import embed_error, embed_landmarks, embed_text, make_composite, text_tokens
from .vectorstore import HybridIndex, VectorRecord

CSV_COLUMNS = ("id", "name", "lat", "lon", "category", "description", "source", "credibility", "admin_path")
CSV_OPTIONAL_COLUMNS = ("window_start", "window_end", "event")

# Records embedded at once: a batch's float64 blocks take about 10 KB per
# record, so memory stays flat however many records one call indexes.
_EMBED_ROWS = 1024


def _parse_row(row: dict[str, str]) -> LandmarkRecord:
    point = GeoPoint(float(row["lat"]), float(row["lon"]))
    admin_path = tuple(part for part in (row.get("admin_path") or "").split("|") if part)
    window = None
    start_raw = (row.get("window_start") or "").strip()
    end_raw = (row.get("window_end") or "").strip()
    if start_raw or end_raw:
        window = TimeWindow(float(start_raw), float(end_raw))
    event = (row.get("event") or "").strip() or None
    return LandmarkRecord(
        id=row["id"],
        name=row["name"],
        point=point,
        category=row["category"],
        description=row["description"],
        source=row["source"],
        credibility=float(row["credibility"]),
        admin_path=admin_path,
        window=window,
        event_text=event,
    )


def load_gazetteer(path: str | Path, strict: bool = False) -> tuple[list[LandmarkRecord], list[str]]:
    """Parse a gazetteer CSV into records plus line-numbered diagnostics.

    Raises ParseError for a file that is not UTF-8, MissingHeader on a bad
    header and DuplicateId on repeated ids in either mode; row-level errors
    raise RowError only when strict.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return _read_gazetteer(csv.reader(fh), strict)
    except UnicodeDecodeError:
        # The decoder reads ahead of the rows, so find the byte on the bytes.
        decode_utf8(Path(path).read_bytes(), f"gazetteer {path}")
        raise


def _read_gazetteer(reader, strict: bool) -> tuple[list[LandmarkRecord], list[str]]:
    try:
        header = next(reader)
    except StopIteration:
        raise MissingHeader("gazetteer file is empty") from None
    if tuple(header[: len(CSV_COLUMNS)]) != CSV_COLUMNS:
        raise MissingHeader(f"expected header starting with {','.join(CSV_COLUMNS)}")
    extra = tuple(header[len(CSV_COLUMNS) :])
    if extra and extra != CSV_OPTIONAL_COLUMNS[: len(extra)]:
        raise MissingHeader(f"unexpected trailing columns {extra}")

    records: list[LandmarkRecord] = []
    diagnostics: list[str] = []
    seen: set[str] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(CSV_COLUMNS):
            message = f"expected >= {len(CSV_COLUMNS)} columns, got {len(row)}"
            if strict:
                raise RowError(message, line=lineno)
            diagnostics.append(f"line {lineno}: {message}")
            continue
        mapping = dict(zip(CSV_COLUMNS + CSV_OPTIONAL_COLUMNS, row))
        if mapping["id"] in seen:
            raise DuplicateId(f"duplicate gazetteer id {mapping['id']!r} at line {lineno}")
        try:
            record = _parse_row(mapping)
        except Exception as exc:
            if strict:
                raise RowError(str(exc), line=lineno) from exc
            diagnostics.append(f"line {lineno}: {exc}")
            continue
        seen.add(record.id)
        records.append(record)
    return records, diagnostics


def score_relevance(
    description: str,
    query_terms: Sequence[str],
    config: EngineConfig = DEFAULT_CONFIG,
) -> float:
    """Cosine between feature-hash embeddings of the description and the
    query terms, clamped to [0, 1]. Empty inputs score 0."""
    desc_vec = embed_text(text_tokens(description), config.d_st, config.hash_seed)
    term_vec = embed_text([t.casefold() for t in query_terms], config.d_st, config.hash_seed)
    return float(min(1.0, max(0.0, float(np.dot(desc_vec, term_vec)))))


@dataclass(frozen=True)
class DescriptionCandidate:
    landmark_id: str
    text: str
    source: str
    credibility: float = 1.0


class DescriptionFetcher(Protocol):
    """Contract for description acquisition; implementations must be
    deterministic for reproducible ingestion."""

    def fetch(self, landmark: LandmarkRecord) -> list[DescriptionCandidate]: ...


class FixtureFetcher:
    """Reads descriptions from {fixtures_dir}/{landmark_id}.txt.

    First line must be "source: <label>"; an optional second header line
    "credibility: <x>" overrides the default of 1.0 (RowError if x is not a
    number). The remainder is the description text. A file that is not
    UTF-8 raises ParseError. Performs no network access.
    """

    def __init__(self, fixtures_dir: str | Path):
        self.fixtures_dir = Path(fixtures_dir)

    def fetch(self, landmark: LandmarkRecord) -> list[DescriptionCandidate]:
        path = self.fixtures_dir / f"{landmark.id}.txt"
        if not path.exists():
            return []
        lines = decode_utf8(path.read_bytes(), f"description fixture {path}").splitlines()
        if not lines or not lines[0].startswith("source:"):
            return []
        source = lines[0].partition(":")[2].strip()
        credibility = 1.0
        body_start = 1
        if len(lines) > 1 and lines[1].startswith("credibility:"):
            raw = lines[1].partition(":")[2].strip()
            try:
                credibility = float(raw)
            except ValueError:
                raise RowError(f"{path}: credibility {raw!r} is not a number", line=2) from None
            body_start = 2
        text = "\n".join(lines[body_start:]).strip()
        if not text:
            return []
        return [
            DescriptionCandidate(
                landmark_id=landmark.id, text=text, source=source, credibility=credibility
            )
        ]


@dataclass(frozen=True)
class QualityReport:
    total: int
    kept: int
    dropped_low_credibility: int
    dropped_language: int
    dropped_redundant: int


def _printable_ratio(text: str) -> float:
    if not text:
        return 0.0
    ok = sum(1 for ch in text if ch.isprintable() or ch in "\n\t\r")
    return ok / len(text)


def quality_filter(
    candidates: Sequence[DescriptionCandidate],
    config: EngineConfig = DEFAULT_CONFIG,
) -> tuple[list[DescriptionCandidate], QualityReport]:
    """Drop low-credibility, low-language-quality, and redundant candidates.

    Language quality is a heuristic: minimum length plus printable-character
    ratio. Redundancy keeps the earliest of any pair whose embedding cosine
    reaches the dedup threshold. Report tallies always sum to the total.
    """
    kept: list[DescriptionCandidate] = []
    kept_vecs: list[np.ndarray] = []
    low_cred = language = redundant = 0
    for cand in candidates:
        if cand.credibility < config.min_credibility:
            low_cred += 1
            continue
        if len(cand.text) < config.min_chars or _printable_ratio(cand.text) < config.printable_ratio:
            language += 1
            continue
        vec = embed_text(text_tokens(cand.text), config.d_st, config.hash_seed)
        if any(float(np.dot(vec, kv)) >= config.dedup_cosine for kv in kept_vecs):
            redundant += 1
            continue
        kept.append(cand)
        kept_vecs.append(vec)
    report = QualityReport(
        total=len(candidates),
        kept=len(kept),
        dropped_low_credibility=low_cred,
        dropped_language=language,
        dropped_redundant=redundant,
    )
    return kept, report


def _index_records(records: Sequence[LandmarkRecord], texts: Sequence[str], store: HybridIndex,
                   config: EngineConfig) -> None:
    """Composite-embed the records in batches of `_EMBED_ROWS`, upserting
    each batch under its ids, in order, with no read in between (a read
    folds the whole store).

    A record that cannot be embedded (event text but no time window, or
    text that is not valid UTF-8) raises its `embed_error` after the records
    before it are upserted, as when each record is embedded and upserted in
    turn.
    """
    stop = next((i for i, rec in enumerate(records) if embed_error(rec, rec.event_text) is not None),
                len(records))
    for at in range(0, stop, _EMBED_ROWS):
        batch = records[at : min(at + _EMBED_ROWS, stop)]
        vectors = embed_landmarks(batch, [rec.event_text for rec in batch], config)[3]
        for rec, text, vector in zip(batch, texts[at:], vectors):
            store.upsert(
                VectorRecord(
                    doc_id=rec.id,
                    vector=vector,
                    point=rec.point,
                    window=rec.window,
                    credibility=rec.credibility,
                    source=rec.source,
                    text=text,
                )
            )
    if stop < len(records):
        make_composite(records[stop], records[stop].event_text, config)  # raises its embed_error


def index_gazetteer(
    records: Iterable[LandmarkRecord],
    store: HybridIndex,
    config: EngineConfig = DEFAULT_CONFIG,
) -> int:
    """Composite-embed and upsert every record; returns the upsert count.

    Idempotent: re-indexing the same records replaces rather than duplicates.
    """
    records = list(records)
    texts = [f"{rec.name}: {rec.description}" if rec.description else rec.name for rec in records]
    _index_records(records, texts, store, config)
    return len(records)


def index_descriptions(
    landmark: LandmarkRecord,
    candidates: Sequence[DescriptionCandidate],
    store: HybridIndex,
    config: EngineConfig = DEFAULT_CONFIG,
) -> int:
    """Index kept description candidates as separate records anchored at the
    landmark's point, ids suffixed #d0, #d1, ..."""
    pseudo = [
        LandmarkRecord(
            id=f"{landmark.id}#d{i}",
            name=landmark.name,
            point=landmark.point,
            category=landmark.category,
            description=cand.text,
            source=cand.source,
            credibility=cand.credibility,
            window=landmark.window,
        )
        for i, cand in enumerate(candidates)
    ]
    _index_records(pseudo, [cand.text for cand in candidates], store, config)
    return len(candidates)
