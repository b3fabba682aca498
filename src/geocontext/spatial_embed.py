"""Composite spatial vectors and the standardization step.

Three parts make up the representation of a place: a multi-scale sin/cos
encoding of its coordinates, a feature-hash embedding of the text describing
it, and an optional time-windowed embedding of events happening there. The
three blocks are concatenated (each block scaled to unit norm so no signal
drowns the others) and projected by a fixed seeded random-sign matrix down to
the text-embedding dimensionality, so one index serves text and spatial
content alike.

`embed_landmarks` builds the composite vectors of a whole batch of landmarks;
`encode_location`, `embed_text`, `make_composite` and `standardize` are
one-row calls into the same steps, so each step has one implementation and a
batch gives the same bits as one record at a time:

- the location block evaluates `math.sin` and `math.cos` on angles that
  numpy computes with the same IEEE operations as scalar code;
- the text blocks add up +-1 per token slot; the counts are small integers,
  exact in any order, and a bounded cache maps each whitespace-split word to
  its slot, because names, categories and common words repeat;
- the projection is one matrix-vector product per row, never one matrix
  product for the batch, which sums in another order and changes last bits:
  a batch is one `np.matmul` of the matrix with its rows as stacked column
  vectors, which numpy runs as one BLAS gemv per row, and one `np.vecdot`
  for the norms, which takes one ddot per row.

Everything here is pure and deterministic for a fixed config: token hashing
and the projection matrix both derive from keyed blake2b streams, not from a
process- or library-dependent RNG.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import string
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Protocol, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import DimensionMismatch, GeoContextError, InvalidArgument, MissingWindow
from .geomodel import GeoPoint, LandmarkRecord, TimeWindow
from .geotext.tokens import Token, check_utf8

_STRIP_CHARS = string.punctuation + "°“”‘’"


class ExternalEmbedder(Protocol):
    """Contract for substituting a learned embedder: must be deterministic
    per (input, configuration) to preserve the engine's reproducibility."""

    def __call__(self, tokens: Sequence[str], dim: int) -> Sequence[float]: ...


def _canonical(text: str) -> str:
    return text.casefold().strip(_STRIP_CHARS)


def norm_tokens(items: Iterable[str | Token]) -> list[str]:
    """Canonical embedding tokens: casefolded, surrounding punctuation stripped."""
    out = []
    for item in items:
        cleaned = _canonical(item.text if isinstance(item, Token) else item)
        if cleaned:
            out.append(cleaned)
    return out


def text_tokens(text: str) -> list[str]:
    """Whitespace-split a string into canonical embedding tokens."""
    return norm_tokens(text.split())


def _hash64(token: str, seed: int) -> int:
    """The keyed 64-bit hash of a token's UTF-8 bytes; InvalidArgument for a
    token that has none (a lone surrogate, as argv decodes a stray byte)."""
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    try:
        data = token.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidArgument(f"token {token!r} is not valid UTF-8 text: {exc.reason}") from None
    return int.from_bytes(hashlib.blake2b(data, digest_size=8, key=key).digest(), "little")


def _slot(token: str, dim: int, seed: int) -> int:
    """The signed slot of a token: bucket h mod dim, plus one, negated when
    the top bit of the hash h is clear (that token counts -1)."""
    h = _hash64(token, seed)
    return h % dim + 1 if h >> 63 else -(h % dim + 1)


# Far more words than a typical batch holds distinct ones, and a few MB at
# most in a long-running service.
@lru_cache(maxsize=1 << 14)
def _word_slot(word: str, dim: int, seed: int) -> int:
    """The signed slot of a whitespace-split word's canonical token, or 0
    when the word normalizes to nothing."""
    token = _canonical(word)
    return _slot(token, dim, seed) if token else 0


def _hash_rows(slot_rows: Sequence[Sequence[int]], dim: int) -> np.ndarray:
    """Signed feature hashing of n token lists, given as nonzero signed
    slots: the +-1 counts per bucket, each nonzero row divided by its norm.
    The counts and their sums of squares are small integers, exact in any
    order, so every row has the bits of a token-by-token sum."""
    n = len(slot_rows)
    slots = np.fromiter(itertools.chain.from_iterable(slot_rows), dtype=np.intp)
    signs = np.sign(slots)
    at = np.repeat(np.arange(0, n * dim, dim), list(map(len, slot_rows))) + slots * signs - 1
    # `astype`: with no tokens at all, `bincount` counts in integers.
    counts = np.bincount(at, weights=signs, minlength=n * dim).astype(np.float64, copy=False).reshape(n, dim)
    norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))[:, None]
    return np.divide(counts, norms, out=counts, where=norms > 0.0)


def embed_text(tokens: Sequence[str | Token], dim: int, seed: int = DEFAULT_CONFIG.hash_seed) -> np.ndarray:
    """Signed feature hashing: index from h mod dim, sign from the top hash bit,
    accumulated and L2-normalized. Empty input gives the zero vector."""
    if dim < 1:
        raise DimensionMismatch(f"dim must be >= 1, got {dim}")
    slots = [_slot(item.text if isinstance(item, Token) else item, dim, seed) for item in tokens]
    return _hash_rows([slots], dim)[0]


def _location_rows(lat: np.ndarray, lon: np.ndarray, d_loc: int) -> np.ndarray:
    """`encode_location` of n points given as latitude and longitude
    arrays. numpy forms each angle with the scalar code's multiply and
    divide, and `math.sin`/`math.cos` evaluate it, so every row has the bits
    of the scalar formula."""
    scales = np.array([float(2**k) for k in range(d_loc // 4)])
    out = np.zeros((len(lat), d_loc))
    for j, coord in enumerate((lat, lon)):
        angles = (math.pi * coord[:, None] / scales).ravel().tolist()
        for m, fn in enumerate((math.sin, math.cos)):
            values = np.fromiter(map(fn, angles), dtype=np.float64, count=len(angles))
            out[:, 2 * j + m : 4 * scales.size : 4] = values.reshape(len(lat), scales.size)
    return out


def encode_location(p: GeoPoint, d_loc: int = DEFAULT_CONFIG.d_loc) -> np.ndarray:
    """Multi-scale trigonometric position code.

    For scales s_k = 2^k degrees, each scale contributes
    [sin(pi*lat/s_k), cos(pi*lat/s_k), sin(pi*lon/s_k), cos(pi*lon/s_k)],
    so equal points always map to equal vectors and every component is in
    [-1, 1]. The full vector has constant norm sqrt(d_loc / 2).
    """
    return _location_rows(np.array([p.lat]), np.array([p.lon]), d_loc)[0]


@lru_cache(maxsize=8)
def _projection_matrix(seed: int, d_out: int, d_in: int) -> np.ndarray:
    """Fixed +-1/sqrt(d_out) matrix from a keyed blake2b counter stream.

    Independent of numpy's RNG so standardized vectors reproduce bit-for-bit
    across platforms and library versions.
    """
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    n_bytes = (d_out * d_in + 7) // 8
    chunks = []
    counter = 0
    while sum(len(c) for c in chunks) < n_bytes:
        chunks.append(hashlib.blake2b(counter.to_bytes(8, "little"), digest_size=64, key=key).digest())
        counter += 1
    bits = np.unpackbits(np.frombuffer(b"".join(chunks), dtype=np.uint8)[:n_bytes])[: d_out * d_in]
    signs = bits.astype(np.float64) * 2.0 - 1.0
    matrix = signs.reshape(d_out, d_in) / math.sqrt(d_out)
    matrix.setflags(write=False)
    return matrix


def _check_concat(vec: np.ndarray, config: EngineConfig) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.float64)
    if arr.shape != (config.concat_dim,):
        raise DimensionMismatch(f"expected length {config.concat_dim}, got {arr.shape}")
    return arr


def project(vec: np.ndarray, config: EngineConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The linear part of standardize (no normalization)."""
    return _projection_matrix(config.projection_seed, config.d_text, config.concat_dim) @ _check_concat(vec, config)


def _standardize_rows(concat: np.ndarray, config: EngineConfig) -> np.ndarray:
    """`standardize` of each row of an n x concat_dim array. `np.matmul` of
    the matrix with the rows as n stacked column vectors runs one
    matrix-vector product (gemv) per row, as `matrix @ row` does, and
    `np.vecdot` takes each squared norm with one ddot, as `np.linalg.norm`
    does, so each row has the bits of a one-row call."""
    matrix = _projection_matrix(config.projection_seed, config.d_text, config.concat_dim)
    projected = np.matmul(matrix, concat[:, :, None])[:, :, 0]
    norms = np.sqrt(np.vecdot(projected, projected))
    return projected / np.where(norms > 0.0, norms, 1.0)[:, None]


def standardize(vec: np.ndarray, config: EngineConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Project the concatenated composite down to d_text and L2-normalize
    nonzero results. Zero input maps to the zero vector."""
    return _standardize_rows(_check_concat(vec, config)[None], config)[0]


@dataclass(frozen=True, eq=False)
class DynamicVector:
    """Time-windowed embedding of events at a location."""

    values: np.ndarray
    window: TimeWindow


@dataclass(frozen=True, eq=False)
class CompositeSpatialVector:
    location: np.ndarray
    spatial_text: np.ndarray
    dynamic: DynamicVector | None
    standardized: np.ndarray

    def concat(self, config: EngineConfig = DEFAULT_CONFIG) -> np.ndarray:
        dyn = self.dynamic.values if self.dynamic is not None else None
        return composite_concat(self.location, self.spatial_text, dyn, config)

    def verify(self, config: EngineConfig = DEFAULT_CONFIG, atol: float = 1e-12) -> bool:
        """Recomputability check: standardized equals standardize(concat)."""
        return bool(np.allclose(self.standardized, standardize(self.concat(config), config), atol=atol))


def _concat_rows(location: np.ndarray, spatial_text: np.ndarray, dynamic: np.ndarray,
                 config: EngineConfig) -> np.ndarray:
    """`composite_concat` of n-row blocks."""
    loc = location / math.sqrt(config.d_loc / 2)
    n = len(loc)
    if loc.shape != (n, config.d_loc) or spatial_text.shape != (n, config.d_st) or dynamic.shape != (n, config.d_dyn):
        raise DimensionMismatch(
            f"block shapes {loc.shape[1:]}/{spatial_text.shape[1:]}/{dynamic.shape[1:]} do not match config "
            f"{config.d_loc}/{config.d_st}/{config.d_dyn}"
        )
    return np.concatenate([loc, spatial_text, dynamic], axis=1)


def composite_concat(
    location: np.ndarray,
    spatial_text: np.ndarray,
    dynamic: np.ndarray | None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Concatenate the three blocks, location scaled by its constant norm so
    each block enters with unit weight; an absent dynamic block is zeros."""
    dyn = np.zeros(config.d_dyn) if dynamic is None else dynamic
    blocks = (np.asarray(block, dtype=np.float64)[None] for block in (location, spatial_text, dyn))
    return _concat_rows(*blocks, config)[0]


def _block_rows(word_rows: Sequence[list[str] | None], dim: int, seed: int,
                embedder: ExternalEmbedder | None) -> np.ndarray:
    """One text block per row, from its whitespace-split words; zeros for
    a row without words (None)."""
    if embedder is None:
        # Each distinct word of the batch goes through the slot cache once.
        batch_words = dict.fromkeys(itertools.chain.from_iterable(words for words in word_rows if words))
        slot_of = {word: _word_slot(word, dim, seed) for word in batch_words}
        return _hash_rows(
            [[] if words is None else [s for s in map(slot_of.__getitem__, words) if s] for words in word_rows],
            dim,
        )
    out = np.zeros((len(word_rows), dim))
    for i, words in enumerate(word_rows):
        if words is not None:
            row = np.asarray(embedder(norm_tokens(words), dim), dtype=np.float64)
            if row.shape != (dim,):
                raise DimensionMismatch(f"embedder returned shape {row.shape} for dim {dim}")
            out[i] = row
    return out


def embed_error(landmark: LandmarkRecord, event_text: str | None) -> GeoContextError | None:
    """Why `embed_landmarks` cannot embed a landmark with this event text,
    or None: MissingWindow for event text without a time window,
    InvalidArgument for a name, category, description or event text that
    is not valid UTF-8 (a lone surrogate), which could not be hashed."""
    if event_text is not None and landmark.window is None:
        return MissingWindow(f"landmark {landmark.id!r} has event text but no time window")
    if landmark.name.isascii() and landmark.category.isascii() and landmark.description.isascii() and (
            event_text is None or event_text.isascii()):
        return None
    for what, text in (("name", landmark.name), ("category", landmark.category),
                       ("description", landmark.description), ("event text", event_text or "")):
        try:
            check_utf8(text)
        except InvalidArgument as exc:
            return InvalidArgument(f"landmark {landmark.id!r}: {what}: {exc}")
    return None


def embed_landmarks(
    landmarks: Sequence[LandmarkRecord],
    event_texts: Sequence[str | None],
    config: EngineConfig = DEFAULT_CONFIG,
    embedder: ExternalEmbedder | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The composite vectors of n landmarks, each with an event text or
    None: the n-row location, spatial-text, dynamic (zeros without an event)
    and standardized blocks, in that order. No row depends on another, so
    a landmark gets the same bits in any batch, alone included.

    Raises the `embed_error` of the first landmark that has one, before
    embedding any.
    """
    for landmark, event_text in zip(landmarks, event_texts, strict=True):
        if (error := embed_error(landmark, event_text)) is not None:
            raise error
    return _embed_rows(landmarks, event_texts, config, embedder)


def _embed_rows(
    landmarks: Sequence[LandmarkRecord],
    event_texts: Sequence[str | None],
    config: EngineConfig,
    embedder: ExternalEmbedder | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`embed_landmarks` of landmarks whose `embed_error` the caller has
    found to be None."""
    n = len(landmarks)
    lat = np.fromiter((landmark.point.lat for landmark in landmarks), dtype=np.float64, count=n)
    lon = np.fromiter((landmark.point.lon for landmark in landmarks), dtype=np.float64, count=n)
    location = _location_rows(lat, lon, config.d_loc)
    st_words = [f"{lm.name} {lm.category} {lm.description}".split() for lm in landmarks]
    spatial_text = _block_rows(st_words, config.d_st, config.hash_seed, embedder)
    ev_words = [None if event_text is None else event_text.split() for event_text in event_texts]
    dynamic = _block_rows(ev_words, config.d_dyn, config.hash_seed, embedder)
    concat = _concat_rows(location, spatial_text, dynamic, config)
    return location, spatial_text, dynamic, _standardize_rows(concat, config)


def make_composite(
    landmark: LandmarkRecord,
    event_text: str | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
    embedder: ExternalEmbedder | None = None,
) -> CompositeSpatialVector:
    """Build the three-part vector for a landmark and its standardized form.

    event_text requires the landmark to carry a TimeWindow; without an event
    the dynamic slot contributes zeros to the concatenation.
    """
    location, spatial_text, dynamic, standardized = embed_landmarks([landmark], [event_text], config, embedder)
    return CompositeSpatialVector(
        location=location[0],
        spatial_text=spatial_text[0],
        dynamic=None if event_text is None else DynamicVector(values=dynamic[0], window=landmark.window),
        standardized=standardized[0],
    )


def query_vector(
    tokens: Sequence[str | Token],
    config: EngineConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Standardized query vector built through the same pipeline as records.

    The location and dynamic blocks are zero: spatial proximity and temporal
    overlap are scored separately by the hybrid search, so the query vector
    carries only the text signal.
    """
    st = embed_text(norm_tokens(tokens), config.d_st, config.hash_seed)
    concat = np.concatenate([np.zeros(config.d_loc), st, np.zeros(config.d_dyn)])
    return standardize(concat, config)
