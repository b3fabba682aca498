"""Gazetteer lookup and longest-match semantic tagging.

Names are normalized by casefolding and whitespace collapse; multiword names
match longest-first so "East Coast Road" wins over "East Coast". Matching
ignores punctuation at word edges ("Singapore?" matches "Singapore"), with
the stripped punctuation emitted as separate plain tokens; everything else
stays a plain word token. Output spans are non-overlapping, ordered, and
cover every non-whitespace character exactly once.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Iterable

from ..geomodel import LandmarkRecord
from .tokens import Token, Word, split_words

_KIND_CATEGORIES = {"city", "street", "landmark"}

_PUNCT = set(string.punctuation)


def normalize_name(name: str) -> str:
    """Casefolded, with every run of whitespace (as `str.split` finds it)
    one space and none at the ends."""
    return " ".join(name.split()).casefold()


@dataclass
class Gazetteer:
    """Map from normalized place name to (record id, category)."""

    entries: dict[str, tuple[str, str]] = field(default_factory=dict)

    def __post_init__(self):
        self.entries = {normalize_name(k): v for k, v in self.entries.items()}
        self._max_words = max((key.count(" ") for key in self.entries), default=0) + 1

    @classmethod
    def from_records(cls, records: Iterable[LandmarkRecord]) -> "Gazetteer":
        return cls(entries={r.name: (r.id, r.category) for r in records})

    def add(self, name: str, record_id: str, category: str) -> None:
        key = normalize_name(name)
        self.entries[key] = (record_id, category)
        self._max_words = max(self._max_words, key.count(" ") + 1)

    def lookup(self, name: str) -> tuple[str, str] | None:
        return self.entries.get(normalize_name(name))

    @property
    def max_words(self) -> int:
        return self._max_words

    def __len__(self) -> int:
        return len(self.entries)


def _kind_for_category(category: str) -> str:
    return category if category in _KIND_CATEGORIES else "landmark"


def _core_offsets(word: Word) -> tuple[int, int]:
    """Char offsets (within the word) of the text between edge punctuation."""
    start, end = 0, len(word.text)
    while start < end and word.text[start] in _PUNCT:
        start += 1
    while end > start and word.text[end - 1] in _PUNCT:
        end -= 1
    return start, end


def _byte_len(s: str) -> int:
    return len(s.encode("utf-8"))


def semantic_tag(text: str, g: Gazetteer) -> list[Token]:
    """Tag gazetteer matches as typed tokens, longest match first."""
    words = split_words(text)
    cores = [_core_offsets(w) for w in words]
    tokens: list[Token] = []
    i = 0
    while i < len(words):
        matched = False
        for length in range(min(g.max_words, len(words) - i), 0, -1):
            phrase = normalize_name(
                " ".join(w.text[c[0] : c[1]] for w, c in zip(words[i : i + length], cores[i : i + length]))
            )
            entry = g.entries.get(phrase) if phrase else None
            if entry is None:
                continue
            first, last = words[i], words[i + length - 1]
            f_start, _ = cores[i]
            _, l_end = cores[i + length - 1]
            if f_start > 0:
                tokens.append(
                    Token(
                        text=first.text[:f_start],
                        kind="plain",
                        span=(first.byte_start, first.byte_start + _byte_len(first.text[:f_start])),
                    )
                )
            match_byte_start = first.byte_start + _byte_len(first.text[:f_start])
            match_byte_end = last.byte_start + _byte_len(last.text[:l_end])
            tokens.append(
                Token(
                    text=text[first.char_start + f_start : last.char_start + l_end],
                    kind=_kind_for_category(entry[1]),
                    span=(match_byte_start, match_byte_end),
                )
            )
            if l_end < len(last.text):
                tokens.append(
                    Token(
                        text=last.text[l_end:],
                        kind="plain",
                        span=(match_byte_end, last.byte_end),
                    )
                )
            i += length
            matched = True
            break
        if not matched:
            w = words[i]
            tokens.append(Token(text=w.text, kind="plain", span=(w.byte_start, w.byte_end)))
            i += 1
    return tokens
