"""Token type and word segmentation shared by the tokenizers.

Spans are byte offsets into the UTF-8 encoding of the source string so they
stay meaningful when text is stored or sliced as bytes. Partition tokenizers
(subword, semantic) emit non-overlapping ordered spans; n-gram windows of
n >= 2 overlap by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidArgument

TOKEN_KINDS = ("plain", "city", "street", "landmark", "coordinate", "number")


@dataclass(frozen=True)
class Token:
    text: str
    kind: str = "plain"
    span: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if self.kind not in TOKEN_KINDS:
            raise ValueError(f"unknown token kind {self.kind!r}")
        if self.span[0] > self.span[1] or self.span[0] < 0:
            raise ValueError(f"bad span {self.span}")


@dataclass(frozen=True)
class Word:
    """A whitespace-delimited word with both char and byte offsets."""

    text: str
    char_start: int
    char_end: int
    byte_start: int
    byte_end: int


def check_utf8(text: str) -> None:
    """InvalidArgument for text that has no UTF-8 encoding, so no byte
    spans: one holding a lone surrogate, as Python decodes a byte of argv
    that is not UTF-8."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InvalidArgument(f"text is not valid UTF-8: {exc.reason} at character {exc.start}") from None


def split_words(text: str) -> list[Word]:
    """Split on whitespace, tracking char and byte offsets of each word."""
    check_utf8(text)
    words: list[Word] = []
    char_pos = 0
    byte_pos = 0
    start_c = start_b = -1
    for ch in text:
        blen = len(ch.encode("utf-8"))
        if ch.isspace():
            if start_c >= 0:
                words.append(Word(text[start_c:char_pos], start_c, char_pos, start_b, byte_pos))
                start_c = start_b = -1
        else:
            if start_c < 0:
                start_c, start_b = char_pos, byte_pos
        char_pos += 1
        byte_pos += blen
    if start_c >= 0:
        words.append(Word(text[start_c:char_pos], start_c, char_pos, start_b, byte_pos))
    return words
