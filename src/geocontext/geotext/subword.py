"""Byte-pair subword model: training, encoding, and JSON persistence.

Training starts from single characters and repeatedly merges the most
frequent adjacent symbol pair until the vocabulary budget is reached or no
pair occurs twice. Ties break lexicographically on the pair so training is
fully deterministic. Encoding replays the recorded merges in order; unknown
characters become the reserved UNK token and never participate in merges.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from ..errors import VocabTooSmall
from .tokens import Token, check_utf8

UNK_TEXT = "<unk>"


@dataclass(frozen=True)
class SubwordModel:
    vocab: tuple[str, ...]
    merges: tuple[tuple[str, str], ...]
    vocab_size: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "vocab": list(self.vocab),
                "merges": [list(pair) for pair in self.merges],
                "vocab_size": self.vocab_size,
            },
            ensure_ascii=False,
        )

    @classmethod
    def from_json(cls, payload: str) -> "SubwordModel":
        data = json.loads(payload)
        return cls(
            vocab=tuple(data["vocab"]),
            merges=tuple((a, b) for a, b in data["merges"]),
            vocab_size=int(data["vocab_size"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "SubwordModel":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def _merge_sequence(seq: list[str], pair: tuple[str, str]) -> list[str]:
    """Apply one merge left-to-right over a symbol sequence."""
    a, b = pair
    out: list[str] = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == a and seq[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def subword_train(corpus: list[str], vocab_size: int) -> SubwordModel:
    """Train a byte-pair merge model over the corpus.

    Raises VocabTooSmall when the budget cannot even cover the corpus
    alphabet. Merges stop early when no adjacent pair repeats.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    alphabet = sorted({ch for text in corpus for ch in text})
    if vocab_size < len(alphabet):
        raise VocabTooSmall(f"vocab_size {vocab_size} < alphabet size {len(alphabet)}")

    sequences = [list(text) for text in corpus if text]
    vocab: list[str] = list(alphabet)
    seen = set(vocab)
    merges: list[tuple[str, str]] = []

    while len(vocab) < vocab_size:
        counts: Counter[tuple[str, str]] = Counter()
        for seq in sequences:
            for i in range(len(seq) - 1):
                counts[(seq[i], seq[i + 1])] += 1
        if not counts:
            break
        top = max(counts.values())
        if top < 2:
            break
        best = min(pair for pair, c in counts.items() if c == top)
        merges.append(best)
        sequences = [_merge_sequence(seq, best) for seq in sequences]
        symbol = best[0] + best[1]
        if symbol not in seen:
            seen.add(symbol)
            vocab.append(symbol)

    return SubwordModel(vocab=tuple(vocab), merges=tuple(merges), vocab_size=vocab_size)


def subword_encode(model: SubwordModel, text: str) -> list[Token]:
    """Encode text by replaying the model's merges in recorded order.

    Concatenating the emitted token texts (UNK substitutions aside)
    reproduces the input byte-for-byte.
    """
    check_utf8(text)
    alphabet = {v for v in model.vocab if len(v) == 1}
    # (symbol or None-for-UNK, byte_start, byte_end)
    seq: list[tuple[str | None, int, int]] = []
    byte_pos = 0
    for ch in text:
        blen = len(ch.encode("utf-8"))
        seq.append((ch if ch in alphabet else None, byte_pos, byte_pos + blen))
        byte_pos += blen

    for a, b in model.merges:
        out: list[tuple[str | None, int, int]] = []
        i = 0
        while i < len(seq):
            if (
                i + 1 < len(seq)
                and seq[i][0] == a
                and seq[i + 1][0] == b
                and seq[i][0] is not None
            ):
                out.append((a + b, seq[i][1], seq[i + 1][2]))
                i += 2
            else:
                out.append(seq[i])
                i += 1
        seq = out

    return [
        Token(text=sym if sym is not None else UNK_TEXT, kind="plain", span=(start, end))
        for sym, start, end in seq
    ]
