"""Store files written and read byte by byte, independently of the engine:
`write_v1` and `read_v1` follow the version-1 record layout and `v2_file`
the version-2 column layout, for malformed inputs and golden checks."""

from __future__ import annotations

import itertools
import struct
import zlib

import numpy as np

V2_COLUMNS = ("vectors", "flags", "lat", "lon", "start", "end", "credibility",
              "id_offsets", "ids", "source_offsets", "sources", "text_offsets", "texts")


def write_v1(path, rows, dim):
    """A version-1 store file of records given as (doc_id, vector,
    credibility, source, text) with raw byte strings, optionally followed by
    a (lat, lon) point and a (start, end) window, each of which may be None."""
    out = bytearray(b"GCEV" + struct.pack("<HIQ", 1, dim, len(rows)))
    for doc_id, vec, credibility, source, text, *extra in rows:
        point, window = (*extra, None, None)[:2]
        out += struct.pack("<I", len(doc_id)) + doc_id + np.asarray(vec, dtype="<f4").tobytes()
        out += struct.pack("<B", (point is not None) | (window is not None) << 1)
        for pair in (point, window):
            if pair is not None:
                out += struct.pack("<dd", *pair)
        out += struct.pack("<d", credibility)
        out += struct.pack("<I", len(source)) + source + struct.pack("<I", len(text)) + text
    path.write_bytes(bytes(out))


def read_v1(path) -> dict[str, dict]:
    """doc_id -> {vector, point, window, credibility, source, text} of a
    well-formed version-1 file; points and windows are tuples or None."""
    data = path.read_bytes()
    assert data[:4] == b"GCEV"
    version, dim, count = struct.unpack_from("<HIQ", data, 4)
    assert version == 1
    pos = 18

    def take(n):
        nonlocal pos
        pos += n
        return data[pos - n : pos]

    def string():
        (n,) = struct.unpack("<I", take(4))
        return take(n).decode("utf-8")

    records = {}
    for _ in range(count):
        doc_id = string()
        vector = np.frombuffer(take(4 * dim), dtype="<f4").astype(np.float32)
        (flags,) = take(1)
        point = struct.unpack("<dd", take(16)) if flags & 1 else None
        window = struct.unpack("<dd", take(16)) if flags & 2 else None
        (credibility,) = struct.unpack("<d", take(8))
        records[doc_id] = {
            "vector": vector, "point": point, "window": window,
            "credibility": credibility, "source": string(), "text": string(),
        }
    assert pos == len(data)
    return records


def v2_file(dim, vectors, flags, floats, strings) -> tuple[bytes, dict[str, int]]:
    """A version-2 store file with a correct checksum, and the byte offset
    at which each of `V2_COLUMNS` starts. `floats` holds the lat, lon,
    start, end and credibility columns; `strings` the doc id, source and
    text columns, each a list of byte strings or an (offsets, blob) pair."""
    n = len(flags)
    tables = []
    for column in strings:
        if isinstance(column, tuple):
            tables.append(column)
        else:
            tables.append(([0, *itertools.accumulate(map(len, column))], b"".join(column)))
    out = bytearray(b"GCEV" + struct.pack("<HIQQQQ", 2, dim, n, *(len(blob) for _, blob in tables)))
    raw = [np.asarray(vectors, dtype="<f4").tobytes(), bytes(flags)]
    raw += [struct.pack(f"<{n}d", *values) for values in floats]
    for offsets, blob in tables:
        raw += [struct.pack(f"<{len(offsets)}Q", *offsets), blob]
    starts = {}
    for name, column in zip(V2_COLUMNS, raw, strict=True):
        out += bytes(-len(out) % 64)
        starts[name] = len(out)
        out += column
    out += bytes(-len(out) % 64)
    return bytes(out + struct.pack("<I", zlib.crc32(out))), starts


def restamp(data: bytes) -> bytes:
    """A version-2 file with its trailing checksum recomputed."""
    return data[:-4] + struct.pack("<I", zlib.crc32(data[:-4]))
