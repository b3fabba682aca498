"""Engine error types.

Everything raised by the engine derives from GeoContextError so the CLI can
map any data/domain failure to exit code 2 with a machine-parsable
"error_code=<ClassName>" prefix.
"""


class GeoContextError(Exception):
    """Base class for all engine errors."""


class InvalidArgument(GeoContextError, ValueError):
    """A numeric argument outside its domain, such as a negative radius or
    k < 1. Also a ValueError, for callers that catch ValueError."""


# geomodel
class NonFiniteInput(GeoContextError):
    pass


class OutOfRangeLatitude(GeoContextError):
    pass


# geotext
class InvalidN(GeoContextError):
    pass


class VocabTooSmall(GeoContextError):
    pass


class BadTemplate(GeoContextError):
    pass


class ParseError(GeoContextError):
    """Parse failure; carries the offset of the first unconsumed character
    and, for multi-line inputs, the line number."""

    def __init__(self, message: str, offset: int | None = None, line: int | None = None):
        self.offset = offset
        self.line = line
        where = []
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"offset {offset}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class UnparseableAddress(GeoContextError):
    pass


# spatial_embed
class MissingWindow(GeoContextError):
    pass


class DimensionMismatch(GeoContextError):
    pass


# vectorstore
class InvalidVectorDim(GeoContextError):
    pass


class InvalidWeights(GeoContextError):
    pass


class CorruptFile(GeoContextError):
    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


class VersionMismatch(GeoContextError):
    pass


# georelate
class UndefinedBearing(GeoContextError):
    pass


class DegeneratePolygon(GeoContextError):
    pass


class MissingPoint(GeoContextError):
    pass


class EmptyPath(GeoContextError):
    pass


# geocompute
class EmptyInput(GeoContextError):
    pass


class UnsupportedGeometry(GeoContextError):
    pass


class NonPositiveSpeed(GeoContextError):
    pass


# ragctx
class EmptyPrompt(GeoContextError):
    pass


class EmptyStore(GeoContextError):
    pass


class ClientError(GeoContextError):
    pass


# ingest
class MissingHeader(GeoContextError):
    pass


class DuplicateId(GeoContextError):
    pass


class RowError(GeoContextError):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


# evalkit
class LengthMismatch(GeoContextError):
    pass


class DatasetParseError(GeoContextError):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


# cli/config
class ConfigError(GeoContextError):
    pass
