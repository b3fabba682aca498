"""Engine configuration.

One frozen dataclass houses every numeric knob used across the engine
(dimensions, seeds, score weights, decay length, thresholds), plus a loader
for a flat "key = value" config file with '#' comments. Unknown keys are
errors so config drift is caught immediately.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, decode_utf8

WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class EngineConfig:
    # vector dimensions
    d_text: int = 256
    d_loc: int = 64
    d_st: int = 256
    d_dyn: int = 128
    # deterministic seeds (u64)
    hash_seed: int = 7919
    projection_seed: int = 104729
    # hybrid score weights: text, spatial, temporal
    w_t: float = 0.6
    w_s: float = 0.3
    w_d: float = 0.1
    # spatial decay length
    lambda_m: float = 1000.0
    # proximity phrase thresholds
    adjacent_m: float = 100.0
    close_m: float = 1000.0
    # filtering
    min_credibility: float = 0.0
    dedup_cosine: float = 0.95
    # description quality heuristics
    min_chars: int = 20
    printable_ratio: float = 0.9
    # prompt assembly
    max_context_chars: int = 4000
    # geodesy
    earth_radius_m: float = 6_371_008.8
    # relation rendering
    cardinal_ways: int = 8
    # intent classification triggers (matched as case-insensitive substrings)
    computational_keywords: tuple[str, ...] = (
        "distance",
        "distances",
        "nearest",
        "within",
        "radius",
        "travel time",
        "compute",
    )

    def __post_init__(self):
        for name in ("d_text", "d_loc", "d_st", "d_dyn"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.d_loc % 4 != 0:
            raise ConfigError("d_loc must be a multiple of 4 (sin/cos pairs per scale)")
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if abs(self.w_t + self.w_s + self.w_d - 1.0) > WEIGHT_TOL:
            raise ConfigError("weights w_t + w_s + w_d must sum to 1")
        if min(self.w_t, self.w_s, self.w_d) < 0:
            raise ConfigError("weights must be nonnegative")
        if self.lambda_m <= 0:
            raise ConfigError("lambda_m must be > 0")
        if self.earth_radius_m <= 0:
            raise ConfigError("earth_radius_m must be > 0")
        if self.cardinal_ways not in (8, 16):
            raise ConfigError("cardinal_ways must be 8 or 16")
        if not 0.0 <= self.min_credibility <= 1.0:
            raise ConfigError("min_credibility must be in [0, 1]")
        if not 0.0 < self.dedup_cosine <= 1.0:
            raise ConfigError("dedup_cosine must be in (0, 1]")

    @property
    def weights(self) -> tuple[float, float, float]:
        return (self.w_t, self.w_s, self.w_d)

    @property
    def concat_dim(self) -> int:
        return self.d_loc + self.d_st + self.d_dyn


DEFAULT_CONFIG = EngineConfig()

_FIELDS = {f.name: f for f in dataclasses.fields(EngineConfig)}


def _coerce(name: str, raw: str):
    field = _FIELDS[name]
    if field.type in ("int",):
        return int(raw)
    if field.type in ("float",):
        return float(raw)
    if name == "computational_keywords":
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    return raw


def load_config(path: str | Path) -> EngineConfig:
    """Parse a "key = value" config file into an EngineConfig.

    Blank lines and '#' comments are skipped; unknown keys raise ConfigError,
    and a file that is not UTF-8 ParseError.
    """
    overrides = {}
    for lineno, line in enumerate(decode_utf8(Path(path).read_bytes(), f"config {path}").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        try:
            overrides[key] = _coerce(key, value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return EngineConfig(**overrides)


def dump_config(config: EngineConfig) -> str:
    """Render a config back to the flat file format (round-trips load_config)."""
    lines = []
    for field in dataclasses.fields(EngineConfig):
        value = getattr(config, field.name)
        if isinstance(value, tuple):
            value = ", ".join(value)
        lines.append(f"{field.name} = {value}")
    return "\n".join(lines) + "\n"
