"""Shared helpers: quantiles, peak memory and the per-run result record."""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (the 'inclusive' method), q in [0, 1]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a running child, from /proc/<pid>/status."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_env() -> dict:
    """Environment for a `python -m geocontext.cli` child of this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def gce_argv(*args: str) -> list[str]:
    return [sys.executable, "-u", "-m", "geocontext.cli", *args]


def run_gce(*args: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run one `gce` command in a child process; raise on a non-zero exit."""
    proc = subprocess.run(
        gce_argv(*args), env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"gce {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc


@dataclass
class Outcome:
    """What one workload run measured.

    `metrics` holds the gated end-to-end slots, `named` the same numbers (and
    a few more) under names that say what they are, `layers` the per-layer
    metrics of a traced run and `facts` values recorded but never gated.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: dict[str, int] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    named: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    facts: dict[str, object] = field(default_factory=dict)
    tracer: object = None

    def fail(self, message: str) -> None:
        """Record an operation that raised, was refused or got no answer."""
        self.failed += 1
        self._note(message)

    def mismatch(self, message: str) -> None:
        """Record an answer that differs from the oracle's; it fails too."""
        self.failed += 1
        self.wrong += 1
        self._note(message)

    def _note(self, message: str) -> None:
        if message in self.notes or len(self.notes) < 20:
            self.notes[message] = self.notes.get(message, 0) + 1
