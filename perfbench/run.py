"""GeoContext benchmark: one command for every workload.

    python3 perfbench/run.py --workload query-50k --seed 1 --seconds 20 --trace 0

Builds its inputs from --seed, measures for --seconds, checks every output
against an independent oracle, and prints as its last stdout line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the gated end-to-end slots; with --trace 1 they are the per-layer
numbers of a traced run. Everything else it measures (the same numbers under
descriptive names, machine facts, the spans) is written under .perfbench/ in
the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import wl_compute  # noqa: E402
import wl_ingest  # noqa: E402
import wl_query  # noqa: E402
import wl_serve  # noqa: E402
from common import ROOT, SRC  # noqa: E402

OUT_DIR = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "op2_ms": "ms",
    "op3_ms": "ms",
    "peak_rss_mb": "MB",
}


WORKLOADS = {
    "query-50k": wl_query.run,
    "serve-200": wl_serve.run,
    "ingest-50k": wl_ingest.run,
    "compute-1k": wl_compute.run,
}


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "geocontext" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'geocontext'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import geocontext

    if Path(geocontext.__file__).resolve().parent != (SRC / "geocontext").resolve():
        print(f"error: imported geocontext from {geocontext.__file__}, not {SRC}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / "work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, workdir, traced)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if traced:
        metrics = {name: {"value": outcome.layers[name], "unit": unit} for name, unit in layers.PER_LAYER.items()}
        outcome.tracer.write(OUT_DIR / "traces" / f"{tag}.jsonl")
    else:
        metrics = {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    attempted = max(outcome.attempted, 1)
    facts = {
        **machine_facts(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "src_lines": src_line_count(),
        **outcome.facts,
    }
    named = {**outcome.named, "fail_ratio": outcome.failed / attempted}
    report = {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "results" / f"{tag}.json").write_text(
        json.dumps({**report, "named": named, "facts": facts, "notes": outcome.notes}, indent=2) + "\n"
    )
    for note, times in outcome.notes.items():
        print(f"note: {note} (x{times})", file=sys.stderr)
    print("named: " + json.dumps(named, sort_keys=True))
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
