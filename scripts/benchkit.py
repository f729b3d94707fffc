"""What the BENCH_<topic>.json scripts share.

Each script measures the tough2f tree given by ``--src`` and merges its
figures into its BENCH file under ``--label``, so a parent tree and a
changed tree can be recorded side by side:

    python3 scripts/<script>.py --src ../parent/src --label parent
    python3 scripts/<script>.py --label change

Every entry carries the provenance from ``provenance()``: the Python
version and implementation, and the time of the benchmark's reference
kernel, so that runs on hosts of different speed can be told apart.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def parse_args(description: str, argv=None) -> argparse.Namespace:
    """Read ``--src`` and ``--label``, and put the tree to measure and
    ``bench/`` first on ``sys.path``."""
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the tough2f package to measure")
    ap.add_argument("--label", required=True,
                    help="name of this run's entry in the output file")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    return args


def timed(fn, repeats: int) -> tuple:
    """(median seconds, every repeat's seconds, the last result)."""
    times = []
    result = None
    for _ in range(repeats):
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    return statistics.median(times), times, result


def provenance() -> dict:
    import reference
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "reference_kernel_ms": 1000 * statistics.median(
            reference.sample() for _ in range(21)),
    }


def save(out: Path, label: str, entry: dict) -> None:
    """Merge ``entry`` into ``out`` under ``label`` and print it."""
    data = json.loads(out.read_text()) if out.exists() else {}
    data.setdefault("runs", {})[label] = entry
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(json.dumps({label: entry}, sort_keys=True))
