#!/usr/bin/env python3
"""chainguide benchmark: one workload, one seed, one timed run.

Run from the repository root:

    python3 perfbench/run.py --workload guarantee-2type --seed 1 --seconds 15 --trace 0

Workloads: guarantee-2type, guarantee-3type, oracle-2type (see
perfbench/NOTES.md). With ``--trace 0`` the run reports the end-to-end
metrics declared in BENCHMARK.json, with ``--trace 1`` the per-layer ones.
Human-readable lines and a ``report`` line with the full details come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without it
the run exits with code 2 and prints no result. A run whose outputs fail
the correctness gate prints its result and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    if not (SRC / "chainguide" / "__init__.py").is_file():
        print(f"perfbench: no chainguide sources in {SRC}", file=sys.stderr)
        return 2
    # one thread per numerical library: the runs are single-process by design
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import bench

    result = bench.run(args, ROOT, spec)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
