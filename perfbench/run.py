"""Benchmark of the lowregret CLI path.

    python3 perfbench/run.py --workload solve-fine --seed 0 --seconds 20 --trace 0

Run from the root of a checkout of the repository; the library is imported
from the checkout's ``src/``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch output goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread: a single-process interpreter per run, so neighbouring
# processes on a small machine perturb the timings as little as possible.
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("solve-fine", "sweep-deep", "audit-probes")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if not args.seconds > 0:
        parser.error(f"--seconds must be positive, got {args.seconds}")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "lowregret", "__init__.py")):
        print(f"error: no lowregret package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)

    import lowregret

    if os.path.dirname(os.path.dirname(os.path.abspath(lowregret.__file__))) != SRC:
        print(f"error: lowregret imported from {lowregret.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import measure
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    work_dir = os.path.join(ROOT, ".perfbench_out", f"{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    problems: list[str] = []
    if args.trace:
        gate, metrics, notes, problems, absent = measure.measure_traced(
            w, args.seed, args.seconds, ROOT, work_dir
        )
        if absent:
            notes.append("absent (reported as null): " + ", ".join(absent))
    else:
        gate, metrics, notes = measure.measure_end_to_end(w, args.seed, args.seconds, work_dir)

    print("environment: " + json.dumps(measure.environment(args.seed), sort_keys=True))
    for line in notes:
        print(line)
    for msg in gate.messages + problems:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": gate.failed == 0 and not problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
