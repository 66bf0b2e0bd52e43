"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload soc-serve --seed 1 --seconds 10 --trace 0

Prints a few human-readable lines, then one JSON object as the last line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ledger.  Exits non-zero
when the program under test is missing or a correctness check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("soc-serve", "analog-serve", "snn-learn", "fabric-serve")


def parse_args(argv=None) -> argparse.Namespace:
    """Command-line arguments of one benchmark run."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    """Run one workload and print its result line; returns the exit code."""
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"program under test not found at {source}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT)]
    # spawned fabric workers import the program afresh: hand them the path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(source)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    from perfbench import bench

    runner = bench.trace if args.trace else bench.measure
    result = asyncio.run(runner(args.workload, args.seed, args.seconds))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
