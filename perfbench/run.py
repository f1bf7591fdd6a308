"""Benchmark entry point.

    python3 perfbench/run.py --workload rules-200 --seed 7 --seconds 60 --trace 0

Runs from the root of a source checkout and imports agorank from its
``src`` directory.  Prints a table of the metrics, then, as the last line,
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a separate traced run.  ``--workload all`` runs
every workload, each in its own process.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# the keys of bench.WORKLOADS, known before the sources are found and imported
WORKLOAD_NAMES = ("rules-200", "council-2k", "catalog-20k")


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7, help="workload seed; digests.json holds the bytes for 7")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="print the default-seed digests of every workload as JSON, for digests.json",
    )
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def _import_bench():
    """Import the benchmark against this checkout's sources, or exit 2."""
    if not (SRC / "agorank" / "__init__.py").is_file():
        print(f"perfbench: no agorank sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import agorank
    import bench

    if not Path(agorank.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported agorank from {agorank.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return bench


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if args.workload == "all" and not args.record_digests:
        return _run_all(args)
    bench = _import_bench()
    out_dir = OUT / f"run-{os.getpid()}"
    try:
        if args.record_digests:
            print(json.dumps(bench.record_digests(out_dir), indent=2, sort_keys=True))
            return 0
        result, info = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    share = result["failed"] / result["attempted"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>14.6f} {metric['unit']}")
    print(f"  {'failed_share':40s} {share:>14.6f} share ({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
