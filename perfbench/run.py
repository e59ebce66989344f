"""Run one workload of the twinforge benchmark from the root of a checkout.

    python3 perfbench/run.py --workload pinned --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("matrix", "pinned", "scan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "twinforge" / "__init__.py").is_file():
        print(f"perfbench: no twinforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Workers are spawned and inherit this path, so they import the same sources.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    from perfbench import bench

    try:
        return bench.main(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    finally:
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop the resource tracker process that spawned pools start, and wait
    for it, so that no process of the run outlives it.  Left alone, the
    tracker only exits after this process has."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
