"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints progress on stderr and, as the last
line of stdout, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("annotate_chip", "serve_closed", "train_fewshot")
#: Python's string-hash seed orders the program's sets and dicts of net and
#: node names.  Left random, it moved ``annotate_chip`` latency by ~15% between
#: processes that returned identical records, so every run (and the daemon,
#: which inherits the environment) uses this one.
HASH_SEED = "0"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    try:
        common.require_program()
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "annotate_chip":
        import wl_annotate as workload
    elif args.workload == "serve_closed":
        import wl_serve as workload
    else:
        import wl_train as workload
    correct, attempted, failed, metrics = workload.run(
        args.seed, args.seconds, bool(args.trace))
    print(common.result_line(correct, attempted, failed, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
