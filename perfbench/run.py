"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload attack --seed 0 --seconds 10 --trace 0

Workloads: attack, restbus, serve, chaos.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones from a separate
traced run.  The last line of standard output is the JSON result.  Exits
with status 2, printing no result, when the program's sources are not
in the checkout.
"""

import argparse
import os
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro is missing from this checkout; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench import bench

    return bench.main(args.workload, args.seed, args.seconds, args.trace, root)


if __name__ == "__main__":
    sys.exit(main())
