"""One ``setup_s`` sample, in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <work_dir>

Prints the seconds from this script's first statement to the workload's
first simulated bit (see :func:`perfbench.workloads.probe_setup`), then
two host-speed kernel timings taken after it (see
:mod:`perfbench.hostspeed`).
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402  (the clock starts before every import)
import sys  # noqa: E402


def main() -> int:
    workload, seed, work_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench.workloads import probe_setup

    probe_setup(workload, seed, work_dir)
    elapsed = time.perf_counter() - _STARTED
    from perfbench.hostspeed import kernel_seconds

    print(f"{elapsed:.6f} {kernel_seconds():.6f} {kernel_seconds():.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
