"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload>

Prints the seconds from the first statement to the end of
``program.set_up(workload)``: importing treeasym, filling the kernels
caches to the workload's order and parsing the fixtures it reads.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

from program import set_up  # noqa: E402


if __name__ == "__main__":
    set_up(sys.argv[1])
    print(time.perf_counter() - START)
