"""One set-up sample in a fresh interpreter: import, instances, blocks.

Usage: python3 bench/probe.py WORKLOAD SEED  -> prints the seconds taken.
The clock starts before the package is imported, so import time counts.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

setup, _ = workloads.WORKLOADS[sys.argv[1]]
setup(int(sys.argv[2]), os.devnull)
print(f"{time.perf_counter() - _T0!r}")
