"""Set-up probe: in a fresh interpreter, time `import coulombflow` plus building
one workload's inputs, and print the seconds.

    python3 benchmarks/setup_probe.py WORKLOAD SEED WORK_DIR

run.py starts it several times per run, with `src/` on PYTHONPATH.
"""

import sys
import time

t0 = time.perf_counter()
import coulombflow  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]), sys.argv[3])
print(repr(time.perf_counter() - t0))
