"""Time one fresh-process set-up of a workload and print it in seconds.

Set-up is importing the package and building the workload's inputs
(recipe load, config, specs). Run from the root of a checkout:
``python3 perfbench/setup_probe.py <workload>``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build()
print(time.perf_counter() - START)
